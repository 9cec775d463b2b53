//! Thread-creation and LRPC handlers: `SPAWN_KEY`, `RPC_SPAWN`,
//! `RPC_CALL`.
//!
//! All three need a fresh stack slot (a bitmap mutation), so all three
//! defer while the bitmap is frozen by a negotiation and are replayed by
//! the dispatch core after `NEG_DONE`.  Typed-LRPC handlers spawn into the
//! scheduler's **control lane** ([`marcel::thread::flags::CONTROL`]): a
//! serving node crowded with compute threads still turns replies around
//! promptly.  Both LRPC handler kinds spawn **detached**
//! ([`marcel::thread::flags::DETACHED`]): their tids are node-assigned and
//! no caller holds them, so they leave no completion record behind.

use madeleine::message::PayloadReader;
use madeleine::Message;

use crate::node::NodeCtx;
use crate::proto::{self, rpc_status, tag};

pub(crate) fn on_spawn_key(ctx: &mut NodeCtx, m: Message) {
    if ctx.frozen {
        // Spawning needs a stack slot (bitmap mutation): park until
        // the negotiation ends.
        ctx.deferred.push_back(m);
        return;
    }
    let mut r = PayloadReader::new(&m.payload);
    let key = r.u64().expect("spawn payload");
    let tid = r.u64().expect("spawn payload tid");
    let f = ctx.spawn_table.take(key).expect("spawn key not found");
    // Out of stack slots must not kill the node driver: under open-loop
    // overload (the workload harness past saturation) spawn failures are
    // expected, and the host is blocked on this tid — complete it as a
    // failed exit so joiners observe a typed failure instead of a hang.
    if let Err(e) = ctx.try_spawn_boxed(tid, 0, f) {
        ctx.registry.complete(crate::registry::ThreadExit {
            tid,
            panicked: true,
            died_on: ctx.node,
            panic_msg: Some(format!("spawn failed: {e}")),
            value: None,
            failed_node: None,
        });
    }
}

pub(crate) fn on_rpc_spawn(ctx: &mut NodeCtx, m: Message) {
    if ctx.frozen {
        ctx.deferred.push_back(m);
        return;
    }
    // Fire and forget: nobody waits on a reply, so a request this node
    // cannot serve is dropped with one output line, never a panic that
    // would take the node's driver down.
    let Some((service, args)) = proto::decode_rpc_spawn(&m.payload) else {
        ctx.out
            .printf(ctx.node, "rpc_spawn: dropped a malformed request");
        return;
    };
    let Some(f) = ctx.services.get(service) else {
        let text = format!("rpc_spawn: dropped a request for unregistered service {service:#x}");
        ctx.out.printf(ctx.node, &text);
        return;
    };
    let tid = ctx.sched.next_tid();
    let spawned = ctx.try_spawn_boxed(
        tid,
        marcel::thread::flags::DETACHED,
        Box::new(move || f(args)),
    );
    if let Err(e) = spawned {
        let text = format!("rpc_spawn: dropped service {service:#x}: {e}");
        ctx.out.printf(ctx.node, &text);
    }
}

pub(crate) fn on_rpc_call(ctx: &mut NodeCtx, m: Message) {
    if ctx.frozen {
        // The handler thread needs a stack slot (bitmap mutation):
        // park until the negotiation ends.
        ctx.deferred.push_back(m);
        return;
    }
    // The reply destination travels in the payload, NOT in `m.src`,
    // so it survives the deferred replay above and any handler
    // migration before the response is sent.
    let Some((call_id, reply_to, service, req)) = proto::decode_rpc_call(&m.payload) else {
        return; // Malformed request: nothing to reply to.
    };
    if req.len() > ctx.max_rpc_payload {
        let msg = format!("request of {} bytes exceeds ceiling", req.len());
        let _ = ctx.ep.send(
            reply_to,
            tag::RPC_RESP,
            proto::encode_rpc_resp(&ctx.pool, call_id, rpc_status::REMOTE_ERROR, msg.as_bytes()),
        );
        return;
    }
    let Some(handler) = ctx.typed_services.get(service) else {
        let _ = ctx.ep.send(
            reply_to,
            tag::RPC_RESP,
            proto::encode_rpc_resp(&ctx.pool, call_id, rpc_status::NO_SUCH_SERVICE, &[]),
        );
        return;
    };
    // LRPC semantics: the handler runs as a fresh Marcel thread, so it
    // may allocate, spawn, even migrate; the reply is sent from
    // whatever node it ends up on, matched by call id at the caller.
    // It spawns control-priority so a backlog of compute quanta cannot
    // sit between the request and its reply.
    let max = ctx.max_rpc_payload;
    let tid = ctx.sched.next_tid();
    let spawned = ctx.try_spawn_boxed(
        tid,
        marcel::thread::flags::CONTROL | marcel::thread::flags::DETACHED,
        Box::new(move || {
            let (status, bytes) = match handler(&req) {
                Ok(resp) if resp.len() <= max => (rpc_status::OK, resp),
                Ok(resp) => (
                    rpc_status::REMOTE_ERROR,
                    format!("response of {} bytes exceeds ceiling", resp.len()).into_bytes(),
                ),
                Err(e) => (rpc_status::REMOTE_ERROR, e.into_bytes()),
            };
            // The reply is RPC-shaped traffic too: account it on the
            // serving side (from wherever the handler ended up) so both
            // ends of a chatty pair accumulate affinity toward each other.
            crate::api::note_rpc_traffic(reply_to);
            let pool = crate::api::local_pool();
            let _ = crate::api::send_to(
                reply_to,
                tag::RPC_RESP,
                proto::encode_rpc_resp(&pool, call_id, status, &bytes),
            );
        }),
    );
    if let Err(e) = spawned {
        // Out of stack slots: the caller gets a typed remote error
        // instead of a wedged machine and an opaque timeout.
        let msg = format!("serving node could not spawn handler: {e}");
        let _ = ctx.ep.send(
            reply_to,
            tag::RPC_RESP,
            proto::encode_rpc_resp(&ctx.pool, call_id, rpc_status::REMOTE_ERROR, msg.as_bytes()),
        );
    }
}
