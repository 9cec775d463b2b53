//! The three closed-loop workloads and the green-thread client that runs
//! them.  A client issues its next op only after the previous one
//! completed, checks every output, and keeps its own latency histogram
//! (and, in a traced phase, one histogram per layer span), so the hot
//! loop shares nothing with other clients but one padded op counter.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pm2::api::{pm2_isofree, pm2_isomalloc, pm2_migrate, pm2_rpc_call, pm2_self};
use pm2::Service;

use crate::hist::Hist;
use crate::rng::Rng;

pub const NODES: usize = 4;

const SMALL_BLOCK: usize = 4 << 10;
/// Larger than the 64 KiB slot, so it needs a contiguous multi-slot run.
const LARGE_BLOCK: usize = 128 << 10;
const LARGE_BLOCK_P: f64 = 0.2;
const SMALL_PAYLOAD: usize = 64;
const LARGE_PAYLOAD: usize = 8 << 10;
const LARGE_PAYLOAD_P: f64 = 0.05;
/// Distinct seeded payloads per size class.
const PAYLOADS_PER_SIZE: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    HopEmpty,
    HeapTrade,
    RpcEcho,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "hop_empty" => Some(Workload::HopEmpty),
            "heap_trade" => Some(Workload::HeapTrade),
            "rpc_echo" => Some(Workload::RpcEcho),
            _ => None,
        }
    }
}

/// Layer spans a traced phase records around the calls into the runtime.
#[derive(Clone, Copy)]
pub enum Span {
    /// `pm2_migrate`, from the call until the thread resumes on `dest`.
    Migrate,
    /// `pm2_rpc_call`, caller side.
    RpcCall,
    /// Call time minus the handler body: wire, dispatch and polling.
    RpcWait,
    /// The echo handler body on the server, linked by the op id.
    Handler,
    Alloc,
    Free,
}
pub const N_SPANS: usize = 6;

/// The benchmark's echo service.  The op id rides in the request header
/// and comes back with the handler's own duration, so the caller can link
/// the server-side span to its op and split call time into handler and
/// wait.
pub struct Echo {
    pub tracing: Arc<AtomicBool>,
}

impl Service for Echo {
    const NAME: &'static str = "perfbench.echo";
    type Req = (u64, Vec<u8>);
    type Resp = (u64, u64, Vec<u8>);
    fn handle(&self, (id, body): (u64, Vec<u8>)) -> (u64, u64, Vec<u8>) {
        if !self.tracing.load(Ordering::Relaxed) {
            return (id, 0, body);
        }
        let t = Instant::now();
        let body = std::hint::black_box(body);
        (id, t.elapsed().as_nanos() as u64, body)
    }
}

#[repr(align(64))]
#[derive(Default)]
pub struct Padded(pub AtomicU64);

/// State one phase's clients share with the host thread.
pub struct Phase {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub stop: AtomicBool,
    pub recording: AtomicBool,
    /// Clients that completed their first op, and its wake-up.
    first_done: Mutex<usize>,
    first_cv: Condvar,
    pub ops: Vec<Padded>,
    /// Iso blocks allocated and not yet freed.
    pub blocks_live: AtomicI64,
    pub payloads: Vec<Vec<u8>>,
    pub reports: Mutex<Vec<ClientReport>>,
}

impl Phase {
    pub fn new(workload: Workload, seed: u64, clients: usize, trace: bool) -> Self {
        let mut rng = Rng::fork(seed, u64::MAX);
        let payloads = [SMALL_PAYLOAD, LARGE_PAYLOAD]
            .iter()
            .flat_map(|&len| std::iter::repeat_n(len, PAYLOADS_PER_SIZE))
            .map(|len| (0..len).map(|_| rng.next() as u8).collect())
            .collect();
        Phase {
            workload,
            seed,
            trace,
            stop: AtomicBool::new(false),
            recording: AtomicBool::new(false),
            first_done: Mutex::new(0),
            first_cv: Condvar::new(),
            ops: (0..clients).map(|_| Padded::default()).collect(),
            blocks_live: AtomicI64::new(0),
            payloads,
            reports: Mutex::new(Vec::new()),
        }
    }

    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    fn first_op_done(&self) {
        *self.first_done.lock().expect("first-op counter poisoned") += 1;
        self.first_cv.notify_all();
    }

    /// Block the host until every client completed its first op; on a
    /// timeout, the number of clients that did not.
    pub fn wait_first_ops(&self, timeout: Duration) -> Result<(), usize> {
        let n = self.ops.len();
        let done = self.first_done.lock().expect("first-op counter poisoned");
        let (done, t) = self
            .first_cv
            .wait_timeout_while(done, timeout, |d| *d < n)
            .expect("first-op counter poisoned");
        if t.timed_out() {
            Err(n - *done)
        } else {
            Ok(())
        }
    }
}

/// What one client hands back when it exits.
pub struct ClientReport {
    /// Op latency in ns, recorded while the phase was recording.
    pub lat: Hist,
    /// Per-[`Span`] durations in ns (traced phases only).
    pub spans: Vec<Hist>,
    /// Summed op time and the part of it covered by child spans.
    pub op_ns: u64,
    pub child_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

struct Block {
    ptr: *mut u64,
    words: usize,
    id: u64,
}

struct Client {
    phase: Arc<Phase>,
    idx: usize,
    rng: Rng,
    /// This op records spans (traced phase, recording window).
    traced: bool,
    blocks: VecDeque<Block>,
    next_id: u64,
    report: ClientReport,
}

/// Body of client `idx`: set up, run ops until the phase stops (always at
/// least one), clean up, report.
pub fn client(phase: Arc<Phase>, idx: usize) {
    let rng = Rng::fork(phase.seed, idx as u64);
    let spans = if phase.trace {
        vec![Hist::default(); N_SPANS]
    } else {
        Vec::new()
    };
    let mut c = Client {
        phase,
        idx,
        rng,
        traced: false,
        blocks: VecDeque::new(),
        next_id: 0,
        report: ClientReport {
            lat: Hist::default(),
            spans,
            op_ns: 0,
            child_ns: 0,
            attempted: 0,
            failed: 0,
            first_error: None,
        },
    };
    let init = c.init();
    c.count(init);
    loop {
        c.one_op();
        if c.report.attempted == 1 {
            c.phase.first_op_done();
        }
        if c.phase.stop.load(Ordering::Relaxed) {
            break;
        }
    }
    let cleanup = c.free_all();
    c.count(cleanup);
    let phase = Arc::clone(&c.phase);
    phase
        .reports
        .lock()
        .expect("a client panicked while reporting")
        .push(c.report);
}

impl Client {
    fn count(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.report.attempted += 1;
            self.report.failed += 1;
            self.report.first_error.get_or_insert(e);
        }
    }

    fn one_op(&mut self) {
        let recording = self.phase.recording.load(Ordering::Relaxed);
        self.traced = recording && self.phase.trace;
        let t0 = Instant::now();
        let r = match self.phase.workload {
            Workload::HopEmpty => self.hop(),
            Workload::HeapTrade => self.trade(),
            Workload::RpcEcho => self.echo(),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        self.report.attempted += 1;
        self.phase.ops[self.idx].0.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = r {
            self.report.failed += 1;
            self.report.first_error.get_or_insert(e);
        } else if recording {
            self.report.lat.record(ns);
            if self.traced {
                self.report.op_ns += ns;
            }
        }
    }

    /// Run `f` as a child span of the current op when tracing.
    fn timed<T>(&mut self, kind: Span, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let t = Instant::now();
        let v = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.report.spans[kind as usize].record(ns);
        self.report.child_ns += ns;
        v
    }

    fn init(&mut self) -> Result<(), String> {
        if self.phase.workload == Workload::HeapTrade {
            for _ in 0..self.target_blocks() {
                self.alloc_block()?;
            }
        }
        Ok(())
    }

    /// Working-set size of this client: 4..=16 blocks, spread evenly over
    /// the phase's clients (10 for a lone client) so that every seed
    /// gives the same mix of small and large working sets.
    fn target_blocks(&self) -> usize {
        let n = self.phase.ops.len();
        4 + (2 * self.idx + 1) * 13 / (2 * n)
    }

    /// `hop_empty`: one hop around the ring 0→1→2→3→0.
    fn hop(&mut self) -> Result<(), String> {
        let dest = (pm2_self() + 1) % NODES;
        self.timed(Span::Migrate, || pm2_migrate(dest))
            .map_err(|e| format!("pm2_migrate({dest}): {e}"))?;
        let here = pm2_self();
        if here != dest {
            return Err(format!("pm2_self() is {here} after a hop to {dest}"));
        }
        Ok(())
    }

    /// `heap_trade`: allocate on nodes 0–1, free the oldest block on nodes
    /// 2–3, hop, then check every block at its unchanged address.
    fn trade(&mut self) -> Result<(), String> {
        if pm2_self() < NODES / 2 {
            self.alloc_block()?;
        } else if let Some(b) = self.blocks.pop_front() {
            self.free_block(b)?;
        }
        self.hop()?;
        self.blocks
            .iter()
            .try_for_each(|b| b.check(self.phase.seed, true))
    }

    fn alloc_block(&mut self) -> Result<(), String> {
        let size = if self.rng.chance(LARGE_BLOCK_P) {
            LARGE_BLOCK
        } else {
            SMALL_BLOCK
        };
        let ptr = self
            .timed(Span::Alloc, || pm2_isomalloc(size))
            .map_err(|e| format!("pm2_isomalloc({size}) on node {}: {e}", pm2_self()))?;
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<u64>()) {
            return Err(format!("pm2_isomalloc returned misaligned {ptr:p}"));
        }
        self.phase.blocks_live.fetch_add(1, Ordering::Relaxed);
        self.next_id += 1;
        let b = Block {
            ptr: ptr.cast(),
            words: size / 8,
            id: (self.idx as u64) << 32 | self.next_id,
        };
        b.fill(self.phase.seed);
        self.blocks.push_back(b);
        Ok(())
    }

    fn free_block(&mut self, b: Block) -> Result<(), String> {
        b.check(self.phase.seed, false)?;
        self.timed(Span::Free, || pm2_isofree(b.ptr.cast()))
            .map_err(|e| format!("pm2_isofree on node {}: {e}", pm2_self()))?;
        self.phase.blocks_live.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    fn free_all(&mut self) -> Result<(), String> {
        while let Some(b) = self.blocks.pop_front() {
            self.free_block(b)?;
        }
        Ok(())
    }

    /// `rpc_echo`: call the echo service on a uniformly drawn other node
    /// and check the reply byte for byte.
    fn echo(&mut self) -> Result<(), String> {
        let here = pm2_self();
        let r = self.rng.below(NODES as u64 - 1) as usize;
        let peer = if r >= here { r + 1 } else { r };
        let class = usize::from(self.rng.chance(LARGE_PAYLOAD_P));
        let k = class * PAYLOADS_PER_SIZE + self.rng.below(PAYLOADS_PER_SIZE as u64) as usize;
        self.next_id += 1;
        let id = (self.idx as u64) << 40 | self.next_id;
        let body = self.phase.payloads[k].clone();
        let t = self.traced.then(Instant::now);
        let (rid, handler_ns, back) = pm2_rpc_call::<Echo>(peer, (id, body))
            .map_err(|e| format!("pm2_rpc_call({peer}): {e}"))?;
        if let Some(t) = t {
            let call = t.elapsed().as_nanos() as u64;
            let spans = &mut self.report.spans;
            spans[Span::RpcCall as usize].record(call);
            spans[Span::Handler as usize].record(handler_ns);
            spans[Span::RpcWait as usize].record(call.saturating_sub(handler_ns));
            self.report.child_ns += call;
        }
        if rid != id {
            return Err(format!("echo reply carries op id {rid:#x}, sent {id:#x}"));
        }
        if back != self.phase.payloads[k] {
            return Err(format!(
                "echo reply from node {peer} differs from the {}-byte request",
                self.phase.payloads[k].len()
            ));
        }
        Ok(())
    }
}

impl Block {
    fn word(&self, seed: u64, j: usize) -> u64 {
        (self.id ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ j as u64
    }

    fn fill(&self, seed: u64) {
        for j in 0..self.words {
            // SAFETY: `ptr` is a live, 8-aligned pm2_isomalloc block of
            // `words` words owned by the calling thread.
            unsafe { self.ptr.add(j).write(self.word(seed, j)) };
        }
    }

    /// Verify the pattern: every word, or (`sampled`) the first word of
    /// each 4 KiB page and the last word — enough to catch a block that
    /// moved, lost a page or arrived zeroed.
    fn check(&self, seed: u64, sampled: bool) -> Result<(), String> {
        let step = if sampled { 512 } else { 1 };
        let last = self.words - 1;
        for j in (0..self.words).step_by(step).chain([last]) {
            // SAFETY: as in `fill`; iso-address migration keeps the block
            // mapped at the same address on whichever node hosts the thread.
            let got = unsafe { self.ptr.add(j).read() };
            if got != self.word(seed, j) {
                return Err(format!(
                    "block {:#x} at {:p} word {j} reads {got:#x} on node {}",
                    self.id,
                    self.ptr,
                    pm2_self()
                ));
            }
        }
        Ok(())
    }
}
