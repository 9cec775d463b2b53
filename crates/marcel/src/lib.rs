//! # marcel — the user-level thread substrate
//!
//! PM2's threads are provided by *Marcel*, a user-level thread library with
//! "very efficient primitives … creation, destruction and context
//! switching" (§2).  This crate rebuilds the parts the paper depends on:
//!
//! * threads whose **descriptor, stack and spawn closure all live inside an
//!   iso-address stack slot** (so a thread is exactly "a set of resources"
//!   that can be packed, shipped, and re-mapped at the same addresses);
//! * ~20-instruction x86-64 context switching ([`ctx`]);
//! * a per-node cooperative [`Scheduler`] that reports *why* each thread
//!   switched out — yield, exit, block, self-migration, or third-party
//!   (preemptive) migration — leaving all slot and network side effects to
//!   the embedding runtime.
//!
//! The crate is deliberately runtime-agnostic: `pm2` (the core crate) wires
//! schedulers to the slot managers and the Madeleine fabric; the tests here
//! drive schedulers by hand, including a complete two-node migration at the
//! substrate level.

pub mod ctx;
pub mod error;
pub mod sched;
pub mod thread;

pub use ctx::Context;
pub use error::SpawnError;
pub use sched::{
    block_current, current_desc, current_node, current_tid, exit_current, in_thread, migrate_self,
    release_thread_resources, yield_now, DescPtr, RunOutcome, Scheduler,
};
pub use thread::{
    desc_addr, stack_layout, ThreadDescriptor, ThreadState, AFF_EMPTY, AFF_TOP_K, DESC_MAGIC,
    STACK_CANARY,
};

#[cfg(test)]
mod tests;
