//! # lfi-fabric — a multi-tenant campaign service over one shared fleet
//!
//! The paper's end state is LFI running continuously against every library
//! a team ships — not one ad-hoc `CampaignRun` per process.  This crate is
//! that long-running service: a [`Fabric`] owns a shared worker fleet, and
//! tenants submit named [`JobSpec`]s (a workload name from the shared
//! [`WorkloadRegistry`](lfi_controller::WorkloadRegistry), a fault plan,
//! and policy knobs) that are multiplexed over it.
//!
//! Three mechanisms carry the design:
//!
//! * **Work-stealing case leases with weighted fairness** — workers pull
//!   batches of fault-space cells (leases) from *any* runnable job; a
//!   deficit counter normalized by [`JobSpec::weight`] picks the next job,
//!   so a 1000-case exhaustive sweep cannot starve a 10-case smoke job.
//!   Each lease runs on the existing [`Campaign`](lfi_controller::Campaign)
//!   machinery as a serial session — the fleet is the parallelism.
//! * **Crash-safe handoff** — a lease not acked within its deadline (the
//!   worker panicked, hung, or the process was killed) returns to the
//!   job's frontier; late acks are discarded wholesale, so no cell is ever
//!   lost or double-counted.  A job's complete state serializes as a
//!   standard [`ExplorationStore`](lfi_explore::ExplorationStore)
//!   checkpoint ([`FabricHandle::checkpoint`] /
//!   [`FabricHandle::submit_restored`]).  Each ack folds its newly
//!   executed cells into the job's one live fold once; a cluster's example
//!   is its smallest cell by sort key and clusters are ordered by example
//!   (restored clusters keep their order), so the fold ignores ack order
//!   and interrupted and clean runs checkpoint byte-identically.  A job
//!   can attach an `lfi-store` write-ahead journal
//!   ([`FabricHandle::journal_job`] / [`FabricHandle::recover_job`]) that
//!   appends one CRC-framed ack record per lease, so recovering a killed
//!   process replays O(acks) deltas instead of rewriting a full
//!   checkpoint per batch.
//! * **A wire protocol** — a line-delimited request/response surface
//!   ([`Request`]/[`Response`]) served over an in-process duplex transport
//!   ([`FabricHandle::connect`]) and plain TCP
//!   ([`FabricHandle::serve_tcp`]), so progress snapshots and event
//!   streams are observable from outside the process.
//!
//! ```
//! use lfi_fabric::{Fabric, JobSpec};
//! use lfi_controller::FnWorkload;
//! use lfi_runtime::{ExitStatus, NativeLibrary, Process};
//! use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
//! use std::time::Duration;
//!
//! let fabric = Fabric::builder()
//!     .workers(2)
//!     .register(FnWorkload::new(
//!         "reader",
//!         || {
//!             let mut process = Process::new();
//!             process.load(NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build());
//!             process
//!         },
//!         |process| match process.call("read", &[3, 0, 8]) {
//!             Ok(n) if n >= 0 => ExitStatus::Exited(0),
//!             _ => ExitStatus::Exited(1),
//!         },
//!     ))
//!     .build();
//! let plan = Plan::new().entry(PlanEntry {
//!     function: "read".into(),
//!     trigger: Trigger::on_call(1),
//!     action: FaultAction::return_value(-1).with_errno(5),
//! });
//! let job = fabric.submit(JobSpec::new("smoke", "reader", plan)).unwrap();
//! assert!(fabric.wait_idle(Duration::from_secs(30)));
//! let report = fabric.report(job).unwrap();
//! assert_eq!(report.coverage.executed, 1);
//! let reports = fabric.drain();
//! assert_eq!(reports.len(), 1);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric;
mod job;
mod scheduler;
mod server;
mod wire;

pub use fabric::{Fabric, FabricBuilder, FabricError, FabricHandle, DEFAULT_LEASE_BATCH, DEFAULT_LEASE_DEADLINE};
pub use job::{JobCoverage, JobEvent, JobEventKind, JobId, JobReport, JobSnapshot, JobSpec, JobState};
pub use server::{FabricClient, ServerGuard};
pub use wire::{escape, unescape, Request, Response, WireError, MAX_LINE_BYTES, MAX_REPLY_BYTES};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FabricHandle>();
        assert_send_sync::<JobSpec>();
        assert_send_sync::<JobSnapshot>();
        assert_send_sync::<JobReport>();
        assert_send_sync::<Request>();
        assert_send_sync::<Response>();
        fn assert_send<T: Send>() {}
        assert_send::<Fabric>();
        assert_send::<FabricClient>();
    }
}
