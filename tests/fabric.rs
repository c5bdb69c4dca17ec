//! Integration coverage for the campaign fabric: crash-safe lease handoff
//! under a mid-batch worker death, weighted fairness across unequal tenants,
//! the wire protocol over both transports, and checkpoint/restore of a
//! half-finished job into a fresh fabric.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lfi::controller::FnWorkload;
use lfi::explore::ExplorationStore;
use lfi::fabric::{Fabric, JobEventKind, JobSpec, JobState};
use lfi::runtime::{ExitStatus, NativeLibrary, Process};
use lfi::scenario::{FaultAction, Plan, PlanEntry, Trigger};

fn reader_process() -> Process {
    let mut process = Process::new();
    process.load(NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build());
    process
}

/// Calls `read` four times; any injected failure exits 1, clean runs exit 0.
fn read_four(process: &mut Process) -> ExitStatus {
    for _ in 0..4 {
        if process.call("read", &[3, 0, 8]).unwrap_or(-1) < 0 {
            return ExitStatus::Exited(1);
        }
    }
    ExitStatus::Exited(0)
}

/// `read` faults at every ordinal in `1..=ordinals` for each given errno:
/// `ordinals * errnos.len()` deterministic cells.
fn read_plan(ordinals: u64, errnos: &[i64]) -> Plan {
    let mut plan = Plan::new();
    for ordinal in 1..=ordinals {
        for &errno in errnos {
            plan = plan.entry(PlanEntry {
                function: "read".into(),
                trigger: Trigger::on_call(ordinal),
                action: FaultAction::return_value(-1).with_errno(errno),
            });
        }
    }
    plan
}

/// The named reader workload, with a panic trap: the `runs`-th workload run
/// panics (once) while `armed` — the fabric's crash boundary sees a worker
/// die mid-lease.
fn flaky_reader(
    armed: bool,
    panic_at: usize,
) -> FnWorkload<impl Fn() -> Process + Send + Sync, impl Fn(&mut Process) -> ExitStatus + Send + Sync> {
    let armed = Arc::new(AtomicBool::new(armed));
    let runs = Arc::new(AtomicUsize::new(0));
    FnWorkload::new("flaky-reader", reader_process, move |process: &mut Process| {
        let n = runs.fetch_add(1, Ordering::SeqCst);
        if n == panic_at && armed.swap(false, Ordering::SeqCst) {
            panic!("simulated worker death mid-lease");
        }
        read_four(process)
    })
}

#[test]
fn killed_worker_loses_no_cell_and_double_counts_none() {
    // 12 cells in leases of 4; the 6th workload run (inside the second
    // lease) kills its worker.  The lease goes unacked, its cells return to
    // the frontier, and the job still completes.
    let run_to_completion = |armed: bool| {
        let fabric = Fabric::builder().workers(1).lease_batch(4).register(flaky_reader(armed, 5)).build();
        let job = fabric
            .submit(JobSpec::new("handoff", "flaky-reader", read_plan(4, &[5, 9, 11])))
            .expect("workload registered");
        assert_eq!(fabric.wait_job(job, Duration::from_secs(60)), Some(JobState::Done));
        let snapshot = fabric.status(job).expect("job exists");
        let report = fabric.report(job).expect("job exists");
        let checkpoint = fabric.checkpoint(job).expect("job exists");
        drop(fabric);
        (snapshot, report, checkpoint.to_xml())
    };

    let (killed_snapshot, killed_report, killed_xml) = run_to_completion(true);
    let (clean_snapshot, clean_report, clean_xml) = run_to_completion(false);

    // The interrupted run really was interrupted...
    assert!(killed_snapshot.requeued >= 1, "the dead worker's lease was requeued");
    assert_eq!(clean_snapshot.requeued, 0);
    assert!(killed_snapshot.progress.started > clean_snapshot.progress.started, "requeued cells re-ran");

    // ...yet no cell was lost or double-counted: coverage, clusters and the
    // serialized checkpoint are byte-identical to the uninterrupted run.
    assert_eq!(killed_report.coverage.universe, 12);
    assert_eq!(killed_report.coverage.executed, 12);
    assert_eq!(killed_report.coverage.triggered, 12);
    assert_eq!(killed_report.coverage.failures, 12);
    assert_eq!(killed_report, clean_report);
    assert_eq!(killed_xml, clean_xml);
}

#[test]
fn small_tenants_are_not_starved_by_large_ones() {
    // A 1000-cell sweep is submitted first and would monopolize a naive
    // FIFO fleet; deficit scheduling interleaves the 10-cell smoke job.
    let fabric = Fabric::builder()
        .workers(2)
        .register(FnWorkload::new("reader", reader_process, read_four))
        .build();
    let big = fabric
        .submit(JobSpec::new("sweep", "reader", read_plan(250, &[5, 9, 11, 22])))
        .expect("workload registered");
    let small = fabric
        .submit(JobSpec::new("smoke", "reader", read_plan(10, &[5])))
        .expect("workload registered");

    assert_eq!(fabric.wait_job(small, Duration::from_secs(60)), Some(JobState::Done));
    let big_progress = fabric.status(big).expect("job exists").progress;
    assert!(
        big_progress.finished < 500,
        "the small job finished while the big one was at {}/1000 — fair shares, not FIFO",
        big_progress.finished
    );

    // No need to run the sweep to the end: cancel is part of the contract.
    assert_eq!(fabric.cancel(big), Some(JobState::Cancelled));
    assert!(fabric.wait_idle(Duration::from_secs(60)));
    let report = fabric.report(big).expect("job exists");
    assert_eq!(report.state, JobState::Cancelled);
    assert_eq!(report.coverage.executed + report.coverage.skipped, 1000, "every cell accounted for");
}

#[test]
fn wire_protocol_round_trips_over_duplex_and_tcp() {
    let fabric = Fabric::builder()
        .workers(1)
        .register(FnWorkload::new("reader", reader_process, read_four))
        .build();

    // In-process duplex transport.
    let mut duplex = fabric.connect();
    duplex.ping().expect("pong");
    let job = duplex
        .submit(JobSpec::new("wired", "reader", read_plan(2, &[5])))
        .expect("submit over the wire");
    assert_eq!(fabric.wait_job(job, Duration::from_secs(60)), Some(JobState::Done));
    let status = duplex.status(job).expect("status over the wire");
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.progress.finished, 2);
    assert_eq!(duplex.status(job).expect("snapshots are stable"), fabric.status(job).expect("job exists"));
    let (next, events) = duplex.events(job, 0, 64).expect("events over the wire");
    assert_eq!(next, events.len() as u64, "dense sequence from 0");
    assert!(events.iter().any(|e| matches!(e.kind, JobEventKind::State(JobState::Done))));
    assert!(events.iter().any(|e| matches!(&e.kind, JobEventKind::Finished { injections: 1, .. })));
    let checkpoint = duplex.checkpoint(job).expect("checkpoint over the wire");
    assert_eq!(checkpoint.to_xml(), fabric.checkpoint(job).expect("job exists").to_xml());
    let listed = duplex.jobs().expect("job listing");
    assert_eq!(listed, vec![(job, "wired".to_owned(), JobState::Done)]);

    // Plain TCP, same protocol.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let guard = fabric.serve_tcp(listener).expect("server thread");
    let mut tcp = lfi::fabric::FabricClient::tcp(guard.addr()).expect("connect");
    tcp.ping().expect("pong over TCP");
    assert!(tcp.submit(JobSpec::new("nope", "unregistered", Plan::new())).is_err(), "unknown workload is an error");
    let second = tcp
        .submit(JobSpec::new("tcp-job", "reader", read_plan(1, &[5])))
        .expect("submit over TCP");
    assert_ne!(second, job, "ids are never reused");
    assert_eq!(tcp.cancel(second).map(|s| s.is_terminal()), Ok(true), "cancel lands before or after execution");
    tcp.drain().expect("drain over TCP");
    assert!(fabric.is_draining());
    guard.stop();
    let reports = fabric.drain();
    assert_eq!(reports.len(), 2);
}

#[test]
fn tcp_request_line_longer_than_the_cap_is_answered_with_error() {
    use std::io::{BufRead, BufReader, Write};

    let fabric = Fabric::builder().workers(0).build();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let guard = fabric.serve_tcp(listener).expect("server thread");

    // One byte more than the cap, and no newline anywhere.
    let mut stream = std::net::TcpStream::connect(guard.addr()).expect("connect");
    // A server that kept buffering would never answer; fail instead of hanging.
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let chunk = vec![b'a'; 1 << 16];
    let mut remaining = lfi::fabric::MAX_LINE_BYTES + 1;
    while remaining > 0 {
        let n = remaining.min(chunk.len());
        stream.write_all(&chunk[..n]).expect("the server keeps reading up to the cap");
        remaining -= n;
    }
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("a reply line");
    assert!(reply.starts_with("error message="), "over-long line answered with error, got {reply:?}");
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).expect("orderly close"), 0, "the connection is closed after the error");

    // The server itself keeps serving.
    let mut client = lfi::fabric::FabricClient::tcp(guard.addr()).expect("connect again");
    client.ping().expect("pong after the over-long line");
}

#[test]
fn journaled_job_survives_a_kill_and_recovers_byte_identically() {
    let reader = || FnWorkload::new("reader", reader_process, read_four);
    let dir = std::env::temp_dir().join(format!("lfi-fabric-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("resumable.journal");
    // 40 cells in leases of 1, so the journal accumulates enough acks to
    // cross its compaction threshold while the job completes.
    let spec = || JobSpec::new("resumable", "reader", read_plan(10, &[5, 9, 11, 22])).lease_batch(1);

    // Live fabric: journal from submission, make partial progress, quiesce,
    // then "die" without draining or checkpointing by hand.
    let first = Fabric::builder().workers(1).register(reader()).build();
    let job = first.submit(spec()).expect("workload registered");
    first.journal_job(job, &path).expect("journal attaches");
    while first.status(job).expect("job exists").progress.finished < 6 {
        std::thread::sleep(Duration::from_millis(2));
    }
    first.pause(job);
    assert!(first.wait_idle(Duration::from_secs(60)), "outstanding leases settle after pause");
    assert_eq!(first.journal_error(job), None);
    let live = first.checkpoint(job).expect("job exists");
    let done_before_kill = first.status(job).expect("job exists").progress.finished;
    assert!(done_before_kill < 40, "the kill lands mid-run");
    drop(first);

    // An inert fabric (zero workers) recovers the journal without running
    // anything: the recovered state is byte-identical to the last durable
    // checkpoint of the dead fabric.
    let inert = Fabric::builder().workers(0).register(reader()).build();
    let recovered = inert.recover_job(spec(), &path).expect("journal recovers");
    let store = inert.checkpoint(recovered).expect("job exists");
    assert_eq!(store, live);
    assert_eq!(store.to_xml(), live.to_xml());
    assert_eq!(
        inert.status(recovered).expect("job exists").progress.finished,
        done_before_kill,
        "every journaled ack replayed, nothing else"
    );
    drop(inert);

    // A working fabric recovers the same journal and finishes the job,
    // journaling (and compacting) as it goes.
    let second = Fabric::builder().workers(2).register(reader()).build();
    let resumed = second.recover_job(spec(), &path).expect("journal recovers");
    assert_eq!(second.wait_job(resumed, Duration::from_secs(60)), Some(JobState::Done));
    assert_eq!(second.journal_error(resumed), None);
    let report = second.report(resumed).expect("job exists");
    assert_eq!(report.coverage.executed, 40, "union of pre-kill and post-recovery work");
    let final_xml = second.checkpoint(resumed).expect("job exists").to_xml();
    drop(second);

    // The journal now holds the finished job; a third recovery and a clean
    // uninterrupted run both reproduce the same final checkpoint bytes.
    let third = Fabric::builder().workers(0).register(reader()).build();
    let done = third.recover_job(spec(), &path).expect("finished journal recovers");
    assert_eq!(third.status(done).expect("job exists").state, JobState::Done);
    assert_eq!(third.checkpoint(done).expect("job exists").to_xml(), final_xml);
    drop(third);

    let clean = Fabric::builder().workers(1).register(reader()).build();
    let clean_job = clean.submit(spec()).expect("workload registered");
    assert_eq!(clean.wait_job(clean_job, Duration::from_secs(60)), Some(JobState::Done));
    assert_eq!(clean.checkpoint(clean_job).expect("job exists").to_xml(), final_xml);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_restores_into_a_fresh_fabric() {
    // Run a job partially, pause it, checkpoint it, and hand the XML to a
    // second fabric — the union of both runs covers every cell exactly once.
    let spec = || JobSpec::new("resumable", "reader", read_plan(4, &[5, 9, 11])).lease_batch(4);

    let first = Fabric::builder()
        .workers(1)
        .register(FnWorkload::new("reader", reader_process, read_four))
        .build();
    let job = first.submit(spec()).expect("workload registered");
    assert!(first.pause(job).is_some());
    assert!(first.wait_idle(Duration::from_secs(60)), "outstanding leases settle after pause");
    let parked = first.status(job).expect("job exists");
    assert!(!parked.state.is_terminal(), "paused, not finished");
    assert_eq!(parked.outstanding, 0);
    let xml = first.checkpoint(job).expect("job exists").to_xml();
    drop(first);

    let store = ExplorationStore::from_xml(&xml).expect("checkpoint parses");
    assert_eq!(store.executed.len() + store.frontier.len(), 12, "the checkpoint partitions the universe");

    let second = Fabric::builder()
        .workers(2)
        .register(FnWorkload::new("reader", reader_process, read_four))
        .build();
    let restored = second.submit_restored(spec(), &store).expect("workload registered");
    assert_eq!(second.wait_job(restored, Duration::from_secs(60)), Some(JobState::Done));
    let report = second.report(restored).expect("job exists");
    assert_eq!(report.coverage.universe, 12);
    assert_eq!(report.coverage.executed, 12, "base + resumed work covers every cell");
    assert_eq!(report.coverage.skipped, 0);
    let resumed = second.status(restored).expect("job exists");
    assert_eq!(resumed.progress.finished + store.executed.len(), 12, "no cell ran twice");

    // The stitched-together checkpoint equals one from an uninterrupted run.
    let final_xml = second.checkpoint(restored).expect("job exists").to_xml();
    drop(second);
    let clean = Fabric::builder()
        .workers(1)
        .register(FnWorkload::new("reader", reader_process, read_four))
        .build();
    let clean_job = clean.submit(spec()).expect("workload registered");
    assert_eq!(clean.wait_job(clean_job, Duration::from_secs(60)), Some(JobState::Done));
    assert_eq!(clean.checkpoint(clean_job).expect("job exists").to_xml(), final_xml);
}
