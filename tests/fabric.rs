//! Integration coverage for the campaign fabric: crash-safe lease handoff
//! under a mid-batch worker death, weighted fairness across unequal tenants,
//! the wire protocol over both transports (with capped line lengths and
//! fuzzed parsers), and checkpoint/restore of a half-finished job into a
//! fresh fabric.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lfi::controller::{FnWorkload, ProgressSnapshot};
use lfi::explore::OutcomeClass;
use lfi::fabric::{
    Fabric, JobEvent, JobEventKind, JobId, JobSnapshot, JobSpec, JobState, Request, Response, WireError,
};
use lfi::runtime::{ExitStatus, NativeLibrary, Process, Signal};
use lfi::scenario::{FaultAction, Plan, PlanEntry, Trigger};
use lfi::store::{decode_exploration_store, encode_exploration_store};
use proptest::prelude::*;

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

/// The `reader` workload whose runs from the `from`-th on (counting from 0)
/// wait until `gate` opens, so a test can pause a job mid-run by
/// construction however fast the worker gets through its leases.
fn gated_reader(
    gate: &Arc<AtomicBool>,
    from: usize,
) -> FnWorkload<impl Fn() -> Process + Send + Sync, impl Fn(&mut Process) -> ExitStatus + Send + Sync> {
    let (gate, runs) = (Arc::clone(gate), AtomicUsize::new(0));
    FnWorkload::new("reader", reader_process, move |process: &mut Process| {
        if runs.fetch_add(1, Ordering::SeqCst) >= from {
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
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
        (snapshot, report, encode_exploration_store(&checkpoint))
    };

    let (killed_snapshot, killed_report, killed_bytes) = run_to_completion(true);
    let (clean_snapshot, clean_report, clean_bytes) = run_to_completion(false);

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
    assert_eq!(killed_bytes, clean_bytes);
}

#[test]
fn leases_run_on_the_fabric_workers_themselves() {
    let threads = Arc::new(std::sync::Mutex::new(Vec::new()));
    let (in_setup, in_run) = (Arc::clone(&threads), Arc::clone(&threads));
    let record = |threads: &std::sync::Mutex<Vec<Option<String>>>| {
        threads.lock().unwrap().push(std::thread::current().name().map(str::to_owned));
    };
    let workload = FnWorkload::new(
        "placed-reader",
        move || {
            record(&in_setup);
            reader_process()
        },
        move |process: &mut Process| {
            record(&in_run);
            read_four(process)
        },
    );
    let fabric = Fabric::builder().workers(2).lease_batch(3).register(workload).build();
    let job = fabric
        .submit(JobSpec::new("placed", "placed-reader", read_plan(4, &[5, 9])))
        .expect("registered");
    assert_eq!(fabric.wait_job(job, Duration::from_secs(60)), Some(JobState::Done));
    drop(fabric);
    let threads = threads.lock().unwrap();
    assert_eq!(threads.len(), 16, "setup and run of 8 cells");
    for name in threads.iter() {
        let name = name.as_deref().unwrap_or_default();
        let worker = name.strip_prefix("lfi-fabric-").unwrap_or_default();
        assert!(!worker.is_empty() && worker.bytes().all(|b| b.is_ascii_digit()), "a lease case ran on {name:?}");
    }
}

#[test]
fn small_tenants_are_not_starved_by_large_ones() {
    // A 1000-cell sweep is submitted first and would monopolize a naive
    // FIFO fleet; deficit scheduling interleaves the 10-cell smoke job.
    // Sweep cases start once both jobs are queued, and each smoke case
    // records how many sweep cases ran before it, so the check reads the
    // schedule itself: a status read after `wait_job` returns can lag the
    // fleet by however long two busy workers keep this thread off the CPU.
    // Sweep cases past the 500th wait for the cancel, so it lands mid-run.
    let (queued, cancelled) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
    let sweep_cases = Arc::new(AtomicUsize::new(0));
    let sweep_before_smoke = Arc::new(AtomicUsize::new(0));
    let sweep_reader = {
        let (queued, cancelled, sweep_cases) = (Arc::clone(&queued), Arc::clone(&cancelled), Arc::clone(&sweep_cases));
        FnWorkload::new("reader", reader_process, move |process: &mut Process| {
            // Bounded, so a failed assertion below cannot wedge the fleet.
            let wait_for = |gate: &AtomicBool| {
                let give_up = Instant::now() + Duration::from_secs(60);
                while !gate.load(Ordering::Acquire) && Instant::now() < give_up {
                    std::thread::yield_now();
                }
            };
            wait_for(&queued);
            if sweep_cases.fetch_add(1, Ordering::SeqCst) >= 500 {
                wait_for(&cancelled);
            }
            read_four(process)
        })
    };
    let smoke_reader = {
        let sweep_before_smoke = Arc::clone(&sweep_before_smoke);
        FnWorkload::new("smoke-reader", reader_process, move |process: &mut Process| {
            sweep_before_smoke.fetch_max(sweep_cases.load(Ordering::SeqCst), Ordering::SeqCst);
            read_four(process)
        })
    };
    let fabric = Fabric::builder().workers(2).register(sweep_reader).register(smoke_reader).build();
    let big = fabric
        .submit(JobSpec::new("sweep", "reader", read_plan(250, &[5, 9, 11, 22])))
        .expect("workload registered");
    let small = fabric
        .submit(JobSpec::new("smoke", "smoke-reader", read_plan(10, &[5])))
        .expect("workload registered");
    queued.store(true, Ordering::Release);

    assert_eq!(fabric.wait_job(small, Duration::from_secs(60)), Some(JobState::Done));
    let sweep_done = sweep_before_smoke.load(Ordering::SeqCst);
    assert!(
        sweep_done < 500,
        "the small job finished while the big one was at {sweep_done}/1000 — fair shares, not FIFO"
    );

    // No need to run the sweep to the end: cancel is part of the contract.
    assert_eq!(fabric.cancel(big), Some(JobState::Cancelled));
    cancelled.store(true, Ordering::Release);
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
    assert_eq!(
        encode_exploration_store(&checkpoint),
        encode_exploration_store(&fabric.checkpoint(job).expect("job exists"))
    );
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
fn tcp_reply_line_longer_than_the_cap_is_a_wire_error() {
    use std::io::{BufRead, BufReader, Write};

    // A hostile peer: read one request, then stream one byte more than the
    // reply cap with no newline anywhere.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("client connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut request = String::new();
        reader.read_line(&mut request).expect("one request line");
        let mut writer = stream;
        let chunk = vec![b'a'; 1 << 16];
        let mut remaining = lfi::fabric::MAX_REPLY_BYTES + 1;
        while remaining > 0 {
            let n = remaining.min(chunk.len());
            // The client may close once it has read past the cap.
            if writer.write_all(&chunk[..n]).is_err() {
                break;
            }
            remaining -= n;
        }
    });

    let mut client = lfi::fabric::FabricClient::tcp(addr).expect("connect");
    let error = client.ping().expect_err("an over-long reply is refused");
    assert!(matches!(error, WireError::Malformed { .. }), "got {error:?}");
    assert!(error.to_string().contains("exceeds"), "got {error}");
    // The client closed the connection rather than resynchronise mid-line.
    assert!(matches!(client.ping().expect_err("connection is closed"), WireError::Transport { .. }));
    peer.join().expect("peer thread");
}

#[test]
fn checkpoint_replies_that_are_not_a_store_are_malformed() {
    use std::io::{BufRead, BufReader, Write};

    // A hostile peer answers each checkpoint request with damaged store
    // bytes: odd-length hex, a non-hex digit, and well-formed hex of bytes
    // the store codec rejects.
    let replies = ["checkpoint job=1 store=abc", "checkpoint job=1 store=zz", "checkpoint job=1 store=deadbeef"];
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("client connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        for reply in replies {
            let mut request = String::new();
            reader.read_line(&mut request).expect("one request line");
            assert_eq!(request.trim_end(), "checkpoint job=1");
            writer.write_all(format!("{reply}\n").as_bytes()).expect("reply");
        }
    });

    let mut client = lfi::fabric::FabricClient::tcp(addr).expect("connect");
    for reply in replies {
        let error = client.checkpoint(JobId(1)).expect_err(reply);
        assert!(matches!(error, WireError::Malformed { .. }), "{reply}: got {error:?}");
    }
    peer.join().expect("peer thread");
}

#[test]
fn submit_line_with_a_deeply_nested_plan_is_malformed() {
    // A plan document nested 200,000 levels deep fits well inside a submit
    // line; parsing it must fail cleanly on a 2 MiB stack, not abort.
    let plan = "<plan>".to_owned() + &"<a>".repeat(200_000) + &"</a>".repeat(200_000) + "</plan>";
    let line = format!("submit name=deep workload=reader plan={}", lfi::fabric::escape(&plan));
    assert!(line.len() <= lfi::fabric::MAX_LINE_BYTES);
    let fabric = Fabric::builder().workers(0).build();
    let handle = fabric.handle();
    let (parsed, reply) = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || (Request::parse(&line), handle.handle_line(&line)))
        .expect("thread spawns")
        .join()
        .expect("parsing returns instead of overflowing the stack");
    let error = parsed.expect_err("a too-deep plan is refused");
    assert!(matches!(error, WireError::Malformed { .. }), "got {error:?}");
    assert!(error.to_string().contains("deeper than"), "got {error}");
    assert!(reply.starts_with("error message="), "got {reply:?}");
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
    // then "die" without draining or checkpointing by hand.  Cases after
    // the sixth wait until the job is paused, so the pause lands mid-run.
    let gate = Arc::new(AtomicBool::new(false));
    let first = Fabric::builder().workers(1).register(gated_reader(&gate, 6)).build();
    let job = first.submit(spec()).expect("workload registered");
    first.journal_job(job, &path).expect("journal attaches");
    while first.status(job).expect("job exists").progress.finished < 6 {
        std::thread::sleep(Duration::from_millis(2));
    }
    first.pause(job);
    gate.store(true, Ordering::Release);
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
    assert_eq!(encode_exploration_store(&store), encode_exploration_store(&live));
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
    let final_bytes = encode_exploration_store(&second.checkpoint(resumed).expect("job exists"));
    drop(second);

    // The journal now holds the finished job; a third recovery and a clean
    // uninterrupted run both reproduce the same final checkpoint bytes.
    let third = Fabric::builder().workers(0).register(reader()).build();
    let done = third.recover_job(spec(), &path).expect("finished journal recovers");
    assert_eq!(third.status(done).expect("job exists").state, JobState::Done);
    assert_eq!(encode_exploration_store(&third.checkpoint(done).expect("job exists")), final_bytes);
    drop(third);

    let clean = Fabric::builder().workers(1).register(reader()).build();
    let clean_job = clean.submit(spec()).expect("workload registered");
    assert_eq!(clean.wait_job(clean_job, Duration::from_secs(60)), Some(JobState::Done));
    assert_eq!(encode_exploration_store(&clean.checkpoint(clean_job).expect("job exists")), final_bytes);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_restores_into_a_fresh_fabric() {
    // Run a job partially, pause it, checkpoint it, and hand the encoded
    // store to a second fabric — the union of both runs covers every cell
    // exactly once.
    let spec = || JobSpec::new("resumable", "reader", read_plan(4, &[5, 9, 11])).lease_batch(4);

    // Every case waits until the job is paused, so the pause lands mid-run.
    let gate = Arc::new(AtomicBool::new(false));
    let first = Fabric::builder().workers(1).register(gated_reader(&gate, 0)).build();
    let job = first.submit(spec()).expect("workload registered");
    assert!(first.pause(job).is_some());
    gate.store(true, Ordering::Release);
    assert!(first.wait_idle(Duration::from_secs(60)), "outstanding leases settle after pause");
    let parked = first.status(job).expect("job exists");
    assert!(!parked.state.is_terminal(), "paused, not finished");
    assert_eq!(parked.outstanding, 0);
    let bytes = encode_exploration_store(&first.checkpoint(job).expect("job exists"));
    drop(first);

    let store = decode_exploration_store(&bytes).expect("checkpoint decodes");
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
    let final_bytes = encode_exploration_store(&second.checkpoint(restored).expect("job exists"));
    drop(second);
    let clean = Fabric::builder()
        .workers(1)
        .register(FnWorkload::new("reader", reader_process, read_four))
        .build();
    let clean_job = clean.submit(spec()).expect("workload registered");
    assert_eq!(clean.wait_job(clean_job, Duration::from_secs(60)), Some(JobState::Done));
    assert_eq!(encode_exploration_store(&clean.checkpoint(clean_job).expect("job exists")), final_bytes);
}

// ---------------------------------------------------------------------------
// Wire fuzzing: hostile lines never panic the parsers, and every variant
// survives encode -> parse.
// ---------------------------------------------------------------------------

const VERBS: [&str; 15] = [
    "ping",
    "jobs",
    "submit",
    "status",
    "events",
    "cancel",
    "pause",
    "resume",
    "checkpoint",
    "drain",
    "pong",
    "submitted",
    "state",
    "draining",
    "error",
];
const STATES: [JobState; 6] = [
    JobState::Queued,
    JobState::Running,
    JobState::Paused,
    JobState::Cancelled,
    JobState::Done,
    JobState::Failed,
];

/// Text over U+0000..U+07FF: every ASCII structural and control character
/// of the protocol plus one- and two-byte UTF-8.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x800, 0..24)
        .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
}

/// Arbitrary lines, half of them led by a real verb so parsing gets past
/// the verb dispatch.
fn arb_line() -> impl Strategy<Value = String> {
    let led = (0..VERBS.len(), arb_text()).prop_map(|(verb, tail)| format!("{} {tail}", VERBS[verb]));
    prop_oneof![arb_text(), led]
}

fn arb_job() -> impl Strategy<Value = JobId> {
    (0u64..1_000).prop_map(JobId)
}

fn arb_state() -> impl Strategy<Value = JobState> {
    (0..STATES.len()).prop_map(|state| STATES[state])
}

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    let entry =
        ("[a-z_][a-z0-9_]{0,12}", 1u64..50, -64i64..64, 1i64..64).prop_map(|(function, call, retval, errno)| {
            PlanEntry {
                function,
                trigger: Trigger::on_call(call),
                action: FaultAction::return_value(retval).with_errno(errno),
            }
        });
    let plan = (proptest::collection::vec(entry, 0..4), proptest::option::of(any::<u64>()))
        .prop_map(|(entries, seed)| Plan { entries, seed });
    let knobs = (1u32..10, proptest::option::of(1usize..64), any::<bool>(), proptest::option::of(0usize..1_000));
    (arb_text(), arb_text(), plan, knobs).prop_map(
        |(name, workload, plan, (weight, lease_batch, halt_on_crash, max_cases))| JobSpec {
            lease_batch,
            halt_on_crash,
            max_cases,
            ..JobSpec::new(name, workload, plan).weight(weight)
        },
    )
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Jobs),
        arb_spec().prop_map(|spec| Request::Submit { spec }),
        arb_job().prop_map(|job| Request::Status { job }),
        (arb_job(), any::<u64>(), 0usize..10_000).prop_map(|(job, after, max)| Request::Events { job, after, max }),
        arb_job().prop_map(|job| Request::Cancel { job }),
        arb_job().prop_map(|job| Request::Pause { job }),
        arb_job().prop_map(|job| Request::Resume { job }),
        arb_job().prop_map(|job| Request::Checkpoint { job }),
        Just(Request::Drain),
    ]
}

fn arb_event() -> impl Strategy<Value = JobEvent> {
    let outcome = prop_oneof![
        Just(OutcomeClass::Success),
        (-300i32..300).prop_map(OutcomeClass::Failure),
        Just(OutcomeClass::Crash(Signal::Abort)),
        Just(OutcomeClass::Crash(Signal::Segv)),
    ];
    let optional = || proptest::option::of(any::<i64>());
    let kind = prop_oneof![
        arb_state().prop_map(JobEventKind::State),
        arb_text().prop_map(|case| JobEventKind::Started { case }),
        (arb_text(), arb_text(), optional(), optional())
            .prop_map(|(case, function, retval, errno)| JobEventKind::Injection { case, function, retval, errno }),
        (arb_text(), outcome, 0usize..100).prop_map(|(case, outcome, injections)| JobEventKind::Finished {
            case,
            outcome,
            injections
        }),
        arb_text().prop_map(|case| JobEventKind::Skipped { case }),
        (0usize..100).prop_map(|cells| JobEventKind::Requeued { cells }),
    ];
    (any::<u64>(), kind).prop_map(|(seq, kind)| JobEvent { seq, kind })
}

fn arb_snapshot() -> impl Strategy<Value = JobSnapshot> {
    let count = || 0usize..1_000;
    let progress =
        (count(), count(), count(), count(), count()).prop_map(|(started, finished, skipped, crashes, injections)| {
            ProgressSnapshot { started, finished, skipped, crashes, injections }
        });
    ((arb_job(), arb_text(), arb_text(), arb_state()), (count(), count(), count()), progress, any::<u64>(), count())
        .prop_map(|((id, name, workload, state), (cases, pending, outstanding), progress, requeued, clusters)| {
            JobSnapshot { id, name, workload, state, cases, pending, outstanding, progress, requeued, clusters }
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong),
        proptest::collection::vec((arb_job(), arb_text(), arb_state()), 0..4).prop_map(|jobs| Response::Jobs { jobs }),
        arb_job().prop_map(|job| Response::Submitted { job }),
        arb_snapshot().prop_map(|snapshot| Response::Status { snapshot }),
        (arb_job(), any::<u64>(), proptest::collection::vec(arb_event(), 0..6))
            .prop_map(|(job, next, events)| Response::Events { job, next, events }),
        (arb_job(), arb_state()).prop_map(|(job, state)| Response::StateChanged { job, state }),
        (arb_job(), proptest::collection::vec(0u8..=255, 0..64))
            .prop_map(|(job, store)| Response::Checkpoint { job, store }),
        Just(Response::Draining),
        arb_text().prop_map(|message| Response::Error { message }),
    ]
}

/// Parses `line` both ways; a failure must be a typed `Malformed` error
/// whose offset lies within the line.
fn parses_or_is_malformed(line: &str) {
    for error in [Request::parse(line).err(), Response::parse(line).err()].into_iter().flatten() {
        assert!(matches!(error, WireError::Malformed { offset, .. } if offset <= line.len()), "{line:?}: {error:?}");
    }
}

/// Checks every prefix of a valid line, and the line with the byte at `at`
/// XOR-ed by `mask`: each parses or fails as `Malformed`.
fn survives_damage(line: &str, at: prop::sample::Index, mask: u8) {
    assert!(!line.contains('\n'), "{line:?}");
    let bytes = line.as_bytes();
    for cut in 0..bytes.len() {
        parses_or_is_malformed(&String::from_utf8_lossy(&bytes[..cut]));
    }
    let mut flipped = bytes.to_vec();
    flipped[at.index(bytes.len())] ^= mask;
    parses_or_is_malformed(&String::from_utf8_lossy(&flipped));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary lines never panic either parser.
    #[test]
    fn wire_parsers_never_panic_on_arbitrary_lines(line in arb_line()) {
        parses_or_is_malformed(&line);
    }

    /// Every request variant round-trips, and damaged encodings never panic.
    #[test]
    fn requests_round_trip_and_survive_damage(request in arb_request(), at in any::<prop::sample::Index>(), mask in 1u8..=255) {
        let line = request.encode();
        prop_assert_eq!(Request::parse(&line).unwrap(), request);
        survives_damage(&line, at, mask);
    }

    /// Every response variant round-trips, and damaged encodings never panic.
    #[test]
    fn responses_round_trip_and_survive_damage(response in arb_response(), at in any::<prop::sample::Index>(), mask in 1u8..=255) {
        let line = response.encode();
        prop_assert_eq!(Response::parse(&line).unwrap(), response);
        survives_damage(&line, at, mask);
    }
}
