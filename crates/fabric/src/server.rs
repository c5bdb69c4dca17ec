//! Serving the wire protocol: request dispatch on a [`FabricHandle`], an
//! in-process duplex transport, a `std::net::TcpListener` front end, and
//! the [`FabricClient`] that speaks both.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use lfi_explore::ExplorationStore;

use crate::fabric::FabricHandle;
use crate::job::{JobEvent, JobId, JobSnapshot, JobSpec, JobState};
use crate::wire::{Request, Response, WireError, MAX_LINE_BYTES, MAX_REPLY_BYTES};

impl FabricHandle {
    /// Dispatches one parsed request against this fabric.
    ///
    /// ```
    /// use lfi_fabric::{Fabric, Request, Response};
    ///
    /// let fabric = Fabric::builder().workers(0).build();
    /// assert_eq!(fabric.handle().handle_request(Request::Ping), Response::Pong);
    /// ```
    pub fn handle_request(&self, request: Request) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Jobs => {
                Response::Jobs { jobs: self.jobs().into_iter().map(|job| (job.id, job.name, job.state)).collect() }
            }
            Request::Submit { spec } => match self.submit(spec) {
                Ok(job) => Response::Submitted { job },
                Err(error) => Response::Error { message: error.to_string() },
            },
            Request::Status { job } => match self.status(job) {
                Some(snapshot) => Response::Status { snapshot },
                None => Response::Error { message: format!("no job with id {job}") },
            },
            Request::Events { job, after, max } => match self.events(job, after, max.min(1024)) {
                Some((next, events)) => Response::Events { job, next, events },
                None => Response::Error { message: format!("no job with id {job}") },
            },
            Request::Cancel { job } => match self.cancel(job) {
                Some(state) => Response::StateChanged { job, state },
                None => Response::Error { message: format!("no job with id {job}") },
            },
            Request::Pause { job } => match self.pause(job) {
                Some(state) => Response::StateChanged { job, state },
                None => Response::Error { message: format!("no job with id {job}") },
            },
            Request::Resume { job } => match self.resume(job) {
                Some(state) => Response::StateChanged { job, state },
                None => Response::Error { message: format!("no job with id {job}") },
            },
            Request::Checkpoint { job } => match self.checkpoint(job) {
                Some(store) => Response::Checkpoint { job, store_xml: store.to_xml() },
                None => Response::Error { message: format!("no job with id {job}") },
            },
            Request::Drain => {
                self.begin_drain();
                Response::Draining
            }
        }
    }

    /// Parses one request line and renders the response line — the whole
    /// server side of the protocol in one call.  A malformed line becomes
    /// an `error` response, never a dropped connection.
    ///
    /// ```
    /// use lfi_fabric::Fabric;
    ///
    /// let fabric = Fabric::builder().workers(0).build();
    /// assert_eq!(fabric.handle().handle_line("ping\n"), "pong");
    /// assert!(fabric.handle().handle_line("warp").starts_with("error message="));
    /// ```
    pub fn handle_line(&self, line: &str) -> String {
        match Request::parse(line.trim_end()) {
            Ok(request) => self.handle_request(request),
            Err(error) => Response::Error { message: error.to_string() },
        }
        .encode()
    }

    /// Connects an in-process duplex client: a service thread owns the
    /// other end of a channel pair and answers until the client drops.
    ///
    /// ```
    /// use lfi_fabric::Fabric;
    ///
    /// let fabric = Fabric::builder().workers(0).build();
    /// let mut client = fabric.handle().connect();
    /// client.ping().unwrap();
    /// ```
    pub fn connect(&self) -> FabricClient {
        let (request_tx, request_rx) = std::sync::mpsc::channel::<String>();
        let (response_tx, response_rx) = std::sync::mpsc::channel::<String>();
        let handle = self.clone();
        std::thread::Builder::new()
            .name("lfi-fabric-duplex".into())
            .spawn(move || {
                while let Ok(line) = request_rx.recv() {
                    if response_tx.send(handle.handle_line(&line)).is_err() {
                        break;
                    }
                }
            })
            .expect("duplex service thread spawns");
        FabricClient { transport: Transport::Duplex { tx: request_tx, rx: response_rx } }
    }

    /// Serves the protocol over TCP: one accept loop thread, one thread
    /// per connection, newline-delimited requests until the peer closes.
    /// A request line longer than [`MAX_LINE_BYTES`] is answered with
    /// `error` and closes its connection.  Returns a guard that stops the
    /// accept loop when dropped.
    ///
    /// ```no_run
    /// use lfi_fabric::{Fabric, FabricClient};
    ///
    /// let fabric = Fabric::builder().build();
    /// let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    /// let guard = fabric.handle().serve_tcp(listener)?;
    /// let mut client = FabricClient::tcp(guard.addr()).expect("connects");
    /// client.ping().expect("server answers");
    /// # Ok::<(), std::io::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<ServerGuard> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_stop = Arc::clone(&stop);
        let accept_connections = Arc::clone(&connections);
        let handle = self.clone();
        let acceptor = std::thread::Builder::new()
            .name("lfi-fabric-accept".into())
            .spawn(move || {
                while !accept_stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let handle = handle.clone();
                            let worker = std::thread::Builder::new()
                                .name("lfi-fabric-conn".into())
                                .spawn(move || serve_connection(&handle, stream))
                                .expect("connection thread spawns");
                            let mut guard =
                                accept_connections.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                            guard.push(worker);
                        }
                        Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("accept thread spawns");
        Ok(ServerGuard { addr, stop, acceptor: Some(acceptor), connections })
    }
}

/// One TCP connection: newline-delimited requests answered in order.  No
/// request line may exceed [`MAX_LINE_BYTES`]: a longer one is answered with
/// `error` and ends the connection, so a client that never sends a newline
/// cannot grow the server's buffer without limit.
fn serve_connection(handle: &FabricHandle, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap tells an over-long line from one that fits.
        match reader.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let too_long = line.last() != Some(&b'\n') && line.len() > MAX_LINE_BYTES;
        let response = if too_long {
            Response::Error { message: format!("request line exceeds {MAX_LINE_BYTES} bytes") }.encode()
        } else {
            match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => handle.handle_line(text),
                Err(_) => Response::Error { message: "request line is not UTF-8".into() }.encode(),
            }
        };
        if writer.write_all(response.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
            break;
        }
        let _ = writer.flush();
        if too_long {
            break;
        }
    }
}

/// Keeps a [`FabricHandle::serve_tcp`] accept loop alive; dropping it
/// stops accepting and joins the server threads (connections must be
/// closed by their peers first).
///
/// ```no_run
/// use lfi_fabric::Fabric;
///
/// let fabric = Fabric::builder().build();
/// let guard = fabric.handle().serve_tcp(std::net::TcpListener::bind("127.0.0.1:0")?)?;
/// println!("serving on {}", guard.addr());
/// drop(guard); // stops accepting, joins the server threads
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct ServerGuard {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerGuard {
    /// The address the server is listening on (useful with port 0, where
    /// the OS picks the port and this is the only way to learn it).
    ///
    /// ```no_run
    /// # let fabric = lfi_fabric::Fabric::builder().build();
    /// # let guard = fabric.handle().serve_tcp(std::net::TcpListener::bind("127.0.0.1:0")?)?;
    /// let mut client = lfi_fabric::FabricClient::tcp(guard.addr()).expect("connects");
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop (idempotent; also done on drop).
    ///
    /// ```no_run
    /// # let fabric = lfi_fabric::Fabric::builder().build();
    /// # let guard = fabric.handle().serve_tcp(std::net::TcpListener::bind("127.0.0.1:0")?)?;
    /// guard.stop(); // new connections now refused; drop() joins the threads
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.stop();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let connections =
            std::mem::take(&mut *self.connections.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
        for connection in connections {
            let _ = connection.join();
        }
    }
}

impl std::fmt::Debug for ServerGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerGuard").field("addr", &self.addr).finish()
    }
}

enum Transport {
    Duplex {
        tx: Sender<String>,
        rx: Receiver<String>,
    },
    Tcp {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
}

/// A typed client for the wire protocol, over either transport.
///
/// An in-process duplex client exercises the full protocol without a
/// socket (an inert `workers(0)` fabric keeps the job deterministically
/// queued):
///
/// ```
/// use lfi_controller::FnWorkload;
/// use lfi_fabric::{Fabric, JobSpec, JobState};
/// use lfi_runtime::{ExitStatus, Process};
/// use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
///
/// let fabric = Fabric::builder()
///     .workers(0)
///     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
///     .build();
/// let plan = Plan::new().entry(PlanEntry {
///     function: "read".into(),
///     trigger: Trigger::on_call(1),
///     action: FaultAction::return_value(-1).with_errno(5),
/// });
///
/// let mut client = fabric.handle().connect();
/// let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
/// assert_eq!(client.status(job).unwrap().state, JobState::Queued);
/// ```
pub struct FabricClient {
    transport: Transport,
}

impl FabricClient {
    /// Connects over TCP.
    ///
    /// ```no_run
    /// # let fabric = lfi_fabric::Fabric::builder().build();
    /// # let guard = fabric.handle().serve_tcp(std::net::TcpListener::bind("127.0.0.1:0")?)?;
    /// let mut client = lfi_fabric::FabricClient::tcp(guard.addr())?;
    /// client.ping().expect("server answers");
    /// # Ok::<(), std::io::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn tcp(addr: SocketAddr) -> std::io::Result<FabricClient> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(FabricClient { transport: Transport::Tcp { reader, writer: stream } })
    }

    /// Sends one request and parses the response.  The typed wrappers
    /// below cover every verb; reach for this when driving the protocol
    /// generically.
    ///
    /// ```
    /// use lfi_fabric::{Fabric, Request, Response};
    ///
    /// let fabric = Fabric::builder().workers(0).build();
    /// let mut client = fabric.handle().connect();
    /// assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError::Transport`] when the connection drops,
    /// [`WireError::Malformed`] when the peer breaks the protocol.  A TCP
    /// reply longer than [`MAX_REPLY_BYTES`] is malformed and closes the
    /// connection, so later requests fail with [`WireError::Transport`].
    pub fn request(&mut self, request: &Request) -> Result<Response, WireError> {
        let line = request.encode();
        let reply = match &mut self.transport {
            Transport::Duplex { tx, rx } => {
                tx.send(line)
                    .map_err(|_| WireError::Transport { message: "duplex service gone".into() })?;
                rx.recv().map_err(|_| WireError::Transport { message: "duplex service gone".into() })?
            }
            Transport::Tcp { reader, writer } => {
                writer
                    .write_all(format!("{line}\n").as_bytes())
                    .map_err(|error| WireError::Transport { message: error.to_string() })?;
                let mut reply = Vec::new();
                // One byte past the cap tells an over-long reply from one that fits.
                let read = reader
                    .by_ref()
                    .take(MAX_REPLY_BYTES as u64 + 1)
                    .read_until(b'\n', &mut reply)
                    .map_err(|error| WireError::Transport { message: error.to_string() })?;
                if read == 0 {
                    return Err(WireError::Transport { message: "connection closed".into() });
                }
                if reply.last() != Some(&b'\n') && reply.len() > MAX_REPLY_BYTES {
                    let _ = writer.shutdown(Shutdown::Both);
                    return Err(WireError::malformed(format!("reply line exceeds {MAX_REPLY_BYTES} bytes")));
                }
                String::from_utf8(reply).map_err(|_| WireError::malformed("reply line is not UTF-8"))?
            }
        };
        Response::parse(reply.trim_end())
    }

    fn expect_error<T>(response: Response) -> Result<T, WireError> {
        match response {
            Response::Error { message } => Err(WireError::Malformed { message }),
            other => Err(WireError::malformed(format!("unexpected response {other:?}"))),
        }
    }

    /// `ping` → `pong`.
    ///
    /// ```
    /// let fabric = lfi_fabric::Fabric::builder().workers(0).build();
    /// fabric.handle().connect().ping().unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unexpected response.
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Self::expect_error(other),
        }
    }

    /// Submits a job and returns its id.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// assert!(client.submit(JobSpec::new("typo", "nope", Plan::new())).is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or a server-side error (e.g. an
    /// unknown workload name).
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, WireError> {
        match self.request(&Request::Submit { spec })? {
            Response::Submitted { job } => Ok(job),
            other => Self::expect_error(other),
        }
    }

    /// Lists every job as `(id, name, state)`.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// # let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// let jobs = client.jobs().unwrap();
    /// assert_eq!(jobs.len(), 1);
    /// assert_eq!(jobs[0].1, "smoke");
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unexpected response.
    pub fn jobs(&mut self) -> Result<Vec<(JobId, String, JobState)>, WireError> {
        match self.request(&Request::Jobs)? {
            Response::Jobs { jobs } => Ok(jobs),
            other => Self::expect_error(other),
        }
    }

    /// Snapshots one job.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// # let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// let snapshot = client.status(job).unwrap();
    /// assert_eq!(snapshot.cases, 1);
    /// assert_eq!(snapshot.progress.finished, 0);
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unknown job.
    pub fn status(&mut self, job: JobId) -> Result<JobSnapshot, WireError> {
        match self.request(&Request::Status { job })? {
            Response::Status { snapshot } => Ok(snapshot),
            other => Self::expect_error(other),
        }
    }

    /// Polls a job's event stream from the `after` cursor; returns the
    /// next cursor and the events.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// # let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// let (next, events) = client.events(job, 0, 64).unwrap();
    /// assert_eq!(next, events.len() as u64); // resume the poll from here
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unknown job.
    pub fn events(&mut self, job: JobId, after: u64, max: usize) -> Result<(u64, Vec<JobEvent>), WireError> {
        match self.request(&Request::Events { job, after, max })? {
            Response::Events { next, events, .. } => Ok((next, events)),
            other => Self::expect_error(other),
        }
    }

    /// Cancels a job; returns its state after the request.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// # use lfi_fabric::JobState;
    /// # let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// assert_eq!(client.cancel(job).unwrap(), JobState::Cancelled);
    /// assert_eq!(client.cancel(job).unwrap(), JobState::Cancelled); // idempotent
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unknown job.
    pub fn cancel(&mut self, job: JobId) -> Result<JobState, WireError> {
        match self.request(&Request::Cancel { job })? {
            Response::StateChanged { state, .. } => Ok(state),
            other => Self::expect_error(other),
        }
    }

    /// Pauses a job; returns its state after the request.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// # use lfi_fabric::JobState;
    /// # let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// assert_eq!(client.pause(job).unwrap(), JobState::Paused);
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unknown job.
    pub fn pause(&mut self, job: JobId) -> Result<JobState, WireError> {
        match self.request(&Request::Pause { job })? {
            Response::StateChanged { state, .. } => Ok(state),
            other => Self::expect_error(other),
        }
    }

    /// Resumes a job; returns its state after the request.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// # use lfi_fabric::JobState;
    /// # let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// client.pause(job).unwrap();
    /// assert_eq!(client.resume(job).unwrap(), JobState::Running);
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unknown job.
    pub fn resume(&mut self, job: JobId) -> Result<JobState, WireError> {
        match self.request(&Request::Resume { job })? {
            Response::StateChanged { state, .. } => Ok(state),
            other => Self::expect_error(other),
        }
    }

    /// Fetches a job's crash-safe checkpoint.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// # let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// let store = client.checkpoint(job).unwrap();
    /// assert_eq!(store.frontier.len(), 1); // the untouched cell survives the trip
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure, an unknown job, or a store
    /// document that does not parse.
    pub fn checkpoint(&mut self, job: JobId) -> Result<ExplorationStore, WireError> {
        match self.request(&Request::Checkpoint { job })? {
            Response::Checkpoint { store_xml, .. } => ExplorationStore::from_xml(&store_xml)
                .map_err(|error| WireError::malformed(format!("checkpoint is not store XML: {error}"))),
            other => Self::expect_error(other),
        }
    }

    /// Asks the fabric to drain.
    ///
    /// ```
    /// let fabric = lfi_fabric::Fabric::builder().workers(0).build();
    /// fabric.handle().connect().drain().unwrap();
    /// assert!(fabric.handle().is_draining());
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unexpected response.
    pub fn drain(&mut self) -> Result<(), WireError> {
        match self.request(&Request::Drain)? {
            Response::Draining => Ok(()),
            other => Self::expect_error(other),
        }
    }
}

impl std::fmt::Debug for FabricClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let transport = match &self.transport {
            Transport::Duplex { .. } => "duplex",
            Transport::Tcp { .. } => "tcp",
        };
        f.debug_struct("FabricClient").field("transport", &transport).finish()
    }
}
