//! The line-delimited wire protocol: one request per line, one response
//! per line, tokens as `key=value` pairs with percent-escaped values.
//!
//! Like the scenario XML dialect, encoding is hand-rolled and fully
//! round-trip tested.  The grammar is deliberately trivial to speak from
//! `netcat`:
//!
//! ```text
//! submit name=smoke workload=pidgin-login plan=%3Cplan%3E...%3C/plan%3E
//! submitted job=1
//! status job=1
//! status job=1 name=smoke workload=pidgin-login state=running ...
//! ```
//!
//! Escaped values never contain spaces, `=`, `;`, `,` or `:` — those are
//! the protocol's only structural characters, so splitting is unambiguous.

use std::fmt;

use lfi_explore::OutcomeClass;

use crate::job::{JobEvent, JobEventKind, JobId, JobSnapshot, JobSpec, JobState};
use lfi_scenario::Plan;

/// The longest request line, in bytes without its newline, a server reads.
///
/// A submit line carries its whole plan, escaped; the largest plans the
/// workspace generates — an exhaustive or a §6.1 random plan over the full
/// 1,535-function libc profile — encode to under 0.5 MiB, so 16 MiB leaves
/// room for plans thirty times that size while bounding what one client can
/// make a server buffer.  A longer line is answered with `error` and the
/// connection is closed.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// The longest reply line, in bytes without its newline, a
/// [`FabricClient`](crate::FabricClient) reads over TCP.
///
/// The largest reply is a `checkpoint`, which carries a job's whole
/// exploration store, escaped.  A job whose plan fills a
/// [`MAX_LINE_BYTES`] submit line checkpoints to about 4.6 times that line
/// (about 73 MiB) once every cell has crashed into a cluster of its own, so
/// 128 MiB leaves room for deeper crash stacks while bounding what one
/// server can make a client buffer.  A longer reply is a
/// [`WireError::Malformed`] and the client closes the connection.
pub const MAX_REPLY_BYTES: usize = 128 << 20;

/// A malformed request or response line.
///
/// ```
/// use lfi_fabric::{Request, WireError};
///
/// let error = Request::parse("warp job=1").unwrap_err();
/// assert!(matches!(error, WireError::Malformed { .. }));
/// assert!(error.to_string().contains("unknown request verb"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The line did not follow the protocol grammar.
    Malformed {
        /// What was wrong.
        message: String,
    },
    /// The transport failed (connection closed, I/O error).
    Transport {
        /// The underlying error, rendered.
        message: String,
    },
}

impl WireError {
    pub(crate) fn malformed(message: impl Into<String>) -> Self {
        WireError::Malformed { message: message.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Malformed { message } => write!(f, "malformed wire message: {message}"),
            WireError::Transport { message } => write!(f, "wire transport failed: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Percent-escapes a value: only ASCII alphanumerics, `-`, `_` and `.`
/// pass through, so the escaped form is free of every structural
/// character.
///
/// ```
/// assert_eq!(lfi_fabric::escape("login sweep"), "login%20sweep");
/// assert_eq!(lfi_fabric::escape("a=b;c"), "a%3Db%3Bc");
/// assert_eq!(lfi_fabric::escape("plain-1.2_ok"), "plain-1.2_ok");
/// ```
pub fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for byte in value.bytes() {
        if byte.is_ascii_alphanumeric() || matches!(byte, b'-' | b'_' | b'.') {
            out.push(byte as char);
        } else {
            out.push_str(&format!("%{byte:02X}"));
        }
    }
    out
}

/// Reverses [`escape`].
///
/// ```
/// assert_eq!(lfi_fabric::unescape("login%20sweep").unwrap(), "login sweep");
/// assert!(lfi_fabric::unescape("%4").is_err()); // truncated escape
/// ```
///
/// # Errors
///
/// [`WireError::Malformed`] on a truncated or non-hex `%` sequence, or
/// invalid UTF-8 after unescaping.
pub fn unescape(value: &str) -> Result<String, WireError> {
    let mut out = Vec::with_capacity(value.len());
    let bytes = value.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .and_then(|pair| std::str::from_utf8(pair).ok())
                .and_then(|pair| u8::from_str_radix(pair, 16).ok())
                .ok_or_else(|| WireError::malformed(format!("bad escape in {value:?}")))?;
            out.push(hex);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| WireError::malformed("escape decodes to invalid UTF-8"))
}

/// A request line, parsed.
///
/// Every request round-trips through its wire line:
///
/// ```
/// use lfi_fabric::{JobId, Request};
///
/// let request = Request::Events { job: JobId(4), after: 17, max: 100 };
/// let line = request.encode();
/// assert_eq!(line, "events job=4 after=17 max=100");
/// assert_eq!(Request::parse(&line).unwrap(), request);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// List every job (id, name, state).
    Jobs,
    /// Submit a job.
    Submit {
        /// The job to run; the plan travels as escaped XML.
        spec: JobSpec,
    },
    /// Snapshot one job.
    Status {
        /// The job to snapshot.
        job: JobId,
    },
    /// Poll a job's event stream.
    Events {
        /// The job to poll.
        job: JobId,
        /// Cursor: return events with `seq >= after` (`next` from the
        /// previous response; start at 0).
        after: u64,
        /// At most this many events.
        max: usize,
    },
    /// Cancel a job (idempotent).
    Cancel {
        /// The job to cancel.
        job: JobId,
    },
    /// Pause a job.
    Pause {
        /// The job to pause.
        job: JobId,
    },
    /// Resume a paused job.
    Resume {
        /// The job to resume.
        job: JobId,
    },
    /// Fetch a job's crash-safe checkpoint as `ExplorationStore` XML.
    Checkpoint {
        /// The job to checkpoint.
        job: JobId,
    },
    /// Ask the fabric to finish all runnable work and wind down.
    Drain,
}

/// A response line, parsed.
///
/// Every response round-trips through its wire line:
///
/// ```
/// use lfi_fabric::{JobId, JobState, Response};
///
/// let response = Response::StateChanged { job: JobId(2), state: JobState::Cancelled };
/// let line = response.encode();
/// assert_eq!(line, "state job=2 state=cancelled");
/// assert_eq!(Response::parse(&line).unwrap(), response);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Jobs`].
    Jobs {
        /// `(id, name, state)` per job, in id order.
        jobs: Vec<(JobId, String, JobState)>,
    },
    /// Reply to [`Request::Submit`].
    Submitted {
        /// The assigned id.
        job: JobId,
    },
    /// Reply to [`Request::Status`].
    Status {
        /// The snapshot.
        snapshot: JobSnapshot,
    },
    /// Reply to [`Request::Events`].
    Events {
        /// The polled job.
        job: JobId,
        /// Cursor for the next poll.
        next: u64,
        /// The events, in sequence order.
        events: Vec<JobEvent>,
    },
    /// Reply to cancel/pause/resume.
    StateChanged {
        /// The affected job.
        job: JobId,
        /// Its state after the request.
        state: JobState,
    },
    /// Reply to [`Request::Checkpoint`].
    Checkpoint {
        /// The checkpointed job.
        job: JobId,
        /// The `ExplorationStore` document.
        store_xml: String,
    },
    /// Reply to [`Request::Drain`].
    Draining,
    /// Any request that failed.
    Error {
        /// Why.
        message: String,
    },
}

/// A parsed line's `key=value` fields, in wire order.
type Fields<'a> = Vec<(&'a str, &'a str)>;

/// Splits a line into its verb and `key=value` fields.
fn fields(line: &str) -> Result<(&str, Fields<'_>), WireError> {
    let mut tokens = line.split_ascii_whitespace();
    let verb = tokens.next().ok_or_else(|| WireError::malformed("empty line"))?;
    let mut pairs = Vec::new();
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| WireError::malformed(format!("token {token:?} is not key=value")))?;
        pairs.push((key, value));
    }
    Ok((verb, pairs))
}

fn find<'a>(pairs: &[(&str, &'a str)], key: &str) -> Result<&'a str, WireError> {
    pairs
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| WireError::malformed(format!("missing {key}= field")))
}

fn find_opt<'a>(pairs: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, WireError> {
    value
        .parse()
        .map_err(|_| WireError::malformed(format!("{key}={value:?} is not a number")))
}

fn job_field(pairs: &[(&str, &str)]) -> Result<JobId, WireError> {
    Ok(JobId(number("job", find(pairs, "job")?)?))
}

fn state_field(key: &str, value: &str) -> Result<JobState, WireError> {
    JobState::parse(value).ok_or_else(|| WireError::malformed(format!("{key}={value:?} is not a job state")))
}

impl Request {
    /// Renders the request as one protocol line (no trailing newline).
    ///
    /// ```
    /// use lfi_fabric::{JobId, Request};
    ///
    /// assert_eq!(Request::Ping.encode(), "ping");
    /// assert_eq!(Request::Status { job: JobId(4) }.encode(), "status job=4");
    /// ```
    pub fn encode(&self) -> String {
        match self {
            Request::Ping => "ping".into(),
            Request::Jobs => "jobs".into(),
            Request::Submit { spec } => {
                let mut line = format!(
                    "submit name={} workload={} plan={}",
                    escape(&spec.name),
                    escape(&spec.workload),
                    escape(&spec.plan.to_xml())
                );
                if spec.weight != 1 {
                    line.push_str(&format!(" weight={}", spec.weight));
                }
                if let Some(batch) = spec.lease_batch {
                    line.push_str(&format!(" lease-batch={batch}"));
                }
                if spec.halt_on_crash {
                    line.push_str(" halt-on-crash=true");
                }
                if let Some(max) = spec.max_cases {
                    line.push_str(&format!(" max-cases={max}"));
                }
                line
            }
            Request::Status { job } => format!("status job={job}"),
            Request::Events { job, after, max } => format!("events job={job} after={after} max={max}"),
            Request::Cancel { job } => format!("cancel job={job}"),
            Request::Pause { job } => format!("pause job={job}"),
            Request::Resume { job } => format!("resume job={job}"),
            Request::Checkpoint { job } => format!("checkpoint job={job}"),
            Request::Drain => "drain".into(),
        }
    }

    /// Parses one request line.
    ///
    /// ```
    /// use lfi_fabric::{JobId, Request};
    ///
    /// assert_eq!(Request::parse("cancel job=7").unwrap(), Request::Cancel { job: JobId(7) });
    /// assert!(Request::parse("status").is_err()); // missing job= field
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on an unknown verb, missing fields, or a
    /// plan that is not valid scenario XML.
    pub fn parse(line: &str) -> Result<Request, WireError> {
        let (verb, pairs) = fields(line)?;
        match verb {
            "ping" => Ok(Request::Ping),
            "jobs" => Ok(Request::Jobs),
            "submit" => {
                let plan_xml = unescape(find(&pairs, "plan")?)?;
                let plan = Plan::from_xml(&plan_xml)
                    .map_err(|error| WireError::malformed(format!("plan is not scenario XML: {error}")))?;
                let mut spec =
                    JobSpec::new(unescape(find(&pairs, "name")?)?, unescape(find(&pairs, "workload")?)?, plan);
                if let Some(weight) = find_opt(&pairs, "weight") {
                    spec = spec.weight(number("weight", weight)?);
                }
                if let Some(batch) = find_opt(&pairs, "lease-batch") {
                    spec = spec.lease_batch(number("lease-batch", batch)?);
                }
                if find_opt(&pairs, "halt-on-crash") == Some("true") {
                    spec = spec.halt_on_crash();
                }
                if let Some(max) = find_opt(&pairs, "max-cases") {
                    spec = spec.max_cases(number("max-cases", max)?);
                }
                Ok(Request::Submit { spec })
            }
            "status" => Ok(Request::Status { job: job_field(&pairs)? }),
            "events" => Ok(Request::Events {
                job: job_field(&pairs)?,
                after: find_opt(&pairs, "after").map_or(Ok(0), |v| number("after", v))?,
                max: find_opt(&pairs, "max").map_or(Ok(256), |v| number("max", v))?,
            }),
            "cancel" => Ok(Request::Cancel { job: job_field(&pairs)? }),
            "pause" => Ok(Request::Pause { job: job_field(&pairs)? }),
            "resume" => Ok(Request::Resume { job: job_field(&pairs)? }),
            "checkpoint" => Ok(Request::Checkpoint { job: job_field(&pairs)? }),
            "drain" => Ok(Request::Drain),
            _ => Err(WireError::malformed(format!("unknown request verb {verb:?}"))),
        }
    }
}

/// Encodes one event as `seq,kind,field,...` — fields escaped, so `,` and
/// `;` stay structural.
fn encode_event(event: &JobEvent) -> String {
    match &event.kind {
        JobEventKind::State(state) => format!("{},state,{state}", event.seq),
        JobEventKind::Started { case } => format!("{},started,{}", event.seq, escape(case)),
        JobEventKind::Injection { case, function, retval, errno } => format!(
            "{},injection,{},{},{},{}",
            event.seq,
            escape(case),
            escape(function),
            retval.map_or_else(|| "x".into(), |v| v.to_string()),
            errno.map_or_else(|| "x".into(), |v| v.to_string()),
        ),
        JobEventKind::Finished { case, outcome, injections } => {
            format!("{},finished,{},{},{injections}", event.seq, escape(case), escape(&outcome.to_string()))
        }
        JobEventKind::Skipped { case } => format!("{},skipped,{}", event.seq, escape(case)),
        JobEventKind::Requeued { cells } => format!("{},requeued,{cells}", event.seq),
    }
}

fn opt_number(key: &str, value: &str) -> Result<Option<i64>, WireError> {
    if value == "x" {
        Ok(None)
    } else {
        number(key, value).map(Some)
    }
}

fn decode_event(text: &str) -> Result<JobEvent, WireError> {
    let parts: Vec<&str> = text.split(',').collect();
    if parts.len() < 2 {
        return Err(WireError::malformed(format!("event {text:?} has no kind")));
    }
    let seq = number("seq", parts[0])?;
    let arg = |index: usize| -> Result<&str, WireError> {
        parts
            .get(index)
            .copied()
            .ok_or_else(|| WireError::malformed(format!("event {text:?} is missing field {index}")))
    };
    let kind = match parts[1] {
        "state" => JobEventKind::State(state_field("state", arg(2)?)?),
        "started" => JobEventKind::Started { case: unescape(arg(2)?)? },
        "injection" => JobEventKind::Injection {
            case: unescape(arg(2)?)?,
            function: unescape(arg(3)?)?,
            retval: opt_number("retval", arg(4)?)?,
            errno: opt_number("errno", arg(5)?)?,
        },
        "finished" => {
            let outcome_text = unescape(arg(3)?)?;
            JobEventKind::Finished {
                case: unescape(arg(2)?)?,
                outcome: OutcomeClass::parse(&outcome_text)
                    .ok_or_else(|| WireError::malformed(format!("unknown outcome class {outcome_text:?}")))?,
                injections: number("injections", arg(4)?)?,
            }
        }
        "skipped" => JobEventKind::Skipped { case: unescape(arg(2)?)? },
        "requeued" => JobEventKind::Requeued { cells: number("cells", arg(2)?)? },
        kind => return Err(WireError::malformed(format!("unknown event kind {kind:?}"))),
    };
    Ok(JobEvent { seq, kind })
}

impl Response {
    /// Renders the response as one protocol line (no trailing newline).
    ///
    /// ```
    /// use lfi_fabric::{JobId, Response};
    ///
    /// assert_eq!(Response::Pong.encode(), "pong");
    /// assert_eq!(Response::Submitted { job: JobId(9) }.encode(), "submitted job=9");
    /// ```
    pub fn encode(&self) -> String {
        match self {
            Response::Pong => "pong".into(),
            Response::Jobs { jobs } => {
                let list: Vec<String> =
                    jobs.iter().map(|(id, name, state)| format!("{id}:{}:{state}", escape(name))).collect();
                format!("jobs count={} list={}", jobs.len(), list.join(";"))
            }
            Response::Submitted { job } => format!("submitted job={job}"),
            Response::Status { snapshot } => format!(
                "status job={} name={} workload={} state={} cases={} pending={} outstanding={} started={} \
                 finished={} skipped={} crashes={} injections={} requeued={} clusters={}",
                snapshot.id,
                escape(&snapshot.name),
                escape(&snapshot.workload),
                snapshot.state,
                snapshot.cases,
                snapshot.pending,
                snapshot.outstanding,
                snapshot.progress.started,
                snapshot.progress.finished,
                snapshot.progress.skipped,
                snapshot.progress.crashes,
                snapshot.progress.injections,
                snapshot.requeued,
                snapshot.clusters,
            ),
            Response::Events { job, next, events } => {
                let list: Vec<String> = events.iter().map(encode_event).collect();
                format!("events job={job} next={next} list={}", list.join(";"))
            }
            Response::StateChanged { job, state } => format!("state job={job} state={state}"),
            Response::Checkpoint { job, store_xml } => format!("checkpoint job={job} store={}", escape(store_xml)),
            Response::Draining => "draining".into(),
            Response::Error { message } => format!("error message={}", escape(message)),
        }
    }

    /// Parses one response line.
    ///
    /// ```
    /// use lfi_fabric::{JobId, Response};
    ///
    /// assert_eq!(Response::parse("submitted job=9").unwrap(), Response::Submitted { job: JobId(9) });
    /// assert!(Response::parse("state job=1 state=melted").is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on an unknown verb or missing/bad fields.
    pub fn parse(line: &str) -> Result<Response, WireError> {
        let (verb, pairs) = fields(line)?;
        match verb {
            "pong" => Ok(Response::Pong),
            "jobs" => {
                let list = find_opt(&pairs, "list").unwrap_or("");
                let jobs = list
                    .split(';')
                    .filter(|entry| !entry.is_empty())
                    .map(|entry| {
                        let mut parts = entry.splitn(3, ':');
                        let id = number::<u64>("id", parts.next().unwrap_or(""))?;
                        let name = unescape(parts.next().unwrap_or(""))?;
                        let state = state_field("state", parts.next().unwrap_or(""))?;
                        Ok((JobId(id), name, state))
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                Ok(Response::Jobs { jobs })
            }
            "submitted" => Ok(Response::Submitted { job: job_field(&pairs)? }),
            "status" => {
                let count = |key: &str| -> Result<usize, WireError> { number(key, find(&pairs, key)?) };
                Ok(Response::Status {
                    snapshot: JobSnapshot {
                        id: job_field(&pairs)?,
                        name: unescape(find(&pairs, "name")?)?,
                        workload: unescape(find(&pairs, "workload")?)?,
                        state: state_field("state", find(&pairs, "state")?)?,
                        cases: count("cases")?,
                        pending: count("pending")?,
                        outstanding: count("outstanding")?,
                        progress: lfi_controller::ProgressSnapshot {
                            started: count("started")?,
                            finished: count("finished")?,
                            skipped: count("skipped")?,
                            crashes: count("crashes")?,
                            injections: count("injections")?,
                        },
                        requeued: number("requeued", find(&pairs, "requeued")?)?,
                        clusters: count("clusters")?,
                    },
                })
            }
            "events" => {
                let list = find_opt(&pairs, "list").unwrap_or("");
                Ok(Response::Events {
                    job: job_field(&pairs)?,
                    next: number("next", find(&pairs, "next")?)?,
                    events: list.split(';').filter(|entry| !entry.is_empty()).map(decode_event).collect::<Result<
                        Vec<_>,
                        WireError,
                    >>(
                    )?,
                })
            }
            "state" => Ok(Response::StateChanged {
                job: job_field(&pairs)?,
                state: state_field("state", find(&pairs, "state")?)?,
            }),
            "checkpoint" => {
                Ok(Response::Checkpoint { job: job_field(&pairs)?, store_xml: unescape(find(&pairs, "store")?)? })
            }
            "draining" => Ok(Response::Draining),
            "error" => Ok(Response::Error { message: unescape(find(&pairs, "message")?)? }),
            _ => Err(WireError::malformed(format!("unknown response verb {verb:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_structural_characters() {
        for text in ["", "plain", "a b=c;d,e:f%g\nh", "<plan seed=\"7\"/>", "naïve-ütf8"] {
            let escaped = escape(text);
            assert!(!escaped.contains([' ', '=', ';', ',', ':', '\n']), "{escaped}");
            assert_eq!(unescape(&escaped).unwrap(), text);
        }
        assert!(unescape("%zz").is_err());
        assert!(unescape("%4").is_err());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("fly job=1").is_err());
        assert!(Request::parse("status").is_err(), "missing job field");
        assert!(Request::parse("status job=abc").is_err());
        assert!(Request::parse("submit name=a workload=b plan=notxml").is_err());
        assert!(Request::parse("status job=1 extra").is_err(), "bare token is not key=value");
        assert!(Response::parse("warp field=1").is_err());
        assert!(Response::parse("state job=1 state=melted").is_err());
        assert!(Response::parse("events job=1 next=0 list=0").is_err(), "event without kind");
        assert!(Response::parse("events job=1 next=0 list=0,warp").is_err());
        assert!(Response::parse("events job=1 next=0 list=0,finished,a,melted,1").is_err());
    }
}
