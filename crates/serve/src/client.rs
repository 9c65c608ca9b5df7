//! Blocking client for the sweep service, shared by the `serve-client` bin,
//! the load-generator bench and the integration tests.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use numadag_runtime::framing::{read_frame, FrameError};

use crate::protocol::{Request, Response, ServerStats, SweepSpec};

/// Errors a client interaction can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A connect or read deadline expired (see
    /// [`ServeClient::connect_with_timeout`]).
    Timeout,
    /// The server sent something the protocol decoder rejects.
    Protocol(String),
    /// The server answered with a structured `Error` response.
    Server(String),
    /// The server bounced the submission off its admission quotas.
    Overloaded {
        /// Cells already sitting in the server's pool queue.
        queued_cells: u64,
        /// The server's queued-cell quota.
        limit: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Timeout => write!(f, "timed out waiting for the server"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Overloaded {
                queued_cells,
                limit,
            } => write!(
                f,
                "server overloaded: {queued_cells} cells queued (limit {limit})"
            ),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        if matches!(
            e.kind(),
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
        ) {
            ClientError::Timeout
        } else {
            ClientError::Io(e)
        }
    }
}

/// Outcome of a completed submission.
#[derive(Debug)]
pub struct SubmitOutcome {
    /// Server-assigned job id.
    pub job: u64,
    /// True when the report came from the report cache without executing.
    pub cache_hit: bool,
    /// Cells executed for this request (0 on a cache hit).
    pub executed_cells: u64,
    /// Cells hydrated from the server's cell cache instead of executed
    /// (overlap with previously executed sweeps of other shapes).
    pub hydrated_cells: u64,
    /// The exact measurement-JSON bytes of the sweep report.
    pub report_json: String,
}

/// One connection to the daemon. Requests are answered in order, so a
/// client can issue any number of them over one connection.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServeClient {
    /// Connects to `addr` (`"127.0.0.1:PORT"`).
    pub fn connect(addr: &str) -> std::io::Result<ServeClient> {
        Self::wrap(TcpStream::connect(addr)?)
    }

    /// Connects with a deadline on both the connect itself and every later
    /// read, so a dead (or wedged) daemon surfaces as
    /// [`ClientError::Timeout`] instead of hanging the client forever.
    pub fn connect_with_timeout(addr: &str, timeout: Duration) -> Result<ServeClient, ClientError> {
        let target = addr
            .to_socket_addrs()
            .map_err(ClientError::from)?
            .next()
            .ok_or_else(|| ClientError::Protocol(format!("unresolvable address {addr:?}")))?;
        let stream = TcpStream::connect_timeout(&target, timeout).map_err(ClientError::from)?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(ClientError::from)?;
        Self::wrap(stream).map_err(ClientError::from)
    }

    fn wrap(stream: TcpStream) -> std::io::Result<ServeClient> {
        // One-line request/response turnarounds: Nagle + delayed ACK would
        // add ~40 ms to every exchange.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(ServeClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        let mut line = crate::protocol::to_line(request);
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Reads one response line. Read-deadline expiry (when connected via
    /// [`ServeClient::connect_with_timeout`]) maps to
    /// [`ClientError::Timeout`].
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let line = match read_frame(&mut self.reader) {
            Ok(Some(line)) => line,
            Ok(None) => {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )))
            }
            Err(FrameError::Io(e)) => return Err(ClientError::from(e)),
            Err(e) => return Err(ClientError::Protocol(format!("bad frame: {e}"))),
        };
        Response::from_line(line.trim_end()).map_err(ClientError::Protocol)
    }

    /// Sends a request and reads its single response.
    pub(crate) fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.recv()
    }

    /// Submits a sweep and blocks until its terminal report. `on_progress`
    /// sees every streamed `Progress` line (pass `|_| ()` when `stream` is
    /// false). A `Progress` or `Report` for any job but the `Submitted` one
    /// is a [`ClientError::Protocol`].
    pub fn submit(
        &mut self,
        spec: SweepSpec,
        stream: bool,
        mut on_progress: impl FnMut(&Response),
    ) -> Result<SubmitOutcome, ClientError> {
        self.send(&Request::SubmitSweep { spec, stream })?;
        let job = match self.recv()? {
            Response::Submitted { job, .. } => job,
            Response::Error { message } => return Err(ClientError::Server(message)),
            Response::Overloaded {
                queued_cells,
                limit,
            } => {
                return Err(ClientError::Overloaded {
                    queued_cells,
                    limit,
                })
            }
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected Submitted, got {other:?}"
                )))
            }
        };
        loop {
            match self.recv()? {
                Response::Progress { job: other, .. } | Response::Report { job: other, .. }
                    if other != job =>
                {
                    return Err(ClientError::Protocol(format!(
                        "a line for job {other} answered job {job}"
                    )))
                }
                Response::Progress { .. } if !stream => {
                    return Err(ClientError::Protocol(
                        "unrequested Progress line".to_string(),
                    ))
                }
                progress @ Response::Progress { .. } => on_progress(&progress),
                Response::Report {
                    cache_hit,
                    executed_cells,
                    hydrated_cells,
                    report_json,
                    ..
                } => {
                    return Ok(SubmitOutcome {
                        job,
                        cache_hit,
                        executed_cells,
                        hydrated_cells,
                        report_json,
                    })
                }
                Response::Error { message } => return Err(ClientError::Server(message)),
                Response::Cancelled { job } => {
                    return Err(ClientError::Server(format!("job {job} was cancelled")))
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected response {other:?}"
                    )))
                }
            }
        }
    }

    /// Queries a job's state.
    pub fn status(&mut self, job: u64) -> Result<Response, ClientError> {
        match self.request(&Request::Status { job })? {
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Ok(other),
        }
    }

    /// Cancels a queued or running job.
    pub fn cancel(&mut self, job: u64) -> Result<Response, ClientError> {
        match self.request(&Request::CancelJob { job })? {
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Ok(other),
        }
    }

    /// Fetches the server counters.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Protocol(format!(
                "expected Stats, got {other:?}"
            ))),
        }
    }

    /// Asks the daemon to shut down.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Protocol(format!(
                "expected ShuttingDown, got {other:?}"
            ))),
        }
    }
}
