//! Connection handling: Unix-socket accept loop and stdio transport.
//!
//! One thread per connection, one shared [`Service`]
//! behind it. Requests on one connection are served strictly in order
//! (the protocol has no pipelining guarantees beyond that); separate
//! connections run concurrently and contend only where the experiment
//! harness itself serialises (the process-wide scheduler and cache).
//!
//! Each connection has two threads. The connection thread reads and
//! validates lines and writes everything the client receives. A scoped
//! request thread, alive as long as the connection, takes each accepted
//! request from a channel and runs [`Service::handle`] under the
//! connection's [`experiments::JobCtx`], whose progress sender feeds the
//! connection's one frames channel. After `handle` returns, the request
//! thread sends the end of the request, with its response, on the same
//! channel. The scheduler sends each event before its batch completes,
//! so every event of a request precedes its end, and the connection
//! thread hands over the next request only after it has that end: no
//! request's events reach another. A panic that escapes `handle`
//! becomes an `internal` error and the request thread serves on. Only
//! connection threads write to a client; the scheduler's workers never
//! do.
//!
//! The connection thread blocks on the frames channel with no timeout.
//! When a frame arrives it drains every frame already queued into one
//! buffer and writes it at once, so a burst of progress costs one write
//! and the terminal response joins the last burst, while no frame waits
//! for one that has not been produced yet. Every other line goes out in
//! one write as well.
//!
//! Malformed input never tears the connection down: bad JSON, unknown
//! types, and oversized lines each get a typed `error` response and the
//! next line is read as usual. Only EOF (or a write failure, meaning the
//! client vanished) ends a connection.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use experiments::{JobCtx, ProgressEvent};

use crate::json::{self, Value};
use crate::proto::{ErrorCode, Event, Request, Response, MAX_LINE_BYTES};
use crate::service::{Handled, Service};

/// A bound Unix-socket server ready to accept connections.
pub struct Server {
    listener: UnixListener,
    path: PathBuf,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the server socket at `path`, replacing a stale socket file
    /// from a previous run.
    pub fn bind(path: &Path) -> io::Result<Server> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        Ok(Server {
            listener,
            path: path.to_path_buf(),
            service: Arc::new(Service::new()),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The socket path this server is bound to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Accepts connections until a `shutdown` request arrives, then
    /// joins every connection thread (in-flight requests finish) and
    /// removes the socket file. Each accept first joins the connection
    /// threads that have already finished, so the server holds handles
    /// for live connections only.
    pub fn run(self) -> io::Result<()> {
        let mut handles = Vec::new();
        for conn in self.listener.incoming() {
            // xtask-atomics: shutdown latch; SeqCst so the set in the shutdown thread is seen before its wake-up connect is accepted
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            reap_finished(&mut handles);
            let Ok(stream) = conn else { continue };
            let service = Arc::clone(&self.service);
            let stop = Arc::clone(&self.stop);
            let path = self.path.clone();
            handles.push(std::thread::spawn(move || {
                let Ok(read_half) = stream.try_clone() else {
                    return;
                };
                let reader = BufReader::new(read_half);
                let mut writer = stream;
                if let Ok(true) = handle_connection(reader, &mut writer, &service) {
                    stop.store(true, Ordering::SeqCst); // xtask-atomics: shutdown latch; see the load in the accept loop
                                                        // Wake the accept loop so it observes the latch.
                    let _ = UnixStream::connect(&path);
                }
            }));
        }
        for handle in handles {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.path);
        Ok(())
    }
}

/// Joins the connection threads that have finished and keeps the rest.
fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
    for finished in handles.extract_if(.., |handle| handle.is_finished()) {
        let _ = finished.join();
    }
}

/// Serves one session over stdin/stdout — the transport the CLI's
/// `serve --stdio` flag and one-shot scripting use. Returns when the
/// client closes stdin or sends `shutdown`.
pub fn serve_stdio(service: &Service) -> io::Result<()> {
    let stdin = io::stdin();
    handle_connection(stdin.lock(), &mut io::stdout(), service).map(|_| ())
}

/// Appends `line` and its newline to a burst.
fn push_line(burst: &mut String, line: &str) {
    burst.push_str(line);
    burst.push('\n');
}

/// Writes a burst of whole lines in one write and flushes; an `Err`
/// means the client is gone.
fn write_burst<W: Write>(writer: &mut W, burst: &str) -> io::Result<()> {
    writer.write_all(burst.as_bytes())?;
    writer.flush()
}

/// Writes one line in one write and flushes.
fn write_line<W: Write>(writer: &mut W, mut line: String) -> io::Result<()> {
    line.push('\n');
    write_burst(writer, &line)
}

/// One read off the wire.
enum LineRead {
    /// Clean end of stream.
    Eof,
    /// A complete line (newline stripped), raw bytes.
    Line(Vec<u8>),
    /// The line exceeded the cap; it was discarded up to the newline.
    Oversized,
}

enum LineEnd {
    Eof,
    Newline,
}

/// Reads one newline-terminated line, never buffering more than `cap`
/// bytes: once a line exceeds the cap its bytes are discarded until the
/// next newline, and [`LineRead::Oversized`] is returned so the caller
/// can answer with a typed error while the connection stays in sync.
fn read_line_capped<R: BufRead>(reader: &mut R, cap: usize) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut dropping = false;
    loop {
        let (consumed, end) = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                (0, Some(LineEnd::Eof))
            } else if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
                if !dropping {
                    if let Some(head) = chunk.get(..pos) {
                        buf.extend_from_slice(head);
                    }
                }
                (pos + 1, Some(LineEnd::Newline))
            } else {
                if !dropping {
                    buf.extend_from_slice(chunk);
                }
                (chunk.len(), None)
            }
        };
        reader.consume(consumed);
        if !dropping && buf.len() > cap {
            dropping = true;
            buf.clear();
        }
        match end {
            Some(LineEnd::Eof) => {
                return Ok(if dropping {
                    LineRead::Oversized
                } else if buf.is_empty() {
                    LineRead::Eof
                } else {
                    // A final line without a trailing newline still counts.
                    LineRead::Line(buf)
                });
            }
            Some(LineEnd::Newline) => {
                return Ok(if dropping {
                    LineRead::Oversized
                } else {
                    LineRead::Line(buf)
                });
            }
            None => {}
        }
    }
}

/// Serves one connection to completion. Returns `Ok(true)` when the
/// session ended with a `shutdown` request.
///
/// Lines are read and answered on the calling thread; the connection's
/// request thread ([`serve_requests`]) runs each accepted request, and
/// ends when the session does.
pub(crate) fn handle_connection<R, W>(
    reader: R,
    writer: &mut W,
    service: &Service,
) -> io::Result<bool>
where
    R: BufRead,
    W: Write,
{
    let (requests, pending) = mpsc::channel();
    let (frames_in, frames) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            serve_requests(|request| service.handle(request), &pending, &frames_in);
        });
        // `requests` is dropped when the session ends, which ends the
        // request thread's loop; the scope then joins it.
        serve_lines(reader, writer, requests, &frames)
    })
}

/// The connection thread's loop: reads, validates and answers lines,
/// handing each accepted request to the request thread and relaying its
/// frames.
fn serve_lines<R, W>(
    mut reader: R,
    writer: &mut W,
    requests: Sender<Request>,
    frames: &Receiver<Frame>,
) -> io::Result<bool>
where
    R: BufRead,
    W: Write,
{
    loop {
        let line = match read_line_capped(&mut reader, MAX_LINE_BYTES)? {
            LineRead::Eof => return Ok(false),
            LineRead::Oversized => {
                let response = Response::Error {
                    code: ErrorCode::OversizedLine,
                    message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    payload: None,
                };
                write_line(writer, response.render(&Value::Null))?;
                continue;
            }
            LineRead::Line(bytes) => bytes,
        };
        let Ok(text) = String::from_utf8(line) else {
            let response = Response::Error {
                code: ErrorCode::BadJson,
                message: "request line is not valid UTF-8".to_string(),
                payload: None,
            };
            write_line(writer, response.render(&Value::Null))?;
            continue;
        };
        if text.trim().is_empty() {
            continue;
        }
        let parsed = match json::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                let response = Response::Error {
                    code: ErrorCode::BadJson,
                    message: e.to_string(),
                    payload: None,
                };
                write_line(writer, response.render(&Value::Null))?;
                continue;
            }
        };
        let id = crate::proto::request_id(&parsed);
        let envelope = match crate::proto::parse_request(&parsed) {
            Ok(env) => env,
            Err(e) => {
                let response = Response::Error {
                    code: e.code,
                    message: e.message,
                    payload: None,
                };
                write_line(writer, response.render(&id))?;
                continue;
            }
        };
        write_line(writer, Event::Accepted.render(&id))?;
        // A send fails only if the request thread is gone, and then
        // `relay` finds the frames channel closed as well.
        let _ = requests.send(envelope.request);
        if relay(frames, writer, &id)? {
            return Ok(true);
        }
    }
}

/// What the request thread sends its connection thread.
enum Frame {
    /// One progress event of the current request's own batches.
    Progress(ProgressEvent),
    /// `Service::handle` has returned with this outcome; no event of the
    /// request follows.
    End(Handled),
}

/// The request thread's loop: runs each request from `pending` through
/// `handle`, under one [`JobCtx`] whose progress goes to `frames`, and
/// sends [`Frame::End`] after each. A panic that escapes `handle` is
/// answered as an `internal` error and the loop goes on. Returns when
/// the connection thread drops its sender.
fn serve_requests(
    handle: impl Fn(&Request) -> Handled,
    pending: &Receiver<Request>,
    frames: &Sender<Frame>,
) {
    let progress = frames.clone();
    let ctx = JobCtx::default().with_progress(move |event| {
        let _ = progress.send(Frame::Progress(event));
    });
    ctx.enter(|| {
        for request in pending {
            let handled =
                catch_unwind(AssertUnwindSafe(|| handle(&request))).unwrap_or_else(|payload| {
                    Handled {
                        response: Response::Error {
                            code: ErrorCode::Internal,
                            message: crate::service::panic_text(payload.as_ref()),
                            payload: None,
                        },
                        shutdown: false,
                    }
                });
            if frames.send(Frame::End(handled)).is_err() {
                return;
            }
        }
    });
}

/// Relays the current request's frames to the client until its
/// [`Frame::End`], and returns whether the request was a `shutdown`.
///
/// Each burst is every frame already queued, written at once; the
/// terminal response joins the last one. Progress write failures are
/// ignored: the terminal write surfaces the disconnect.
fn relay<W: Write>(frames: &Receiver<Frame>, writer: &mut W, id: &Value) -> io::Result<bool> {
    // The request thread lives as long as the connection and answers
    // every request it takes, so the channel closes only if it is gone.
    let gone = || io::Error::other("the request thread ended without an answer");
    let mut burst = String::new();
    let mut frame = frames.recv().map_err(|_| gone())?;
    loop {
        match frame {
            Frame::Progress(event) => {
                let event = Event::Progress {
                    source: event.source.to_string(),
                    done: event.done,
                    total: event.total,
                };
                push_line(&mut burst, &event.render(id));
            }
            Frame::End(handled) => {
                push_line(&mut burst, &handled.response.render(id));
                write_burst(writer, &burst)?;
                return Ok(handled.shutdown);
            }
        }
        frame = match frames.try_recv() {
            Ok(next) => next,
            Err(TryRecvError::Empty) => {
                let _ = write_burst(writer, &burst);
                burst.clear();
                frames.recv().map_err(|_| gone())?
            }
            Err(TryRecvError::Disconnected) => return Err(gone()),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(input: &str) -> Vec<String> {
        let service = Service::new();
        let mut bytes = Vec::<u8>::new();
        let reader = io::Cursor::new(input.as_bytes().to_vec());
        let outcome = handle_connection(BufReader::new(reader), &mut bytes, &service);
        assert!(
            outcome.is_ok(),
            "in-memory connection cannot fail: {outcome:?}"
        );
        String::from_utf8_lossy(&bytes)
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn empty_and_blank_lines_are_ignored() {
        assert!(served("\n  \n\n").is_empty());
    }

    #[test]
    fn bad_json_gets_a_typed_error_and_the_session_continues() {
        let lines = served("{nope\n{\"type\":\"status\",\"id\":1}\n");
        assert!(
            lines.first().is_some_and(|l| l.contains("\"bad-json\"")),
            "first line is the bad-json error: {lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"result\"") && l.contains("\"id\":1")),
            "status after the error still served: {lines:?}"
        );
    }

    #[test]
    fn oversized_line_is_discarded_and_the_session_continues() {
        let big = "x".repeat(MAX_LINE_BYTES + 10);
        let input = format!("{big}\n{{\"type\":\"status\",\"id\":2}}\n");
        let lines = served(&input);
        assert!(
            lines
                .first()
                .is_some_and(|l| l.contains("\"oversized-line\"")),
            "oversized error first: {lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"result\"") && l.contains("\"id\":2")),
            "status after the oversized line still served: {lines:?}"
        );
    }

    #[test]
    fn unknown_type_echoes_the_id() {
        let lines = served("{\"type\":\"frobnicate\",\"id\":\"a\"}\n");
        assert!(
            lines
                .first()
                .is_some_and(|l| l.contains("\"unknown-type\"") && l.contains("\"id\":\"a\"")),
            "typed error with echoed id: {lines:?}"
        );
    }

    #[test]
    fn accepted_event_precedes_the_result() {
        let lines = served("{\"type\":\"status\",\"id\":3}\n");
        assert_eq!(lines.len(), 2, "accepted + result: {lines:?}");
        assert!(lines.first().is_some_and(|l| l.contains("\"accepted\"")));
        assert!(lines.get(1).is_some_and(|l| l.contains("\"result\"")));
    }

    #[test]
    fn final_line_without_newline_is_served() {
        let lines = served("{\"type\":\"status\",\"id\":4}");
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"result\"") && l.contains("\"id\":4")),
            "unterminated final line served: {lines:?}"
        );
    }

    #[test]
    fn reaping_joins_finished_connection_threads_and_keeps_live_ones() {
        let (release, hold) = mpsc::channel::<()>();
        let mut handles = vec![
            std::thread::spawn(|| {}),
            std::thread::spawn(move || {
                let _ = hold.recv();
            }),
            std::thread::spawn(|| {}),
        ];
        while handles.iter().filter(|h| h.is_finished()).count() < 2 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        reap_finished(&mut handles);
        assert_eq!(handles.len(), 1, "the two finished threads were joined");
        assert!(
            handles.iter().all(|h| !h.is_finished()),
            "the live one stays"
        );
        drop(release);
        while !handles.iter().all(JoinHandle::is_finished) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        reap_finished(&mut handles);
        assert!(handles.is_empty());
    }

    #[test]
    fn a_panic_that_escapes_handle_is_an_internal_error_and_the_thread_serves_on() {
        let (requests, pending) = mpsc::channel();
        let (frames_in, frames) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let handle = |request: &Request| {
                if matches!(request, Request::Shutdown) {
                    panic!("escaped handle");
                }
                Handled {
                    response: Response::Result {
                        payload: Value::Null,
                    },
                    shutdown: false,
                }
            };
            serve_requests(handle, &pending, &frames_in);
        });
        for request in [Request::Shutdown, Request::Status] {
            requests.send(request).unwrap();
        }
        let ends: Vec<Response> = (0..2)
            .map(|_| match frames.recv() {
                Ok(Frame::End(handled)) => {
                    assert!(!handled.shutdown);
                    handled.response
                }
                Ok(Frame::Progress(_)) => panic!("no batch ran"),
                Err(_) => panic!("the request thread ended early"),
            })
            .collect();
        assert_eq!(
            ends,
            [
                Response::Error {
                    code: ErrorCode::Internal,
                    message: "escaped handle".to_string(),
                    payload: None,
                },
                Response::Result {
                    payload: Value::Null
                },
            ]
        );
        drop(requests);
        thread.join().unwrap();
        assert!(frames.recv().is_err(), "the thread ends with its sender");
    }

    #[test]
    fn a_burst_of_queued_frames_goes_out_in_one_write() {
        /// Records each `write` call.
        #[derive(Default)]
        struct Writes(Vec<String>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(String::from_utf8_lossy(buf).into_owned());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (frames_in, frames) = mpsc::channel();
        for done in 1..=3 {
            frames_in
                .send(Frame::Progress(ProgressEvent {
                    source: "e1",
                    done,
                    total: 3,
                }))
                .unwrap();
        }
        frames_in
            .send(Frame::End(Handled {
                response: Response::Result {
                    payload: Value::Null,
                },
                shutdown: true,
            }))
            .unwrap();
        let mut writes = Writes::default();
        let shutdown = relay(&frames, &mut writes, &Value::num_u64(9)).unwrap();
        assert!(shutdown);
        let [burst] = writes.0.as_slice() else {
            panic!("one write expected: {:?}", writes.0);
        };
        let lines: Vec<&str> = burst.lines().collect();
        assert_eq!(lines.len(), 4, "{burst}");
        assert!(lines[..3]
            .iter()
            .all(|l| l.contains("\"progress\"") && l.contains("\"id\":9")));
        assert!(lines[3].contains("\"result\""), "{burst}");
        assert!(burst.ends_with('\n'));
    }

    #[test]
    fn read_line_capped_splits_and_caps() {
        let mut r = BufReader::new(io::Cursor::new(b"ab\ncd\n".to_vec()));
        let first = read_line_capped(&mut r, 10);
        assert!(matches!(first, Ok(LineRead::Line(ref b)) if b == b"ab"));
        let second = read_line_capped(&mut r, 10);
        assert!(matches!(second, Ok(LineRead::Line(ref b)) if b == b"cd"));
        assert!(matches!(read_line_capped(&mut r, 10), Ok(LineRead::Eof)));

        let mut r = BufReader::new(io::Cursor::new(b"0123456789abc\nok\n".to_vec()));
        assert!(matches!(
            read_line_capped(&mut r, 4),
            Ok(LineRead::Oversized)
        ));
        let next = read_line_capped(&mut r, 4);
        assert!(
            matches!(next, Ok(LineRead::Line(ref b)) if b == b"ok"),
            "stream resyncs after the oversized line"
        );
    }
}
