//! Transport loops: JSON lines over stdin/stdout or a unix socket.
//!
//! Both transports share [`serve_connection`]: read one bounded line,
//! answer it, flush, repeat until EOF or an acknowledged `shutdown`. The
//! reader never buffers more than [`Server::max_request_bytes`] of one
//! line — an oversized request is *drained* (consumed chunk by chunk up
//! to its newline, discarding the excess) and answered with a structured
//! error, so a misbehaving client cannot balloon daemon memory or wedge
//! the framing.

use std::io::{self, BufRead, Write};

#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::Path;

use crate::server::Server;

/// How long an acknowledged `shutdown` waits for the other in-flight
/// connections before closing them forcibly.
#[cfg(unix)]
const DRAIN_MS: u64 = 2000;

/// One bounded read from a JSON-lines stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadLine {
    /// Clean end of stream (no pending partial line).
    Eof,
    /// A complete line within the byte bound (without its newline).
    Line(String),
    /// A line longer than the bound; its content was discarded. Carries
    /// the number of bytes the client actually sent.
    Oversized(usize),
}

/// Reads one `\n`-terminated line, never holding more than `max_bytes`
/// of it in memory. A final unterminated line is returned as a normal
/// line (EOF acts as the terminator).
///
/// # Errors
///
/// Propagates I/O errors from the underlying reader.
pub fn read_request_line<R: BufRead>(reader: &mut R, max_bytes: usize) -> io::Result<ReadLine> {
    let mut buf: Vec<u8> = Vec::new();
    let mut total = 0usize;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            if total == 0 {
                return Ok(ReadLine::Eof);
            }
            break;
        }
        let (chunk_len, found_newline) = match available.iter().position(|&b| b == b'\n') {
            Some(i) => (i, true),
            None => (available.len(), false),
        };
        // Stop accumulating once the bound is reached; the rest of the
        // line is consumed but never stored.
        let keep = chunk_len.min(max_bytes.saturating_sub(total));
        buf.extend_from_slice(&available[..keep]);
        total += chunk_len;
        let consumed = chunk_len + usize::from(found_newline);
        reader.consume(consumed);
        if found_newline {
            break;
        }
    }
    if total > max_bytes {
        Ok(ReadLine::Oversized(total))
    } else {
        Ok(ReadLine::Line(String::from_utf8_lossy(&buf).into_owned()))
    }
}

/// Serves one JSON-lines connection until EOF or shutdown: every
/// non-blank line gets exactly one response line, flushed immediately.
///
/// The connection registers itself for the server's drain accounting.
/// Once a shutdown has been acknowledged anywhere, the connection closes
/// after finishing (and answering) its current request — an in-flight
/// compile always completes, it is never reset mid-response.
///
/// # Errors
///
/// Propagates I/O errors from the transport.
pub fn serve_connection<R: BufRead, W: Write>(
    server: &Server,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<()> {
    let _tracked = server.track_connection();
    loop {
        match read_request_line(reader, server.max_request_bytes())? {
            ReadLine::Eof => return Ok(()),
            ReadLine::Oversized(got) => write_line(writer, server.oversized_response(got))?,
            ReadLine::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let response = server.handle_line(&line);
                let shutdown = response.shutdown;
                write_line(writer, response.line)?;
                if shutdown || server.is_shutdown() {
                    return Ok(());
                }
            }
        }
    }
}

/// Writes one response and its newline with a single `write_all`, then
/// flushes: on an unbuffered socket, two writes would wake the client
/// twice per answer.
fn write_line<W: Write>(writer: &mut W, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Runs the daemon over stdin/stdout until EOF or `shutdown`.
///
/// # Errors
///
/// Propagates I/O errors from the standard streams.
pub fn serve_stdin(server: &Server) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_connection(server, &mut stdin.lock(), &mut stdout.lock())
}

/// Claims the socket path for a new daemon. An existing file is removed
/// only when it provably belongs to a *dead* daemon: it must be a unix
/// socket AND connecting to it must be refused. A live daemon (connect
/// succeeds) or a foreign file (not a socket) is an error — never
/// silently unlinked.
///
/// # Errors
///
/// `AddrInUse` for a live daemon, `InvalidInput` for a non-socket file;
/// probe/remove I/O errors pass through.
#[cfg(unix)]
pub fn claim_socket(path: &Path) -> io::Result<()> {
    use std::os::unix::fs::FileTypeExt as _;
    let meta = match std::fs::symlink_metadata(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
        Ok(meta) => meta,
    };
    if !meta.file_type().is_socket() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} exists and is not a socket; refusing to replace it", path.display()),
        ));
    }
    match UnixStream::connect(path) {
        Ok(_) => Err(io::Error::new(
            io::ErrorKind::AddrInUse,
            format!("a daemon is already listening on {}", path.display()),
        )),
        Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
            // A socket nobody accepts on: the previous daemon died
            // without cleaning up. Safe to reclaim.
            std::fs::remove_file(path)
        }
        Err(e) => Err(e),
    }
}

/// Runs the daemon on a unix socket at `path` (a provably-stale socket
/// file is reclaimed, see [`claim_socket`]), one thread per connection,
/// until a client's `shutdown` request is acknowledged. Shutdown then
/// *drains*: other in-flight connections get up to two seconds to
/// finish their current request, after which any stragglers are closed
/// forcibly. The socket file is removed on exit.
///
/// # Errors
///
/// Propagates claim and bind errors; per-connection I/O errors only end
/// that connection.
#[cfg(unix)]
pub fn serve_socket(server: &Server, path: &Path) -> io::Result<()> {
    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    claim_socket(path)?;
    let listener = UnixListener::bind(path)?;
    // Every live connection's stream, so the drain can close stragglers.
    let registry: Mutex<HashMap<u64, UnixStream>> = Mutex::new(HashMap::new());
    let mut next_id = 0u64;
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            if server.is_shutdown() {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let id = next_id;
            next_id += 1;
            if let Ok(clone) = stream.try_clone() {
                registry.lock().expect("connection registry poisoned").insert(id, clone);
            }
            let registry = &registry;
            scope.spawn(move || {
                let mut reader = io::BufReader::new(match stream.try_clone() {
                    Ok(clone) => clone,
                    Err(_) => return,
                });
                let mut writer = &stream;
                let _ = serve_connection(server, &mut reader, &mut writer);
                registry.lock().expect("connection registry poisoned").remove(&id);
                if server.is_shutdown() {
                    // Wake the blocking accept loop so it observes the flag.
                    let _ = UnixStream::connect(path);
                }
            });
        }
        // Bounded drain: let in-flight requests complete, then force the
        // rest closed so the scope's joins cannot hang on idle clients.
        let deadline = Instant::now() + Duration::from_millis(DRAIN_MS);
        while server.active_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        for (_, conn) in registry.lock().expect("connection registry poisoned").drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    });
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeOptions;

    #[test]
    fn bounded_reader_splits_lines_and_flags_oversized_ones() {
        let text = b"short\n".to_vec();
        let mut r = io::BufReader::new(&text[..]);
        assert_eq!(read_request_line(&mut r, 16).unwrap(), ReadLine::Line("short".into()));
        assert_eq!(read_request_line(&mut r, 16).unwrap(), ReadLine::Eof);

        let long = format!("{}\nafter\n", "x".repeat(100));
        let mut r = io::BufReader::with_capacity(8, long.as_bytes());
        assert_eq!(read_request_line(&mut r, 16).unwrap(), ReadLine::Oversized(100));
        // Framing survives: the next line is intact.
        assert_eq!(read_request_line(&mut r, 16).unwrap(), ReadLine::Line("after".into()));
    }

    #[test]
    fn unterminated_final_line_is_still_delivered() {
        let mut r = io::BufReader::new(&b"tail-no-newline"[..]);
        assert_eq!(
            read_request_line(&mut r, 64).unwrap(),
            ReadLine::Line("tail-no-newline".into())
        );
        assert_eq!(read_request_line(&mut r, 64).unwrap(), ReadLine::Eof);
    }

    #[test]
    fn a_connection_answers_each_line_and_survives_garbage() {
        let server = Server::new(ServeOptions::default());
        let input = b"{\"op\":\"ping\"}\n\nnot json\n{\"op\":\"ping\"}\n".to_vec();
        let mut out = Vec::new();
        serve_connection(&server, &mut io::BufReader::new(&input[..]), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3, "blank line is skipped: {lines:?}");
        assert_eq!(lines[0], "{\"ok\":true,\"op\":\"pong\"}");
        assert!(lines[1].contains("\"ok\":false"));
        assert_eq!(lines[2], lines[0]);
    }

    #[test]
    fn oversized_request_gets_an_error_and_the_connection_continues() {
        let server =
            Server::new(ServeOptions { max_request_bytes: 32, ..ServeOptions::default() });
        let input = format!(
            "{{\"op\":\"compile\",\"ddg\":\"{}\"}}\n{{\"op\":\"ping\"}}\n",
            "y".repeat(80)
        );
        let mut out = Vec::new();
        serve_connection(&server, &mut io::BufReader::new(input.as_bytes()), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("exceeds the 32-byte limit"), "{}", lines[0]);
        assert_eq!(lines[1], "{\"ok\":true,\"op\":\"pong\"}");
    }

    #[test]
    fn shutdown_ends_the_connection() {
        let server = Server::new(ServeOptions::default());
        let input = b"{\"op\":\"shutdown\"}\n{\"op\":\"ping\"}\n".to_vec();
        let mut out = Vec::new();
        serve_connection(&server, &mut io::BufReader::new(&input[..]), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 1, "no response after shutdown: {lines:?}");
        assert!(server.is_shutdown());
    }

    #[test]
    fn a_draining_connection_answers_its_current_request_then_closes() {
        let server = Server::new(ServeOptions::default());
        // Another connection already acknowledged shutdown...
        assert!(server.handle_line("{\"op\":\"shutdown\"}").shutdown);
        // ...so this one answers exactly one more request, then closes.
        let input = b"{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n".to_vec();
        let mut out = Vec::new();
        serve_connection(&server, &mut io::BufReader::new(&input[..]), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines, vec!["{\"ok\":true,\"op\":\"pong\"}"]);
        assert_eq!(server.active_connections(), 0, "the guard deregistered");
    }
}
