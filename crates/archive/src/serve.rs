//! The archive daemon: a line protocol over TCP in front of
//! [`ShardedEngine`].
//!
//! `granula-cli serve` binds this server over a fleet of `.gar` files
//! and keeps it up; analysts (or a benchmark client, or the future viz
//! UI) connect with any TCP client. The protocol is deliberately plain —
//! one UTF-8 line per request, one line per response — so `nc` works as
//! a debugging client and the responses are trivially comparable against
//! in-process results:
//!
//! ```text
//! → Q findall <job-id> <query>       ← OK <n> <id,id,...>   ("-" when empty)
//! → Q select  <job-id> <query>       ← OK <n> <id,id,...>
//!                                    ← NOJOB <job-id>        (unknown job)
//!                                    ← ERR <message>         (bad request / integrity)
//! → JOBS                             ← JOBS <n> <id> <id> ...
//! → STAT                             ← STAT <json ServeSnapshot>
//! → PING                             ← PONG
//! → SHUTDOWN                         ← BYE        (daemon exits)
//!                                    ← ERR shutdown not permitted
//! ```
//!
//! Only a loopback peer may stop the daemon: a `SHUTDOWN` from any other
//! address (IPv4-mapped loopback counts as loopback) is refused and the
//! connection stays open, so a daemon bound to `0.0.0.0` cannot be shut
//! down from another host.
//!
//! A line longer than [`MAX_LINE`] bytes is answered `ERR line too long`
//! and the connection is closed, so a client that never sends a newline
//! cannot grow the daemon's memory without bound.
//!
//! **Batching:** every chunk of complete lines a connection has readable
//! at once is parsed as one batch and the `Q` members answered through
//! [`ShardedEngine::query_batch`] — grouped by shard, one snapshot and
//! one cache-lock amortization per shard group. A pipelining client
//! (write N requests, then read N responses) gets batch semantics
//! automatically; a lockstep client degrades to batches of one.
//!
//! **Bit-identical responses:** result ids are rendered by
//! [`format_ids`], and the serve E2E test renders the linear scans
//! ([`Query::scan`]) through the same function to assert byte equality
//! of what the wire carries.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use granula_model::OpId;

use crate::query::{Query, QueryMode};
use crate::shard::ShardedEngine;

/// Longest partial request line a connection may buffer, in bytes.
pub const MAX_LINE: usize = 64 * 1024;

/// Renders a result id list the way the wire protocol carries it:
/// comma-separated ids, `-` for the empty set. Shared by the server and
/// the bit-identical comparison in tests.
pub fn format_ids(ids: &[OpId]) -> String {
    if ids.is_empty() {
        return "-".to_string();
    }
    let mut out = String::with_capacity(ids.len() * 4);
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&id.0.to_string());
    }
    out
}

/// One parsed request line.
enum Request {
    Query {
        mode: QueryMode,
        job_id: String,
        query: Query,
    },
    Jobs,
    Stat,
    Ping,
    Shutdown,
    /// Unparseable line, answered with `ERR` (the connection survives).
    Bad(String),
}

fn parse_line(line: &str) -> Request {
    let line = line.trim();
    let mut parts = line.splitn(4, ' ');
    match parts.next() {
        Some("Q") => {
            let mode = match parts.next() {
                Some("select") => QueryMode::Select,
                Some("findall") => QueryMode::FindAll,
                other => {
                    return Request::Bad(format!(
                        "bad mode {:?} (expected select|findall)",
                        other.unwrap_or("")
                    ))
                }
            };
            let Some(job_id) = parts.next() else {
                return Request::Bad("missing job id".into());
            };
            let Some(text) = parts.next() else {
                return Request::Bad("missing query".into());
            };
            match Query::parse(text) {
                Ok(query) => Request::Query {
                    mode,
                    job_id: job_id.to_string(),
                    query,
                },
                Err(e) => Request::Bad(format!("bad query: {e}")),
            }
        }
        Some("JOBS") => Request::Jobs,
        Some("STAT") => Request::Stat,
        Some("PING") => Request::Ping,
        Some("SHUTDOWN") => Request::Shutdown,
        other => Request::Bad(format!("unknown command {:?}", other.unwrap_or(""))),
    }
}

/// A bound, not-yet-running archive daemon.
pub struct Server {
    engine: Arc<ShardedEngine>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) over
    /// `engine`.
    pub fn bind(engine: Arc<ShardedEngine>, addr: &str) -> io::Result<Server> {
        Ok(Server {
            engine,
            listener: TcpListener::bind(addr)?,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The engine being served.
    pub fn engine(&self) -> &Arc<ShardedEngine> {
        &self.engine
    }

    /// A flag that, once set, stops the accept loop at its next
    /// iteration (pair with a dummy connect to unblock `accept`; the
    /// `SHUTDOWN` command does both).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Accepts connections until `SHUTDOWN` is received (or the shutdown
    /// flag is set externally and a final connection arrives). Each
    /// connection gets its own thread; request batching happens per
    /// connection.
    ///
    /// Nagle's algorithm is off on every accepted socket: each batch's
    /// answers go out in one write, and holding that write back until the
    /// client's next request carries the ACK would add one arrival gap to
    /// every answer an open-loop client waits for.
    pub fn run(self) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        for conn in self.listener.incoming() {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // Best effort: a socket that refuses the option still serves.
            let _ = stream.set_nodelay(true);
            let engine = Arc::clone(&self.engine);
            let shutdown = Arc::clone(&self.shutdown);
            std::thread::spawn(move || {
                // A connection error tears down that client only.
                let _ = handle_connection(stream, &engine, &shutdown, addr);
            });
        }
        Ok(())
    }
}

/// Whether a `SHUTDOWN` from `peer` is honoured: loopback peers only.
fn shutdown_permitted(peer: IpAddr) -> bool {
    peer.to_canonical().is_loopback()
}

/// Reads line batches off one connection until EOF or shutdown.
fn handle_connection(
    mut stream: TcpStream,
    engine: &ShardedEngine,
    shutdown: &AtomicBool,
    server_addr: SocketAddr,
) -> io::Result<()> {
    let may_shutdown = stream
        .peer_addr()
        .is_ok_and(|peer| shutdown_permitted(peer.ip()));
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(());
        }
        // Split off every *complete* line received so far; a trailing
        // partial line waits for the next read. Everything complete in
        // this chunk is one batch. Bytes already in `pending` hold no
        // newline, so only the new ones are scanned.
        let Some(last_newline) = chunk[..n].iter().rposition(|&b| b == b'\n') else {
            if pending.len() + n > MAX_LINE {
                stream.write_all(b"ERR line too long\n")?;
                // FIN right after the answer, so the client reads it and
                // then EOF even though its unread bytes are dropped.
                return stream.shutdown(Shutdown::Write);
            }
            pending.extend_from_slice(&chunk[..n]);
            continue;
        };
        let last_newline = pending.len() + last_newline;
        pending.extend_from_slice(&chunk[..n]);
        let rest = pending.split_off(last_newline + 1);
        let batch_bytes = std::mem::replace(&mut pending, rest);
        let lines: Vec<String> = batch_bytes
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .collect();

        let requests: Vec<Request> = lines.iter().map(|l| parse_line(l)).collect();
        let queries: Vec<(String, Query, QueryMode)> = requests
            .iter()
            .filter_map(|r| match r {
                Request::Query {
                    mode,
                    job_id,
                    query,
                } => Some((job_id.clone(), query.clone(), *mode)),
                _ => None,
            })
            .collect();
        let mut answers = engine.query_batch(&queries).into_iter();

        let mut out = String::new();
        let mut stop = false;
        for request in &requests {
            match request {
                Request::Query { job_id, .. } => {
                    match answers.next().expect("one answer per query") {
                        Ok(Some(ids)) => {
                            out.push_str(&format!("OK {} {}\n", ids.len(), format_ids(&ids)))
                        }
                        Ok(None) => out.push_str(&format!("NOJOB {job_id}\n")),
                        Err(e) => out.push_str(&format!("ERR {e}\n")),
                    }
                }
                Request::Jobs => {
                    let ids = engine.job_ids();
                    out.push_str(&format!("JOBS {}", ids.len()));
                    for id in ids {
                        out.push(' ');
                        out.push_str(&id);
                    }
                    out.push('\n');
                }
                Request::Stat => {
                    let json = serde_json::to_string(&engine.snapshot())
                        .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
                    out.push_str(&format!("STAT {json}\n"));
                }
                Request::Ping => out.push_str("PONG\n"),
                Request::Shutdown if may_shutdown => {
                    out.push_str("BYE\n");
                    stop = true;
                }
                Request::Shutdown => out.push_str("ERR shutdown not permitted\n"),
                Request::Bad(msg) => out.push_str(&format!("ERR {}\n", msg.replace('\n', " "))),
            }
        }
        stream.write_all(out.as_bytes())?;
        stream.flush()?;
        if stop {
            shutdown.store(true, Ordering::Release);
            // Unblock the accept loop so `run` observes the flag.
            let _ = TcpStream::connect(server_addr);
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_ids_renders_empty_and_lists() {
        assert_eq!(format_ids(&[]), "-");
        assert_eq!(format_ids(&[OpId(0)]), "0");
        assert_eq!(format_ids(&[OpId(3), OpId(7), OpId(12)]), "3,7,12");
    }

    #[test]
    fn overlong_line_gets_err_and_close_while_the_server_stays_up() {
        use crate::shard::ServeOptions;
        use crate::store::ArchiveStore;

        let engine = Arc::new(ShardedEngine::from_store(
            ArchiveStore::new(),
            ServeOptions::default(),
        ));
        let server = Server::bind(engine, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let daemon = std::thread::spawn(move || server.run());

        // 1 MiB without a newline, from a writer thread: the server stops
        // reading at the cap, so the write may fail once it closes.
        let hostile = TcpStream::connect(addr).unwrap();
        let mut writer = hostile.try_clone().unwrap();
        let flood = std::thread::spawn(move || {
            let _ = writer.write_all(&vec![b'x'; 1 << 20]);
        });
        hostile
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut reply = Vec::new();
        let mut reader = hostile;
        let mut buf = [0u8; 256];
        loop {
            match reader.read(&mut buf).unwrap() {
                0 => break,
                n => reply.extend_from_slice(&buf[..n]),
            }
        }
        assert_eq!(reply, b"ERR line too long\n");
        flood.join().unwrap();

        let mut fresh = TcpStream::connect(addr).unwrap();
        fresh.write_all(b"PING\nSHUTDOWN\n").unwrap();
        let mut answer = String::new();
        fresh.read_to_string(&mut answer).unwrap();
        assert_eq!(answer, "PONG\nBYE\n");
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn only_loopback_peers_may_shut_down() {
        for (peer, permitted) in [
            ("127.0.0.1", true),
            ("::1", true),
            ("::ffff:127.0.0.1", true),
            ("192.0.2.7", false),
            ("::ffff:192.0.2.7", false),
            ("2001:db8::1", false),
        ] {
            let ip: IpAddr = peer.parse().unwrap();
            assert_eq!(shutdown_permitted(ip), permitted, "{peer}");
        }
    }

    #[test]
    fn parse_rejects_malformed_lines_gracefully() {
        assert!(matches!(
            parse_line("Q findall j Compute"),
            Request::Query { .. }
        ));
        assert!(matches!(
            parse_line("Q sideways j Compute"),
            Request::Bad(_)
        ));
        assert!(matches!(parse_line("Q findall"), Request::Bad(_)));
        assert!(matches!(parse_line("Q findall j -bad-"), Request::Bad(_)));
        assert!(matches!(parse_line("NOPE"), Request::Bad(_)));
        assert!(matches!(parse_line("PING"), Request::Ping));
        assert!(matches!(parse_line("  SHUTDOWN  "), Request::Shutdown));
    }
}
