//! Open-loop request generator over one pipelined TCP connection.
//!
//! Requests go out at fixed arrival times whether or not earlier ones
//! were answered: a writer thread sends each line when it is due
//! (coalescing every line already due into one write), and a reader
//! thread takes the in-order responses off the same connection. Each
//! request is timed from its *due* time, not from when it was sent, so a
//! stall that holds the writer back — a full socket buffer, a descheduled
//! thread — counts against every request it delayed instead of vanishing
//! from the sample (coordinated omission). How late the writer ran is
//! reported separately, and classes keep their own samples.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::stats::percentile;

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// Offset of the arrival time from the start of the run.
    pub due: Duration,
    /// Traffic class index (into the caller's class list).
    pub class: usize,
    /// The request line, without the trailing newline.
    pub line: String,
}

/// One request's timeline, microseconds since the start of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Traffic class index.
    pub class: usize,
    /// When the request was due.
    pub due_us: f64,
    /// When it was written to the socket.
    pub sent_us: f64,
    /// When its response had been read in full.
    pub done_us: f64,
}

impl Record {
    /// Latency from the due time: what a user arriving on schedule saw.
    pub fn latency_us(&self) -> f64 {
        self.done_us - self.due_us
    }

    /// How late the generator sent the request.
    pub fn late_us(&self) -> f64 {
        (self.sent_us - self.due_us).max(0.0)
    }
}

/// Fixed-rate schedule: request `i` is due at `i / rate` seconds.
pub fn uniform_due(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Sends `schedule` (sorted by due time) over `stream` open-loop and
/// returns each request's record and response line, in schedule order.
pub fn run(stream: &TcpStream, schedule: &[Scheduled]) -> std::io::Result<Vec<(Record, String)>> {
    let mut writer = stream.try_clone()?;
    let reader = stream.try_clone()?;
    let start = Instant::now();
    let n = schedule.len();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> std::io::Result<Vec<f64>> {
            let mut sent = Vec::with_capacity(n);
            let mut buf = String::new();
            let mut i = 0;
            while i < n {
                wait_until(start, schedule[i].due);
                // Everything already due goes out in one write.
                let now = start.elapsed();
                buf.clear();
                let first = i;
                while i < n && schedule[i].due <= now {
                    buf.push_str(&schedule[i].line);
                    buf.push('\n');
                    i += 1;
                }
                writer.write_all(buf.as_bytes())?;
                let at = start.elapsed().as_secs_f64() * 1e6;
                sent.extend(std::iter::repeat_n(at, i - first));
            }
            writer.flush()?;
            Ok(sent)
        });
        let receiver = scope.spawn(move || -> std::io::Result<Vec<(f64, String)>> {
            let mut lines = BufReader::new(reader);
            let mut done = Vec::with_capacity(n);
            let mut line = String::new();
            for _ in 0..n {
                line.clear();
                if lines.read_line(&mut line)? == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "daemon closed the connection mid-run",
                    ));
                }
                done.push((
                    start.elapsed().as_secs_f64() * 1e6,
                    line.trim_end().to_string(),
                ));
            }
            Ok(done)
        });
        let sent = sender.join().expect("sender thread panicked")?;
        let done = receiver.join().expect("receiver thread panicked")?;
        Ok(schedule
            .iter()
            .zip(sent)
            .zip(done)
            .map(|((s, sent_us), (done_us, response))| {
                (
                    Record {
                        class: s.class,
                        due_us: s.due.as_secs_f64() * 1e6,
                        sent_us,
                        done_us,
                    },
                    response,
                )
            })
            .collect())
    })
}

/// Sleeps until shortly before `due`, then yields until it arrives; the
/// short spin keeps the send close to its due time without a core
/// spinning between requests.
fn wait_until(start: Instant, due: Duration) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = start.elapsed();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Latency and lateness summary of a set of records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Requests.
    pub n: usize,
    /// Median latency from due time, µs.
    pub p50_us: f64,
    /// 90th-percentile latency from due time, µs.
    pub p90_us: f64,
    /// 99th-percentile latency from due time, µs.
    pub p99_us: f64,
    /// 99th-percentile generator lateness, µs.
    pub late_p99_us: f64,
    /// Median latency of the last tenth of requests, µs: grows with the
    /// backlog when the arrival rate exceeds what the daemon serves.
    pub tail_p50_us: f64,
}

/// Summarizes the records of class `class`, or of all classes when
/// `None`. `None` when no record matches.
pub fn summarize(records: &[Record], class: Option<usize>) -> Option<Summary> {
    let picked: Vec<&Record> = records
        .iter()
        .filter(|r| class.is_none_or(|c| r.class == c))
        .collect();
    if picked.is_empty() {
        return None;
    }
    let latency: Vec<f64> = picked.iter().map(|r| r.latency_us()).collect();
    let late: Vec<f64> = picked.iter().map(|r| r.late_us()).collect();
    let tail = &latency[latency.len() - latency.len().div_ceil(10)..];
    Some(Summary {
        n: picked.len(),
        p50_us: percentile(&latency, 50.0)?,
        p90_us: percentile(&latency, 90.0)?,
        p99_us: percentile(&latency, 99.0)?,
        late_p99_us: percentile(&late, 99.0)?,
        tail_p50_us: percentile(tail, 50.0)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn latency_counts_from_the_due_time_through_a_stall() {
        // Synthetic stall: requests due every 1 ms, but the writer was
        // held back 50 ms at request 10 and sent 10..=59 in one burst at
        // 60 ms; the service itself answers 100 µs after each send.
        let records: Vec<Record> = (0..100)
            .map(|i| {
                let due = i as f64 * 1000.0;
                let sent = if (10..60).contains(&i) { 60_000.0 } else { due };
                Record {
                    class: 0,
                    due_us: due,
                    sent_us: sent,
                    done_us: sent + 100.0,
                }
            })
            .collect();
        let s = summarize(&records, None).expect("records");
        // Timed from the send, every request would read 100 µs. From the
        // due time, request 10 waited 50 ms and the p99 shows it.
        assert_eq!(records[10].latency_us(), 50_100.0);
        assert!(s.p99_us >= 49_000.0, "{s:?}");
        assert!(
            s.late_p99_us >= 49_000.0,
            "the generator reports running late"
        );
        let send_based: Vec<f64> = records.iter().map(|r| r.done_us - r.sent_us).collect();
        assert_eq!(percentile(&send_based, 99.0), Some(100.0));
    }

    #[test]
    fn classes_keep_their_own_samples() {
        let records = vec![
            Record {
                class: 0,
                due_us: 0.0,
                sent_us: 0.0,
                done_us: 10.0,
            },
            Record {
                class: 1,
                due_us: 0.0,
                sent_us: 0.0,
                done_us: 5_000.0,
            },
            Record {
                class: 0,
                due_us: 10.0,
                sent_us: 10.0,
                done_us: 30.0,
            },
        ];
        assert_eq!(summarize(&records, Some(0)).expect("class 0").p99_us, 20.0);
        assert_eq!(
            summarize(&records, Some(1)).expect("class 1").p99_us,
            5_000.0
        );
        assert_eq!(summarize(&records, Some(2)), None);
        assert_eq!(summarize(&records, None).expect("all").n, 3);
    }

    #[test]
    fn open_loop_keeps_sending_while_the_server_stalls() {
        // A server that reads nothing for 80 ms, then echoes one line per
        // request. Requests due during the stall must carry the stall in
        // their latency even though the writer was not blocked.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            std::thread::sleep(Duration::from_millis(80));
            let mut seen = 0;
            let mut buf = [0u8; 4096];
            while seen < 20 {
                let n = conn.read(&mut buf).expect("read");
                if n == 0 {
                    break;
                }
                let lines = buf[..n].iter().filter(|&&b| b == b'\n').count();
                for _ in 0..lines {
                    conn.write_all(b"OK\n").expect("write");
                }
                seen += lines;
            }
        });
        let stream = TcpStream::connect(addr).expect("connect");
        let schedule: Vec<Scheduled> = (0..20)
            .map(|i| Scheduled {
                due: uniform_due(i, 1000.0),
                class: 0,
                line: format!("PING {i}"),
            })
            .collect();
        let out = run(&stream, &schedule).expect("run");
        server.join().expect("server thread");
        assert_eq!(out.len(), 20);
        assert!(out.iter().all(|(_, resp)| resp == "OK"));
        // The first request waited out the whole stall.
        assert!(out[0].0.latency_us() >= 70_000.0, "{:?}", out[0].0);
        // Sends stayed on schedule: the writer never waited for replies.
        let late = summarize(
            &out.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>(),
            None,
        )
        .expect("records")
        .late_p99_us;
        assert!(late < 40_000.0, "late p99 {late} µs");
    }
}
