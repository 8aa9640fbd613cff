//! The `serve_mixed` workload: query traffic against `granula-cli serve`
//! over a 12-job fleet — one request at a time for latency, closed-loop
//! batches for throughput, and (traced runs) open-loop at fixed rates for
//! the per-layer latencies.
//!
//! The fleet is the fig5 store (built here, through the pipeline) plus
//! the committed choke-matrix stores. The daemon runs with a resident
//! budget below the fleet size, and the shard placement (the daemon's
//! own `shard_of`) splits the jobs in two: jobs in shards that fit the
//! budget stay resident once touched, jobs in over-full shards are
//! cycled so that every query on one finds it evicted. Requests fall in
//! three classes:
//!
//! * hot — a fixed roster of queries on resident jobs, answered from
//!   the result cache;
//! * warm — unique `[start..end]` window queries on resident jobs,
//!   answered from the index;
//! * cold — unique window queries on evicted jobs, which force an mmap
//!   decode, a CRC check and an index build.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use granula_archive::{
    format_ids, shard_of, Query, QueryEngine, QueryMode, ServeOptions, ServeSnapshot, ShardedEngine,
};

use crate::openloop::{self, uniform_due, Record, Scheduled, Summary};
use crate::spec::Report;
use crate::stats::percentile;

/// Traffic classes, in class-index order.
pub const CLASSES: [&str; 3] = ["hot", "warm", "cold"];
const HOT: usize = 0;
const WARM: usize = 1;
/// Class index of cold requests.
pub const COLD: usize = 2;

/// Requests per class (hot, warm, cold) in every block of [`BLOCK_LEN`]
/// consecutive requests; the order inside a block is drawn from the mix
/// seed. The shares are a choice, not a measurement of users: each class
/// gets about a third of the daemon's time in the throughput pass, so the
/// result cache, the index and the decode path move the throughput
/// alike. In batches of [`BATCH`] on a 2-vCPU host a hot request cost the
/// daemon about 4 µs (its answers are the longest), a warm one 2.4 µs and
/// a cold one 2.1 ms (`serve.cost_us.*`), hence 520 : 879 : 1; every
/// traced run records the split it measures (`serve.time_share.*`).
/// Exact counts per block keep every throughput chunk the same mix, so
/// chunk rates vary with the daemon, not with the draw.
const BLOCK: [usize; 3] = [520, 879, 1];
/// Requests per block.
pub const BLOCK_LEN: usize = BLOCK[HOT] + BLOCK[WARM] + BLOCK[COLD];

/// Daemon shards and resident jobs per shard: eight resident slots for
/// twelve jobs, the stated memory budget.
pub const SHARDS: usize = 4;
/// Decoded jobs each shard keeps resident.
pub const RESIDENT: usize = 2;

/// Base arrival rate, requests per second; the other fixed rates are
/// multiples of it.
pub const BASE_RPS: f64 = 2_000.0;
/// Seconds of base-rate traffic sent, untimed, before the measured passes.
pub const WARMUP_S: f64 = 2.0;
/// Multiples of [`BASE_RPS`] probed for the highest rate within the SLO.
pub const RATE_STEPS: [f64; 3] = [2.0, 4.0, 8.0];
/// Requests a closed-loop client keeps in flight in the throughput pass.
pub const BATCH: usize = 40;
/// Requests per throughput chunk: whole mix blocks.
pub const CHUNK_LEN: usize = 2 * BLOCK_LEN;
/// Requests and batch size per class in the single-class chunks that
/// price each class. Cold requests go one at a time, as they mostly do in
/// the mix, so that no batch shares one decode among several of them.
const PRICE: [(usize, usize); 3] = [(CHUNK_LEN, BATCH), (CHUNK_LEN, BATCH), (40, 1)];

/// Latency objective for `serve.max_rps_at_slo`: p99 from due time.
pub const SLO_P99_US: f64 = 10_000.0;

/// Every this many responses one is compared with the in-process engine.
const CHECK_EVERY: usize = 7;

/// Daemon spawns timed for `setup_s` (the last one stays up).
const SPAWNS: usize = 15;

/// Roster of hot queries, all in the shared domain vocabulary.
const ROSTER: [&str; 4] = ["Startup", "LoadGraph", "ProcessGraph", "*@Worker"];

/// SplitMix64: the query mix's deterministic random source.
#[derive(Debug, Clone)]
pub struct Mix(u64);

impl Mix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Mix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One request, in wire and in-process form.
#[derive(Debug, Clone)]
pub struct Request {
    /// Traffic class index.
    pub class: usize,
    /// Target job.
    pub job_id: String,
    /// Query text as sent.
    pub query: String,
}

impl Request {
    fn line(&self) -> String {
        format!("Q findall {} {}", self.job_id, self.query)
    }
}

/// The fleet as the query mix sees it.
pub struct Fleet {
    /// Fleet files, in daemon argument order.
    pub files: Vec<PathBuf>,
    /// Jobs that stay resident once touched.
    pub warm_jobs: Vec<String>,
    /// Over-full shards' jobs, one cycle per shard.
    pub cold_cycles: Vec<Vec<String>>,
    /// Each job's `(first start, last end)` time, µs.
    pub spans: BTreeMap<String, (u64, u64)>,
    /// In-process engines over the same files: the reference answers.
    pub reference: Vec<QueryEngine>,
}

impl Fleet {
    /// Loads the reference engines and splits the jobs by placement.
    pub fn open(files: Vec<PathBuf>) -> Result<Fleet, String> {
        let mut reference = Vec::new();
        let mut spans = BTreeMap::new();
        let mut by_shard: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for file in &files {
            let engine =
                QueryEngine::load(file).map_err(|e| format!("loading {}: {e}", file.display()))?;
            for archive in engine.store().iter() {
                let id = archive.meta.job_id.clone();
                let span = archive
                    .tree
                    .span_us()
                    .ok_or(format!("{id}: no timestamps"))?;
                spans.insert(id.clone(), span);
                by_shard.entry(shard_of(&id, SHARDS)).or_default().push(id);
            }
            reference.push(engine);
        }
        let mut warm_jobs = Vec::new();
        let mut cold_cycles = Vec::new();
        for (_, mut jobs) in by_shard {
            jobs.sort();
            if jobs.len() <= RESIDENT {
                warm_jobs.extend(jobs);
            } else {
                cold_cycles.push(jobs);
            }
        }
        if warm_jobs.is_empty() || cold_cycles.is_empty() {
            return Err(format!(
                "shard placement leaves no {} jobs",
                if warm_jobs.is_empty() {
                    "resident"
                } else {
                    "evicted"
                }
            ));
        }
        Ok(Fleet {
            files,
            warm_jobs,
            cold_cycles,
            spans,
            reference,
        })
    }

    /// The reference answer to `request`, rendered as the wire carries it.
    fn expected(&mut self, request: &Request) -> String {
        let Ok(query) = Query::parse(&request.query) else {
            return format!("ERR bad query {}", request.query);
        };
        for engine in &mut self.reference {
            if let Some(ids) = engine.query(&request.job_id, &query, QueryMode::FindAll) {
                return format!("OK {} {}", ids.len(), format_ids(&ids));
            }
        }
        format!("NOJOB {}", request.job_id)
    }

    /// A window query over a random slice (0.5–2 %) of `job`'s run.
    fn window(&self, job: &str, mix: &mut Mix) -> String {
        let (lo, hi) = self.spans[job];
        let len = (hi - lo).max(1);
        let width = ((len as f64) * (0.005 + 0.015 * mix.unit())) as u64 + 1;
        let start = lo + (mix.unit() * (len - width.min(len)) as f64) as u64;
        format!("*[{start}..{}]", start + width)
    }
}

/// The query mix's state: its random source, the window queries already
/// sent (windows never repeat, so only the roster is ever answered from
/// the result cache) and each over-full shard's place in its cycle (kept
/// across batches, so every cold query finds its job evicted).
pub struct Traffic {
    mix: Mix,
    used: HashSet<String>,
    cursor: Vec<usize>,
}

impl Traffic {
    /// A fresh mix over `fleet`, seeded with `seed`.
    pub fn new(fleet: &Fleet, seed: u64) -> Traffic {
        Traffic {
            mix: Mix::new(seed),
            used: HashSet::new(),
            cursor: vec![0; fleet.cold_cycles.len()],
        }
    }

    /// `n` requests of the mix, in blocks of [`BLOCK_LEN`].
    pub fn requests(&mut self, fleet: &Fleet, n: usize) -> Vec<Request> {
        let mut classes = Vec::new();
        (0..n)
            .map(|_| {
                if classes.is_empty() {
                    classes = self.block();
                }
                let class = classes.pop().expect("a block holds requests");
                self.request(fleet, class)
            })
            .collect()
    }

    /// `n` requests of class `class` only.
    pub fn class_requests(&mut self, fleet: &Fleet, class: usize, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.request(fleet, class)).collect()
    }

    /// The roster and one window per resident job: fills the caches
    /// before anything is timed.
    pub fn warmup(&mut self, fleet: &Fleet) -> Vec<Request> {
        let mut out = Vec::new();
        for job in &fleet.warm_jobs {
            for q in ROSTER {
                out.push(Request {
                    class: HOT,
                    job_id: job.clone(),
                    query: q.to_string(),
                });
            }
            let q = fleet.window(job, &mut self.mix);
            self.used.insert(format!("{job} {q}"));
            out.push(Request {
                class: WARM,
                job_id: job.clone(),
                query: q,
            });
        }
        out
    }

    /// One block's classes, shuffled (Fisher–Yates).
    fn block(&mut self) -> Vec<usize> {
        let mut classes: Vec<usize> = (0..CLASSES.len())
            .flat_map(|c| std::iter::repeat_n(c, BLOCK[c]))
            .collect();
        for i in (1..classes.len()).rev() {
            classes.swap(i, self.mix.below(i + 1));
        }
        classes
    }

    fn request(&mut self, fleet: &Fleet, class: usize) -> Request {
        loop {
            let mut cycle = None;
            let job_id = if class == COLD {
                let shard = self.mix.below(fleet.cold_cycles.len());
                let jobs = &fleet.cold_cycles[shard];
                cycle = Some(shard);
                jobs[self.cursor[shard] % jobs.len()].clone()
            } else {
                fleet.warm_jobs[self.mix.below(fleet.warm_jobs.len())].clone()
            };
            let query = if class == HOT {
                ROSTER[self.mix.below(ROSTER.len())].to_string()
            } else {
                fleet.window(&job_id, &mut self.mix)
            };
            if class != HOT && !self.used.insert(format!("{job_id} {query}")) {
                continue;
            }
            if let Some(shard) = cycle {
                self.cursor[shard] += 1;
            }
            return Request {
                class,
                job_id,
                query,
            };
        }
    }
}

/// A running `granula-cli serve`; shut down and reaped on drop.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The control connection (PING, STAT, SHUTDOWN).
    control: BufReader<TcpStream>,
    /// The daemon's address.
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon over `files` and waits for its first `PONG`.
    pub fn spawn(cli: &Path, files: &[PathBuf]) -> Result<Daemon, String> {
        let mut child = Command::new(cli)
            .arg("serve")
            .args(files)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--shards", &SHARDS.to_string()])
            .args(["--resident", &RESIDENT.to_string()])
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cli.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut stdout = BufReader::new(stdout);
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = match (read, banner.rsplit_once(" on ")) {
            (Ok(n), Some((_, addr))) if n > 0 => addr.trim().to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not announce its address: {banner:?}"));
            }
        };
        let connect = TcpStream::connect(&addr);
        let mut daemon = match connect {
            Ok(stream) => Daemon {
                child,
                stdout,
                control: BufReader::new(stream),
                addr,
            },
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("connecting to {addr}: {e}"));
            }
        };
        let pong = daemon.command("PING")?;
        if pong != "PONG" {
            return Err(format!("PING answered {pong:?}"));
        }
        Ok(daemon)
    }

    /// Sends one control line and returns the one-line answer.
    pub fn command(&mut self, line: &str) -> Result<String, String> {
        let stream = self.control.get_mut();
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("{line}: {e}"))?;
        let mut answer = String::new();
        self.control
            .read_line(&mut answer)
            .map_err(|e| format!("{line}: {e}"))?;
        Ok(answer.trim_end().to_string())
    }

    /// The daemon's serving counters.
    pub fn stat(&mut self) -> Result<ServeSnapshot, String> {
        let answer = self.command("STAT")?;
        let json = answer
            .strip_prefix("STAT ")
            .ok_or(format!("STAT answered {answer:?}"))?;
        serde_json::from_str(json).map_err(|e| format!("STAT payload: {e}"))
    }

    /// Process id, for the peak-memory probe.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `SHUTDOWN` and waits for the process to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = self.command("SHUTDOWN")?;
        // Drain the farewell line so the daemon never writes to a closed pipe.
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if bye != "BYE" || !status.success() {
            return Err(format!("daemon shutdown: {bye:?}, {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reaps a daemon left running by an error path; after `shutdown`
        // the process has exited and both calls are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns the daemon [`SPAWNS`] times, timing spawn → first `PONG`;
/// keeps the last one running and returns every timing.
pub fn spawn_timed(cli: &Path, files: &[PathBuf]) -> Result<(Daemon, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let daemon = Daemon::spawn(cli, files)?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() == SPAWNS {
            return Ok((daemon, times));
        }
        daemon.shutdown()?;
    }
}

/// Sends `requests` at `rate` and returns the records; every non-`OK`
/// answer, and every sampled answer that differs from the reference,
/// counts as failed.
pub fn send(
    stream: &TcpStream,
    fleet: &mut Fleet,
    requests: &[Request],
    rate: f64,
    report: &mut Report,
) -> Result<Vec<Record>, String> {
    let schedule: Vec<Scheduled> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| Scheduled {
            due: uniform_due(i, rate),
            class: r.class,
            line: r.line(),
        })
        .collect();
    let out = openloop::run(stream, &schedule).map_err(|e| format!("load at {rate}/s: {e}"))?;
    let (records, responses): (Vec<Record>, Vec<String>) = out.into_iter().unzip();
    check(fleet, requests, &responses, report);
    Ok(records)
}

/// Sends `requests` closed-loop — `batch` request lines in one write,
/// then their responses, then the next batch, the way `granula-cli
/// loadgen` clients drive the daemon — and returns each batch's round
/// trip, seconds. Answers are checked as [`send`] checks them.
pub fn batched(
    stream: &TcpStream,
    fleet: &mut Fleet,
    requests: &[Request],
    batch: usize,
    report: &mut Report,
) -> Result<Vec<f64>, String> {
    let mut writer = stream;
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(requests.len());
    let mut round_trips = Vec::with_capacity(requests.len().div_ceil(batch));
    let mut out = String::new();
    for group in requests.chunks(batch) {
        let start = Instant::now();
        out.clear();
        for request in group {
            out.push_str(&request.line());
            out.push('\n');
        }
        writer
            .write_all(out.as_bytes())
            .map_err(|e| format!("batched load: {e}"))?;
        for _ in group {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => return Err("daemon closed the connection mid-batch".into()),
                Ok(_) => responses.push(line.trim_end().to_string()),
                Err(e) => return Err(format!("batched load: {e}")),
            }
        }
        round_trips.push(start.elapsed().as_secs_f64());
    }
    check(fleet, requests, &responses, report);
    Ok(round_trips)
}

/// Requests completed per second over a [`batched`] pass.
pub fn rate(requests: usize, round_trips: &[f64]) -> f64 {
    requests as f64 / round_trips.iter().sum::<f64>()
}

/// Sends one block of the mix one request at a time — each written
/// after the previous answer arrived — and returns every request's round
/// trip, µs. One request in flight never leaves an answer waiting for an
/// ACK, so these are the daemon's answer times plus loopback, without the
/// open-loop passes' Nagle stall and generator lateness.
pub fn round_trip_chunk(
    stream: &TcpStream,
    fleet: &mut Fleet,
    traffic: &mut Traffic,
    report: &mut Report,
) -> Result<Vec<f64>, String> {
    let requests = traffic.requests(fleet, BLOCK_LEN);
    let times = batched(stream, fleet, &requests, 1, report)?;
    Ok(times.into_iter().map(|s| s * 1e6).collect())
}

/// Sends one throughput chunk ([`CHUNK_LEN`] requests, closed-loop in
/// batches of [`BATCH`]) and returns its requests completed per second.
pub fn throughput_chunk(
    stream: &TcpStream,
    fleet: &mut Fleet,
    traffic: &mut Traffic,
    report: &mut Report,
) -> Result<f64, String> {
    let requests = traffic.requests(fleet, CHUNK_LEN);
    let round_trips = batched(stream, fleet, &requests, BATCH, report)?;
    Ok(rate(CHUNK_LEN, &round_trips))
}

/// Counts every request as attempted, and as failed when its answer is
/// not `OK` or, for every [`CHECK_EVERY`]th, differs from the in-process
/// reference.
fn check(fleet: &mut Fleet, requests: &[Request], responses: &[String], report: &mut Report) {
    for (i, (request, response)) in requests.iter().zip(responses).enumerate() {
        report.attempted += 1;
        if !response.starts_with("OK ") {
            report.failed += 1;
            report.fail(format!("{}: answered {response:?}", request.line()), false);
        } else if i % CHECK_EVERY == 0 {
            let want = fleet.expected(request);
            if *response != want {
                report.failed += 1;
                report.fail(
                    format!(
                        "{}: served {response:?}, in-process {want:?}",
                        request.line()
                    ),
                    false,
                );
            }
        }
    }
}

/// What one request of each class costs the daemon, µs: the inverse of
/// the closed-loop completion rate of a chunk that holds only that class.
pub fn class_costs(
    stream: &TcpStream,
    fleet: &mut Fleet,
    traffic: &mut Traffic,
    report: &mut Report,
) -> Result<[f64; 3], String> {
    let mut costs = [0.0; 3];
    for (class, cost) in costs.iter_mut().enumerate() {
        let (n, batch) = PRICE[class];
        let requests = traffic.class_requests(fleet, class, n);
        *cost = 1e6 / rate(n, &batched(stream, fleet, &requests, batch, report)?);
    }
    Ok(costs)
}

/// Each class's share of the daemon's time under the mix: its share of
/// the requests times its cost, normalised.
pub fn time_shares(costs: &[f64; 3]) -> [f64; 3] {
    let weight: Vec<f64> = (0..3).map(|c| BLOCK[c] as f64 * costs[c]).collect();
    let total: f64 = weight.iter().sum();
    std::array::from_fn(|c| if total > 0.0 { weight[c] / total } else { 0.0 })
}

/// Per-class engine latencies of `requests` replayed in-process through
/// `ShardedEngine::query` on one thread, µs; and the replay's wall time.
pub fn replay(engine: &ShardedEngine, requests: &[Request]) -> ([Vec<f64>; 3], f64) {
    let mut per_class: [Vec<f64>; 3] = Default::default();
    let start = Instant::now();
    for request in requests {
        let query = Query::parse(&request.query).expect("generated queries parse");
        let t = Instant::now();
        let answer = engine.query(&request.job_id, &query, QueryMode::FindAll);
        per_class[request.class].push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(answer.ok());
    }
    (per_class, start.elapsed().as_secs_f64())
}

/// Opens the fleet in-process with the daemon's options.
pub fn open_engine(files: &[PathBuf]) -> Result<ShardedEngine, String> {
    let options = ServeOptions {
        shards: SHARDS,
        resident_capacity: RESIDENT,
        ..ServeOptions::default()
    };
    ShardedEngine::open_fleet(files, options).map_err(|e| format!("open_fleet: {e}"))
}

/// True when a pass met the SLO without a growing backlog.
pub fn meets_slo(summary: &Summary) -> bool {
    summary.p99_us <= SLO_P99_US && summary.tail_p50_us <= SLO_P99_US
}

/// Counter deltas between two `STAT` snapshots.
pub fn stat_delta(before: &ServeSnapshot, after: &ServeSnapshot) -> BTreeMap<&'static str, f64> {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let hits = d(after.cache_hits, before.cache_hits);
    let misses = d(after.cache_misses, before.cache_misses);
    let mut out = BTreeMap::new();
    out.insert(
        "archive.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.insert("archive.admissions", d(after.admissions, before.admissions));
    out.insert(
        "archive.resident_evictions",
        d(after.resident_evictions, before.resident_evictions),
    );
    out.insert(
        "archive.decode_races",
        d(after.decode_races, before.decode_races),
    );
    out
}

/// p50 and p99 of one class's samples (0 when the class is empty).
pub fn class_percentiles(samples: &[f64]) -> (f64, f64) {
    (
        percentile(samples, 50.0).unwrap_or(0.0),
        percentile(samples, 99.0).unwrap_or(0.0),
    )
}

/// Sleeps briefly between passes so one pass's tail does not overlap
/// the next pass's start.
pub fn settle() {
    std::thread::sleep(Duration::from_millis(20));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_holds_the_exact_mix() {
        let traffic = |seed| Traffic {
            mix: Mix::new(seed),
            used: HashSet::new(),
            cursor: Vec::new(),
        };
        let mut a = traffic(5);
        let first = a.block();
        assert_eq!(first.len(), BLOCK_LEN);
        for block in [first.clone(), a.block(), traffic(6).block()] {
            for (class, want) in BLOCK.iter().enumerate() {
                assert_eq!(block.iter().filter(|&&c| c == class).count(), *want);
            }
        }
        assert_eq!(traffic(5).block(), first, "same seed, same order");
        assert_ne!(traffic(6).block(), first, "the seed shuffles the block");
    }

    #[test]
    fn time_shares_weigh_costs_by_request_share() {
        let shares = time_shares(&[1.0, 1.0, 1.0]);
        let total = BLOCK_LEN as f64;
        for (class, share) in shares.iter().enumerate() {
            assert!((share - BLOCK[class] as f64 / total).abs() < 1e-12);
        }
        // Pricing each class at the inverse of its share splits the time evenly.
        let even = time_shares(&std::array::from_fn(|c| 1.0 / BLOCK[c] as f64));
        assert!(
            even.iter().all(|s| (s - 1.0 / 3.0).abs() < 1e-12),
            "{even:?}"
        );
        assert_eq!(time_shares(&[0.0; 3]), [0.0; 3]);
    }

    #[test]
    fn mix_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut m = Mix::new(7);
                move |_| m.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut m = Mix::new(7);
                move |_| m.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let mut m = Mix::new(8);
        assert_ne!(a[0], m.next_u64());
        for _ in 0..1000 {
            let u = m.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(m.below(3) < 3);
        }
    }
}
