//! Wall-clock benchmark of Granula itself.
//!
//! ```text
//! perfbench --workload <fig5|matrix32|serve_mixed> [--seed N] [--mix-seed N]
//!           [--seconds S] [--trace 0|1] [--cli path/to/granula-cli]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs an untraced and a traced pass and reports the
//! per-layer metrics (their difference is the tracing overhead). The
//! last line of standard output is the result object; the run exits
//! non-zero when any output check fails. Details — the host block,
//! sample counts and quartiles, the per-layer table and the self-trace
//! `.gar` — go under `.perfbench/<workload>/` in the working directory.
//! `perfbench/run.py` builds this program and `granula-cli` and runs it.
//!
//! `--seed` seeds the graph (default `DG_SEED`), `--mix-seed` the query
//! mix (default: the graph seed). Seed 4242 is held out: a claim made
//! with other seeds is re-checked on it.

mod heap;
mod host;
mod layers;
mod openloop;
mod pipeline;
mod serve;
mod spec;
mod stats;

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use granula::calibration::DG_SEED;

use crate::host::{escape, peak_rss_mb, Host};
use crate::layers::{JobTrace, LayerSums};
use crate::pipeline::{JobOutcome, JobSpec, MakespanCheck};
use crate::spec::{json_number, Report, WORKLOADS};
use crate::stats::{median, Spread};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

/// Per-layer metrics only the serving workload exercises; the pipeline
/// workloads report them as 0.
const SERVE_LAYERS: [&str; 30] = [
    "archive.open_s",
    "archive.engine_p50_us.hot",
    "archive.engine_p50_us.warm",
    "archive.engine_p50_us.cold",
    "archive.engine_p99_us.hot",
    "archive.engine_p99_us.warm",
    "archive.engine_p99_us.cold",
    "archive.cache_hit_ratio",
    "archive.admissions",
    "archive.resident_evictions",
    "archive.decode_races",
    "serve.wire_us",
    "serve.query_p50_us",
    "serve.query_p90_us",
    "serve.query_p99_us",
    "serve.hot_p50_us",
    "serve.warm_p50_us",
    "serve.cold_p50_us",
    "serve.hot_p99_us",
    "serve.warm_p99_us",
    "serve.cold_p99_us",
    "serve.cost_us.hot",
    "serve.cost_us.warm",
    "serve.cost_us.cold",
    "serve.time_share.hot",
    "serve.time_share.warm",
    "serve.time_share.cold",
    "serve.max_rps_at_slo",
    "serve.samples",
    "loadgen.late_p99_us",
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    mix_seed: u64,
    seconds: f64,
    trace: bool,
    cli: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Option<&String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
    };
    let number = |name: &str, default: u64| -> Result<u64, String> {
        value(name).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{name} {v}: {e}"))
        })
    };
    let workload = value("--workload").ok_or("--workload is required")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = number("--seed", DG_SEED)?;
    let seconds = number("--seconds", 10)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        mix_seed: number("--mix-seed", seed)?,
        seconds: seconds as f64,
        trace: match value("--trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
        },
        cli: value("--cli").map(PathBuf::from),
    })
}

/// Within-run samples per metric, for the result file's quartiles.
type Samples = BTreeMap<&'static str, Vec<f64>>;

/// What a workload hands back besides the report.
#[derive(Default)]
struct Extras {
    samples: Samples,
    traces: Vec<JobTrace>,
    table: String,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("working directory");
    let out_dir = root.join(".perfbench").join(&args.workload);
    if let Err(e) = std::fs::create_dir_all(out_dir.join("jobs")) {
        eprintln!("perfbench: creating {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let host = Host::detect(&root);
    let mut report = Report::default();
    let mut extras = Extras::default();
    let outcome = match args.workload.as_str() {
        "serve_mixed" => serve_workload(&args, &root, &out_dir, &mut report, &mut extras),
        _ => pipeline_workload(&args, &out_dir, &mut report, &mut extras),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(1);
    }
    if args.trace {
        let attempted = report.attempted.max(1) as f64;
        report.set("harness.error_rate", report.failed as f64 / attempted);
        match layers::write_self_trace(&out_dir, &args.workload, args.seed, &extras.traces) {
            Ok(path) => println!("self-trace: {}", path.display()),
            Err(e) => report.fail(format!("writing the self-trace: {e}"), false),
        }
    }
    let line = match report.finish(args.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let result_path = out_dir.join(format!(
        "result-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    let record = result_record(&args, &host, &extras.samples, &line);
    if let Err(e) = std::fs::write(&result_path, record) {
        eprintln!("perfbench: writing {}: {e}", result_path.display());
        return ExitCode::from(1);
    }
    println!(
        "host: {} cores, {} MiB, kernel {}, revision {}",
        host.cores, host.mem_total_mb, host.kernel, host.git_rev
    );
    print!("{}", extras.table);
    println!("details: {}", result_path.display());
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn result_record(args: &Args, host: &Host, samples: &Samples, line: &str) -> String {
    let mut spread = String::new();
    for (i, (name, values)) in samples.iter().enumerate() {
        let Some(s) = Spread::of(values) else {
            continue;
        };
        if i > 0 {
            spread.push_str(",\n    ");
        }
        let _ = write!(
            spread,
            "\"{name}\": {{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
            s.n,
            json_number(s.q1),
            json_number(s.median),
            json_number(s.q3)
        );
    }
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"mix_seed\": {},\n  \"seconds\": {},\n  \
         \"trace\": {},\n  \"host\": {},\n  \"samples\": {{\n    {spread}\n  }},\n  \"result\": {line}\n}}\n",
        escape(&args.workload),
        args.seed,
        args.mix_seed,
        args.seconds,
        args.trace,
        host.to_json()
    )
}

/// Runs whole passes over `jobs` until `budget_s` has elapsed (at least
/// one pass). Returns every outcome and each pass's wall seconds.
fn passes(
    jobs: &[JobSpec],
    prepared: &pipeline::Prepared,
    refs: &[gpsim_platforms::AlgorithmOutput],
    dir: &Path,
    budget_s: f64,
    check: &mut MakespanCheck,
    report: &mut Report,
) -> (Vec<JobOutcome>, Vec<f64>) {
    let start = Instant::now();
    let mut outcomes = Vec::new();
    let mut pass_s = Vec::new();
    while pass_s.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for ((job, process), reference) in jobs.iter().zip(&prepared.processes).zip(refs) {
            let outcome = pipeline::run_job(job, &prepared.graph, process, reference, dir, report);
            check.observe(&outcome, report);
            outcomes.push(outcome);
        }
        pass_s.push(t.elapsed().as_secs_f64());
    }
    (outcomes, pass_s)
}

/// The typical job's latency: each job's mean wall time (run through
/// the checks), combined over the workload's jobs by geometric mean, ms.
/// Every job weighs the same, so a change to the short jobs shows here
/// even when the long ones set the throughput. The mean, not the median:
/// the shared host runs in fast and slow stretches of a few seconds, and
/// a job's median jumps between the two as their shares cross one half.
fn job_latency_ms(outcomes: &[JobOutcome]) -> f64 {
    let mut walls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for o in outcomes {
        walls.entry(&o.job_id).or_default().push(o.wall_s * 1e3);
    }
    let log_sum: f64 = walls
        .values()
        .map(|w| (w.iter().sum::<f64>() / w.len() as f64).ln())
        .sum();
    (log_sum / walls.len() as f64).exp()
}

/// Sums the per-layer values of traced outcomes.
fn sum_layers(outcomes: &[JobOutcome]) -> LayerSums {
    let mut sums = LayerSums::default();
    for o in outcomes {
        sums.jobs += o.layers.jobs;
        for (name, v) in &o.layers.sums {
            sums.add(name, *v);
        }
    }
    sums
}

/// Sets the pipeline layers' per-layer metrics from traced outcomes:
/// per-job means, except `cluster.partitioned_jobs`, the number of
/// distinct jobs whose run took the partitioned engine.
fn set_pipeline_layers(report: &mut Report, outcomes: &[JobOutcome], gen_s: f64) {
    let sums = sum_layers(outcomes);
    report.set("graph.gen_s", gen_s);
    for name in [
        "platforms.run_s",
        "platforms.program_s",
        "platforms.build_dag_s",
        "platforms.emit_events_s",
        "platforms.events",
        "cluster.simulate_s",
        "cluster.events_processed",
        "cluster.heap_pops",
        "core.evaluate_s",
        "monitor.assemble_s",
        "model.derive_s",
        "monitor.map_env_s",
        "model.validate_s",
        "archive.ops_per_job",
        "archive.save_s",
        "archive.bytes_per_op",
        "archive.load_s",
        "viz.render_s",
    ] {
        report.set(name, sums.per_job(name));
    }
    let pops = sums.sum("cluster.heap_pops");
    report.set(
        "cluster.stale_pop_ratio",
        if pops > 0.0 {
            sums.sum("cluster.heap_stale_pops") / pops
        } else {
            0.0
        },
    );
    let partitioned: HashSet<&str> = outcomes
        .iter()
        .filter(|o| o.layers.sum("cluster.partitioned_jobs") > 0.0)
        .map(|o| o.job_id.as_str())
        .collect();
    report.set("cluster.partitioned_jobs", partitioned.len() as f64);
}

/// Per-job layer table rows of the traced outcomes of one pass.
fn layer_table(outcomes: &[JobOutcome]) -> String {
    const COLUMNS: [&str; 9] = [
        "platforms.program_s",
        "platforms.build_dag_s",
        "cluster.simulate_s",
        "platforms.emit_events_s",
        "core.evaluate_s",
        "archive.save_s",
        "archive.load_s",
        "viz.render_s",
        "platforms.run_s",
    ];
    let rows: Vec<_> = outcomes
        .iter()
        .map(|o| {
            let cells: BTreeMap<&'static str, f64> =
                COLUMNS.iter().map(|c| (*c, o.layers.sum(c))).collect();
            (o.job_id.clone(), cells, o.wall_s)
        })
        .collect();
    layers::table(&rows, &COLUMNS)
}

fn pipeline_workload(
    args: &Args,
    out_dir: &Path,
    report: &mut Report,
    extras: &mut Extras,
) -> Result<(), String> {
    let mut jobs = if args.workload == "fig5" {
        pipeline::fig5_jobs()
    } else {
        pipeline::matrix32_jobs()
    };
    let vertices = pipeline::graph_vertices(&args.workload);
    if args.trace {
        granula_trace::reset();
        granula_trace::enable();
    }
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut prepared: Option<pipeline::Prepared> = None;
    for _ in 0..SETUP_REPEATS {
        let (p, g, s) = pipeline::prepare(&mut jobs, vertices, args.seed);
        if prepared.as_ref().is_some_and(|prev| prev.graph != p.graph) {
            report.fail("graph generation is not deterministic", false);
        }
        gen_s.push(g);
        setup_s.push(s);
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    if args.trace {
        extras.traces.push(JobTrace {
            job: "setup".into(),
            spans: granula_trace::take_spans(),
        });
    }
    let refs = pipeline::references(&jobs, &prepared.graph);
    let dir = out_dir.join("jobs");
    let mut check = MakespanCheck::default();

    let (outcomes, pass_s) = if args.trace {
        granula_trace::disable();
        let (plain, plain_s) = passes(
            &jobs,
            &prepared,
            &refs,
            &dir,
            args.seconds / 2.0,
            &mut check,
            report,
        );
        granula_trace::reset();
        granula_trace::enable();
        let (traced, traced_s) = passes(
            &jobs,
            &prepared,
            &refs,
            &dir,
            args.seconds / 2.0,
            &mut check,
            report,
        );
        granula_trace::disable();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        report.set(
            "trace_overhead_pct",
            100.0 * (mean(&traced_s) / mean(&plain_s) - 1.0),
        );
        set_pipeline_layers(report, &traced, median(&gen_s).expect("set-ups"));
        for name in SERVE_LAYERS {
            report.set(name, 0.0);
        }
        report.set("harness.samples", (plain.len() + traced.len()) as f64);
        extras.traces.extend(pipeline::job_traces(&traced));
        extras.table = layer_table(&traced[..jobs.len()]);
        (plain.into_iter().chain(traced).collect::<Vec<_>>(), plain_s)
    } else {
        passes(
            &jobs,
            &prepared,
            &refs,
            &dir,
            args.seconds,
            &mut check,
            report,
        )
    };

    if args.workload == "fig5" && args.seed == DG_SEED {
        pipeline::check_fig5_golden(&outcomes[..jobs.len()], report);
    }
    let wall_ms: Vec<f64> = outcomes.iter().map(|o| o.wall_s * 1e3).collect();
    extras.samples.insert("setup_s", setup_s.clone());
    extras.samples.insert("graph.gen_s", gen_s);
    extras.samples.insert("job_wall_ms", wall_ms.clone());
    extras.samples.insert("pass_s", pass_s.clone());
    if !args.trace {
        let jobs_done = outcomes.len() as f64;
        report.set("setup_s", median(&setup_s).expect("set-ups"));
        report.set("throughput_per_s", jobs_done / pass_s.iter().sum::<f64>());
        report.set("latency_ms", job_latency_ms(&outcomes));
        report.set("peak_mem_mb", heap::peak_mb());
    }
    Ok(())
}

/// What the traced run's open-loop passes measured.
struct OpenLoop {
    /// The base-rate requests, for the in-process replay.
    requests: Vec<serve::Request>,
    /// Their records, timed from each request's due time.
    records: Vec<openloop::Record>,
    /// The base-rate summary over all classes.
    all: openloop::Summary,
    /// The highest fixed rate within the latency objective (0 if none).
    max_rps: f64,
    /// What one request of each class costs the daemon, µs.
    costs: [f64; 3],
}

/// Open-loop traffic at the base rate and at each rate step, then the
/// single-class chunks that price each class.
fn open_loop_passes(
    args: &Args,
    stream: &TcpStream,
    fleet: &mut serve::Fleet,
    traffic: &mut serve::Traffic,
    report: &mut Report,
) -> Result<OpenLoop, String> {
    let base_n = (serve::BASE_RPS * args.seconds * 0.35) as usize;
    let requests = traffic.requests(fleet, base_n);
    let records = serve::send(stream, fleet, &requests, serve::BASE_RPS, report)?;
    serve::settle();
    let all = openloop::summarize(&records, None).ok_or("no base-rate records")?;
    let mut max_rps = if serve::meets_slo(&all) {
        serve::BASE_RPS
    } else {
        0.0
    };
    for rate in serve::RATE_STEPS.map(|m| m * serve::BASE_RPS) {
        let n = (rate * args.seconds * 0.1) as usize;
        let step = traffic.requests(fleet, n);
        let step_records = serve::send(stream, fleet, &step, rate, report)?;
        serve::settle();
        let summary = openloop::summarize(&step_records, None).ok_or("no step records")?;
        println!(
            "rate {rate:>7.0}/s: p50 {:>8.1} µs, p99 {:>9.1} µs, tail p50 {:>9.1} µs",
            summary.p50_us, summary.p99_us, summary.tail_p50_us
        );
        if serve::meets_slo(&summary) {
            max_rps = rate;
        }
    }
    let costs = serve::class_costs(stream, fleet, traffic, report)?;
    Ok(OpenLoop {
        requests,
        records,
        all,
        max_rps,
        costs,
    })
}

fn serve_workload(
    args: &Args,
    root: &Path,
    out_dir: &Path,
    report: &mut Report,
    extras: &mut Extras,
) -> Result<(), String> {
    let cli = args
        .cli
        .as_ref()
        .ok_or("serve_mixed needs --cli <path to granula-cli>")?;

    // The fleet: the fig5 store, built through the pipeline, plus the
    // committed choke-matrix stores.
    if args.trace {
        granula_trace::reset();
        granula_trace::enable();
    }
    let mut jobs = pipeline::fig5_jobs();
    let (prepared, gen_s, _) =
        pipeline::prepare(&mut jobs, pipeline::graph_vertices("fig5"), args.seed);
    if args.trace {
        extras.traces.push(JobTrace {
            job: "setup".into(),
            spans: granula_trace::take_spans(),
        });
    }
    let refs = pipeline::references(&jobs, &prepared.graph);
    let mut check = MakespanCheck::default();
    let (fleet_jobs, _) = passes(
        &jobs,
        &prepared,
        &refs,
        &out_dir.join("jobs"),
        0.0,
        &mut check,
        report,
    );
    granula_trace::disable();
    if args.seed == DG_SEED {
        pipeline::check_fig5_golden(&fleet_jobs, report);
    }
    let mut files: Vec<PathBuf> = fleet_jobs.iter().map(|o| o.store.clone()).collect();
    let fixtures = root.join("tests/fixtures/matrix");
    let mut matrix: Vec<PathBuf> = std::fs::read_dir(&fixtures)
        .map_err(|e| format!("reading {}: {e}", fixtures.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "gar"))
        .collect();
    matrix.sort();
    files.extend(matrix);
    let mut fleet = serve::Fleet::open(files)?;
    let mut traffic = serve::Traffic::new(&fleet, args.mix_seed);

    // The daemon and this client share one CPU; see `pin_to_one_cpu`.
    let cpu = host::pin_to_one_cpu().map_err(|e| format!("pinning to one CPU: {e}"))?;
    println!("client and daemon pinned to CPU {cpu}");
    let (mut daemon, spawn_s) = serve::spawn_timed(cli, &fleet.files)?;
    let stream = TcpStream::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    // Warm-up, untimed: fill the caches, then run the mix at the base
    // rate long enough for the host to settle into the load.
    let warm = traffic.warmup(&fleet);
    serve::send(&stream, &mut fleet, &warm, serve::BASE_RPS, report)?;
    let settle_requests = traffic.requests(&fleet, (serve::BASE_RPS * serve::WARMUP_S) as usize);
    serve::send(
        &stream,
        &mut fleet,
        &settle_requests,
        serve::BASE_RPS,
        report,
    )?;
    serve::settle();

    let before = daemon.stat()?;
    let open_loop = if args.trace {
        Some(open_loop_passes(
            args,
            &stream,
            &mut fleet,
            &mut traffic,
            report,
        )?)
    } else {
        None
    };
    // Untraced runs alternate lone requests (latency) with batches
    // (throughput) for the whole run, so both sample the same fast and
    // slow stretches of the shared host; traced runs spend most of the
    // run on the open-loop passes and then time batches only.
    let budget_s = args.seconds * if args.trace { 0.15 } else { 1.0 };
    let start = Instant::now();
    let mut round_trip_us = Vec::new();
    let mut chunk_rates = Vec::new();
    while chunk_rates.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        if !args.trace {
            let chunk = serve::round_trip_chunk(&stream, &mut fleet, &mut traffic, report)?;
            round_trip_us.extend(chunk);
        }
        chunk_rates.push(serve::throughput_chunk(
            &stream,
            &mut fleet,
            &mut traffic,
            report,
        )?);
    }
    let after = daemon.stat()?;
    let daemon_rss = peak_rss_mb(daemon.pid()).ok_or("no daemon status")?;
    drop(stream);
    daemon.shutdown()?;

    extras.samples.insert("setup_s", spawn_s.clone());
    extras.samples.insert("chunk_rps", chunk_rates.clone());
    let Some(OpenLoop {
        requests: base_requests,
        records: base,
        all,
        max_rps,
        costs,
    }) = open_loop
    else {
        report.set("setup_s", median(&spawn_s).expect("spawns"));
        // Every chunk is the same number of requests: completions over
        // the whole pass, stalls included.
        let chunk_s: f64 = chunk_rates.iter().map(|rate| 1.0 / rate).sum();
        report.set("throughput_per_s", chunk_rates.len() as f64 / chunk_s);
        // The median: a stall of the shared host (milliseconds, now and
        // then) moves it no more than any one answer.
        let typical_us = median(&round_trip_us).expect("a pass sends requests");
        report.set("latency_ms", typical_us / 1e3);
        extras.samples.insert("round_trip_us", round_trip_us);
        report.set("peak_mem_mb", daemon_rss);
        return Ok(());
    };
    let latency: Vec<f64> = base.iter().map(|r| r.latency_us()).collect();
    extras.samples.insert("query_latency_us", latency);

    // Per-layer: the fleet build's pipeline layers ...
    set_pipeline_layers(report, &fleet_jobs, gen_s);
    extras.traces.extend(pipeline::job_traces(&fleet_jobs));
    // ... the daemon's counters over the timed passes ...
    for (name, value) in serve::stat_delta(&before, &after) {
        report.set(name, value);
    }
    // ... what each class costs and its share of the daemon's time ...
    for ((name, cost), share) in serve::CLASSES
        .iter()
        .zip(costs)
        .zip(serve::time_shares(&costs))
    {
        report.set(&format!("serve.cost_us.{name}"), cost);
        report.set(&format!("serve.time_share.{name}"), share);
    }
    // ... the wire-level latencies per class ...
    let class_latency: Vec<Vec<f64>> = (0..serve::CLASSES.len())
        .map(|c| {
            base.iter()
                .filter(|r| r.class == c)
                .map(|r| r.latency_us())
                .collect()
        })
        .collect();
    report.set("serve.query_p50_us", all.p50_us);
    report.set("serve.query_p90_us", all.p90_us);
    report.set("serve.query_p99_us", all.p99_us);
    for (c, name) in serve::CLASSES.iter().enumerate() {
        let (p50, p99) = serve::class_percentiles(&class_latency[c]);
        report.set(&format!("serve.{name}_p50_us"), p50);
        report.set(&format!("serve.{name}_p99_us"), p99);
    }
    report.set("serve.max_rps_at_slo", max_rps);
    report.set("serve.samples", base.len() as f64);
    report.set("loadgen.late_p99_us", all.late_p99_us);

    // ... and the same requests replayed in-process on one thread, first
    // untraced (the engine latencies), then traced (spans and overhead).
    let mut open_s = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        drop(serve::open_engine(&fleet.files)?);
        open_s.push(t.elapsed().as_secs_f64());
    }
    report.set("archive.open_s", median(&open_s).expect("opens"));
    let replay_all: Vec<serve::Request> = warm.iter().chain(&base_requests).cloned().collect();
    let engine = serve::open_engine(&fleet.files)?;
    let (per_class, plain_s) = serve::replay(&engine, &replay_all);
    drop(engine);
    for (c, name) in serve::CLASSES.iter().enumerate() {
        let (p50, p99) = serve::class_percentiles(&per_class[c]);
        report.set(&format!("archive.engine_p50_us.{name}"), p50);
        report.set(&format!("archive.engine_p99_us.{name}"), p99);
    }
    report.set(
        "serve.wire_us",
        report.get("serve.hot_p50_us").unwrap_or(0.0)
            - report.get("archive.engine_p50_us.hot").unwrap_or(0.0),
    );
    granula_trace::reset();
    granula_trace::enable();
    let traced_s = {
        let _span =
            granula_trace::span!("perfbench", "archive.replay requests={}", replay_all.len());
        let engine = {
            let _span = granula_trace::span!("perfbench", "archive.open");
            serve::open_engine(&fleet.files)?
        };
        serve::replay(&engine, &replay_all).1
    };
    granula_trace::disable();
    extras.traces.push(JobTrace {
        job: "engine_replay".into(),
        spans: granula_trace::take_spans(),
    });
    report.set("trace_overhead_pct", 100.0 * (traced_s / plain_s - 1.0));
    report.set("harness.samples", (fleet_jobs.len() + base.len()) as f64);
    extras.table = layer_table(&fleet_jobs);
    Ok(())
}
