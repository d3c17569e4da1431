//! The serving benchmark.
//!
//! ```text
//! perfbench --workload <dashboard_10k|churn_4shard_1k|poll_80> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One in-process client drives the workload's server in a closed loop
//! (one outstanding request, no think time) through `Server::handle`.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` repeats the
//! schedule with the flight recorder on and prints the per-layer
//! breakdown. The last line of standard output is the result document;
//! the line before it records the machine and run facts. See README.md.

mod bench;
mod layers;
mod memfs;
mod schedule;
mod speed;

use bench::{Bench, Inputs, Recovery};
use layers::{Layers, RECORDER_CAPACITY};
use nemo_core::Backend;
use nemo_serve::{CacheStats, Request, Response};
use netgraph::json::JsonValue;
use schedule::{Schedule, Spec};
use speed::Speed;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where the (in-memory) stores are rooted. Only sharded recovery's
/// occupancy probe ever touches this path on disk.
const STORE_ROOT: &str = ".perfbench-stores";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or(format!("{} needs a value", argv[i]))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{} takes a whole number, not {value:?}", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? == 1),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of ascending `sorted`, and how many samples
/// lie beyond it.
fn percentile(sorted: &[f32], pct: f64) -> (f64, usize) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0);
    }
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (f64::from(sorted[rank - 1]), n - rank)
}

/// A latency distribution's median and tail, with the tail percentile
/// the sample count allows.
struct Latency {
    samples: usize,
    p50: f64,
    tail_pct: f64,
    tail: f64,
    beyond: usize,
}

fn latency(samples: &[f32], tail_pct: f64) -> Latency {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f32::total_cmp);
    let (tail, beyond) = percentile(&sorted, tail_pct);
    Latency {
        samples: sorted.len(),
        p50: median(&sorted.iter().map(|&v| f64::from(v)).collect::<Vec<_>>()),
        tail_pct,
        tail,
        beyond,
    }
}

fn per_second(count: usize, seconds: f64) -> f64 {
    count as f64 / seconds.max(1e-9)
}

/// A value of the `Request::Stats` metrics document (0 when absent).
fn stat(doc: &JsonValue, name: &str) -> f64 {
    let field = |v: &JsonValue, key: &str| match v {
        JsonValue::Object(map) => map.get(key).cloned(),
        _ => None,
    };
    field(doc, "metrics")
        .and_then(|m| field(&m, name))
        .and_then(|m| field(&m, "value"))
        .and_then(|v| match v {
            JsonValue::Number(n) => Some(n),
            _ => None,
        })
        .unwrap_or(0.0)
}

/// How a phase runs the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Untraced, gated, then restarted: the end-to-end run.
    Measured,
    /// The traced pass without the flight recorder: the same own layer
    /// calls before each request, so the throughput ratio isolates
    /// tracing. Its replies must equal the traced pass's byte for byte.
    Baseline,
    /// Flight recorder on, layers timed, gated, then restarted.
    Traced,
}

/// One run of the schedule over a freshly built server.
struct Phase<'a> {
    bench: Bench<'a>,
    setup_s: Vec<f64>,
    /// `Request::Stats` metrics before and after the timed steps.
    stats: [JsonValue; 2],
    /// Cache counters before and after the timed steps.
    cache: [CacheStats; 2],
    layers: Option<Layers>,
    recovery: Option<Recovery>,
    /// The run up to the middle of the timed steps.
    half: Half,
}

/// The replies' digest and the query throughput at the middle of the
/// timed steps.
struct Half {
    digest: u64,
    query_per_s: f64,
}

fn stats_doc(bench: &mut Bench) -> JsonValue {
    match bench.server.handle(&Request::Stats) {
        Ok(Response::Stats(report)) => report.metrics,
        _ => JsonValue::Null,
    }
}

fn run_phase<'a>(
    spec: &'static Spec,
    inputs: &'a Inputs,
    schedule: &Schedule,
    root: &Path,
    pass: Pass,
) -> Result<Phase<'a>, String> {
    // Only the end-to-end pass reports setup and recovery times.
    let reps = |n| if pass == Pass::Measured { n } else { 1 };
    let (mut bench, setup_s) =
        Bench::setup(spec, inputs, root, reps(spec.setup_reps), Speed::new())?;
    // The warm-up fills the program cache; its queries are not timed,
    // its mutation batches (the dashboard's write stream) are. The
    // baseline's warm-up replies are checked through the digest instead.
    bench.record_writes = true;
    bench.fresh_gate = pass != Pass::Baseline;
    bench.run(&schedule.warmup);
    bench.fresh_gate = true;
    let stats_before = stats_doc(&mut bench);
    let cache_before = bench.server.cache_stats();
    if pass != Pass::Measured {
        bench.layers = Some(Layers::default());
    }
    if pass == Pass::Traced {
        bench.tracer.enable(RECORDER_CAPACITY);
    }
    // The baseline runs only the first half, which is all the overhead
    // ratio and the digest comparison need.
    let (first, second) = schedule.timed.split_at(schedule.timed.len() / 2);
    bench.record_queries = true;
    bench.run(first);
    let half = Half {
        digest: bench.check.digest,
        query_per_s: per_second(bench.rec.query_ms.len(), bench.rec.query_s),
    };
    if pass != Pass::Baseline {
        bench.run(second);
    }
    bench.record_queries = false;
    bench.record_writes = false;
    bench.tracer.enable(0);
    let layers = bench.layers.take();
    let cache = [cache_before, bench.server.cache_stats()];
    let stats = [stats_before, stats_doc(&mut bench)];
    let mut recovery = None;
    if pass != Pass::Baseline {
        let before = bench.answers_now();
        let (mut restarted, measured) = bench.restart(reps(spec.recovery_reps))?;
        restarted.compare_round(&before);
        bench = restarted;
        recovery = Some(measured);
    }
    if let Some(e) = &bench.speed.error {
        return Err(e.clone());
    }
    Ok(Phase {
        bench,
        setup_s,
        stats,
        cache,
        layers,
        recovery,
        half,
    })
}

/// Metric documents: `name -> (value, unit)`, in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    format!("{s:?}")
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

fn end_to_end(spec: &Spec, phase: &Phase, metrics: &mut Metrics, facts: &mut Vec<(&str, String)>) {
    let rec = &phase.bench.rec;
    let queries = latency(&rec.query_ms, spec.query_tail_pct);
    let acks = latency(&rec.ack_ms, spec.ack_tail_pct);
    let recovery = phase.recovery.as_ref().map_or(&[][..], |r| &r.seconds[..]);
    metrics.put("setup_s", median(&phase.setup_s), "s");
    metrics.put("query_p50_ms", queries.p50, "ms");
    metrics.put("query_tail_ms", queries.tail, "ms");
    metrics.put(
        "query_per_s",
        per_second(queries.samples, rec.query_s),
        "1/s",
    );
    metrics.put("mutate_ack_p50_ms", acks.p50, "ms");
    metrics.put("mutate_ack_tail_ms", acks.tail, "ms");
    metrics.put("mutate_per_s", per_second(acks.samples, rec.write_s), "1/s");
    // The median over groups spread through seconds of the fastest in
    // each, scaled by the compute kernel read just before it: recoveries
    // slow in step with the host's phases, which last about a second.
    metrics.put("recovery_s", median(recovery), "s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    let speeds = &phase.bench.speed.samples;
    facts.push((
        "host_speed",
        format!(
            "{{\"calibrations\": {}, \"median_relative_time\": {:?}}}",
            speeds.len(),
            median(speeds)
        ),
    ));
    facts.push((
        "raw_query_per_s",
        format!(
            "{:?}",
            per_second(queries.samples, rec.raw_query.as_secs_f64())
        ),
    ));
    facts.push((
        "raw_mutate_per_s",
        format!(
            "{:?}",
            per_second(acks.samples, rec.raw_write.as_secs_f64())
        ),
    ));
    for (name, l) in [("query_latency", &queries), ("mutate_ack_latency", &acks)] {
        facts.push((
            name,
            format!(
                "{{\"samples\": {}, \"tail_pct\": {:?}, \"samples_beyond_tail\": {}}}",
                l.samples, l.tail_pct, l.beyond
            ),
        ));
    }
    // The acks of one batch share its `Sync`, so a slow batch is one
    // event, not `spec.batch` of them; they are recorded batch by batch.
    let mut slow_batches: Vec<usize> = (rec.ack_ms.iter().enumerate())
        .filter(|&(_, &ms)| f64::from(ms) > acks.tail)
        .map(|(i, _)| i / spec.batch)
        .collect();
    slow_batches.dedup();
    facts.push((
        "mutate_ack_batches_beyond_tail",
        slow_batches.len().to_string(),
    ));
}

fn per_layer(traced: &Phase, untraced_qps: f64, metrics: &mut Metrics) {
    let layers = traced
        .layers
        .as_ref()
        .expect("a traced phase aggregates layers");
    let [c0, c1] = traced.cache;
    let lookups = (c1.answer_hits + c1.program_hits + c1.misses)
        - (c0.answer_hits + c0.program_hits + c0.misses);
    let ms = |us: f64| us / 1e3;
    let nx = Some(Backend::NetworkX);
    let pd = Some(Backend::Pandas);
    let sql = Some(Backend::Sql);
    metrics.put("server.request_self_us", layers.roots.mean_us(), "us");
    metrics.put("cache.probe_us", layers.span("query.cache").mean_us(), "us");
    metrics.put(
        "cache.answer_hit_share",
        share(c1.answer_hits - c0.answer_hits, lookups),
        "ratio",
    );
    metrics.put(
        "cache.program_hit_share",
        share(c1.program_hits - c0.program_hits, lookups),
        "ratio",
    );
    metrics.put(
        "cache.miss_share",
        share(c1.misses - c0.misses, lookups),
        "ratio",
    );
    metrics.put(
        "cache.invalidated",
        (c1.invalidated - c0.invalidated) as f64,
        "count",
    );
    metrics.put(
        "cache.evictions",
        (c1.evictions - c0.evictions) as f64,
        "count",
    );
    let merged = layers.call("shard.merged_view", None);
    metrics.put("shard.merged_view_ms", ms(merged.mean_us()), "ms");
    metrics.put("shard.merged_rebuilds", merged.count as f64, "count");
    for (name, b) in [("networkx", nx), ("pandas", pd), ("sql", sql)] {
        metrics.put(
            format!("live.state_copy_ms.{name}"),
            ms(layers.call("live.state_copy", b).mean_us()),
            "ms",
        );
    }
    metrics.put("live.apply_us", layers.span("mutate.apply").mean_us(), "us");
    for (name, b) in [("networkx", nx), ("pandas", pd), ("sql", sql)] {
        metrics.put(
            format!("sandbox.execute_ms.{name}"),
            ms(layers.call("sandbox.execute", b).mean_us()),
            "ms",
        );
    }
    for (name, b) in [("networkx", Backend::NetworkX), ("pandas", Backend::Pandas)] {
        metrics.put(
            format!("sandbox.copy_ms.{name}"),
            ms(layers.call("sandbox.copy", Some(b)).mean_us()),
            "ms",
        );
    }
    metrics.put(
        "graphscript.parse_us",
        layers.call("graphscript.parse", None).mean_us(),
        "us",
    );
    for (name, b) in [("networkx", nx), ("pandas", pd)] {
        metrics.put(
            format!("graphscript.run_ms.{name}"),
            ms(layers.call("graphscript.run", b).mean_us()),
            "ms",
        );
    }
    metrics.put(
        "sqlengine.exec_ms",
        ms(layers.call("sqlengine.exec", None).mean_us()),
        "ms",
    );
    metrics.put(
        "prompt.build_us",
        layers.call("prompt.build", None).mean_us(),
        "us",
    );
    metrics.put(
        "llm.complete_us",
        layers.call("llm.complete", None).mean_us(),
        "us",
    );
    for span in ["mutate.route", "wal.log", "store.fsync", "sync.flush"] {
        metrics.put(format!("{span}_us"), layers.span(span).mean_us(), "us");
    }
    metrics.put(
        "sweep.flush_us",
        layers.call("sweep.flush", None).mean_us(),
        "us",
    );
    let [s0, s1] = &traced.stats;
    let delta = |name: &str| stat(s1, name) - stat(s0, name);
    let mutations = delta("serve_mutations_applied");
    metrics.put("store.fsyncs", delta("store_fsyncs"), "count");
    metrics.put("store.bytes_written", delta("store_bytes_written"), "bytes");
    metrics.put(
        "store.bytes_per_mutation",
        delta("store_bytes_written") / mutations.max(1.0),
        "bytes",
    );
    metrics.put(
        "store.full_snapshots",
        delta("store_full_snapshots_written"),
        "count",
    );
    metrics.put(
        "store.delta_snapshots",
        delta("store_delta_snapshots_written"),
        "count",
    );
    metrics.put("store.rotations", delta("store_rotations"), "count");
    metrics.put(
        "store.sweep_removed",
        delta("store_sweep_pruned_snapshots") + delta("store_sweep_removed_segments"),
        "count",
    );
    let reports = traced.recovery.as_ref().map_or(&[][..], |r| &r.reports[..]);
    metrics.put(
        "recovery.replayed_records",
        reports.iter().map(|r| r.replayed_records).sum::<u64>() as f64,
        "count",
    );
    metrics.put(
        "recovery.snapshot_epoch",
        reports.iter().map(|r| r.snapshot_epoch).min().unwrap_or(0) as f64,
        "epoch",
    );
    metrics.put(
        "obs.trace_overhead",
        traced.half.query_per_s / untraced_qps.max(1e-9),
        "ratio",
    );
    metrics.put("obs.spans_dropped", layers.spans_dropped as f64, "count");
    metrics.put("unattributed_ms", ms(layers.unattributed_us()), "ms");
    let query_us = layers.query_time.as_secs_f64() * 1e6;
    let copies = layers.total_us(&["live.state_copy", "sandbox.copy"]);
    let execution = layers.total_us(&["graphscript.parse", "graphscript.run", "sqlengine.exec"]);
    let model = layers.total_us(&["prompt.build", "llm.complete"]);
    metrics.put(
        "query_share.state_copy",
        copies / query_us.max(1e-9),
        "ratio",
    );
    metrics.put(
        "query_share.execution",
        execution / query_us.max(1e-9),
        "ratio",
    );
    metrics.put(
        "query_share.prompt_model",
        model / query_us.max(1e-9),
        "ratio",
    );
    let check = &traced.bench.check;
    metrics.put(
        "error_reply_share",
        share(check.error_replies, check.replies),
        "ratio",
    );
}

fn run(spec: &'static Spec, args: &Args, root: &Path) -> Result<(String, String, bool), String> {
    let schedule = spec.schedule(args.seed, args.seconds);
    let inputs = Inputs::new(spec, args.seed, schedule.mutations);
    let mut metrics = Metrics::default();
    let mut facts: Vec<(&str, String)> = Vec::new();
    let (attempted, failed, phase) = if args.trace {
        let baseline = run_phase(spec, &inputs, &schedule, root, Pass::Baseline)?;
        let untraced_qps = baseline.half.query_per_s;
        let (a, f) = (baseline.bench.check.attempted, baseline.bench.check.failed);
        let baseline_digest = baseline.half.digest;
        drop(baseline);
        let traced = run_phase(spec, &inputs, &schedule, root, Pass::Traced)?;
        per_layer(&traced, untraced_qps, &mut metrics);
        let dropped = traced.layers.as_ref().map_or(0, |l| l.spans_dropped);
        facts.push(("traced_run_valid", (dropped == 0).to_string()));
        // The traced pass asks the same schedule on the same inputs; its
        // replies must not differ from the baseline's.
        let check = &traced.bench.check;
        let same = traced.half.digest == baseline_digest;
        if !same {
            eprintln!("perfbench: correctness gate: traced replies differ from untraced ones");
        }
        (
            a + check.attempted + 1,
            f + check.failed + dropped + u64::from(!same),
            traced,
        )
    } else {
        let phase = run_phase(spec, &inputs, &schedule, root, Pass::Measured)?;
        end_to_end(spec, &phase, &mut metrics, &mut facts);
        (phase.bench.check.attempted, phase.bench.check.failed, phase)
    };
    let check = &phase.bench.check;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut head = vec![
        ("workload", json_str(spec.name)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("client", json_str("closed loop: 1 in-process client, 1 outstanding request, no think time")),
        ("shards", spec.shards.to_string()),
        ("fsync_policy", json_str("EveryBatch")),
        (
            "store_filesystem",
            json_str("in-memory nemo_store::Vfs: every fsync call is kept and counted; disk fsync latency is out of scope"),
        ),
        (
            "time_scale",
            json_str("times are host-speed scaled: wall time x nominal / recent calibration kernel time; recovery_s by the compute kernel read just before each group"),
        ),
        ("setup_reps", phase.setup_s.len().to_string()),
        (
            "recovery_reps",
            phase.recovery.as_ref().map_or(0, |r| r.reps).to_string(),
        ),
        (
            "recovery_groups",
            phase.recovery.as_ref().map_or(0, |r| r.seconds.len()).to_string(),
        ),
        (
            "recovery_cpu_relative_time",
            format!(
                "{:?}",
                median(phase.recovery.as_ref().map_or(&[][..], |r| &r.cpu_relative[..]))
            ),
        ),
        ("model_seed", bench::MODEL_SEED.to_string()),
        ("replies", check.replies.to_string()),
        ("error_reply_share", format!("{:?}", share(check.error_replies, check.replies))),
        ("failed_share", format!("{:?}", share(failed, attempted))),
        ("reply_digest", json_str(&format!("{:016x}", check.digest))),
    ];
    head.append(&mut facts);
    let facts_line = format!(
        "{{{}}}",
        head.iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let correct = failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    Ok((facts_line, result, correct))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--calibrate") {
        speed::calibrate_child();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::by_name(&args.workload) else {
        let names: Vec<&str> = schedule::SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let root = PathBuf::from(STORE_ROOT).join(format!("{}-{}", spec.name, std::process::id()));
    let outcome = run(spec, &args, &root);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(STORE_ROOT);
    match outcome {
        Ok((facts, result, correct)) => {
            println!("{facts}");
            println!("{result}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: the correctness gate failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
