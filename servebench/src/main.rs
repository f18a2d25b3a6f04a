//! Serving benchmark for the DLHub stack.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload inference-mix --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Three seeded workloads drive the in-process stack (`TestHub` →
//! `ManagementService` → broker → Task Manager → Parsl replica pools →
//! the evaluation servables) through its public API only:
//!
//! * `inference-mix`: open loop, Poisson arrivals, mostly cifar10 with
//!   some matminer-model and a little inception, through `run_async`.
//! * `dispatch-storm`: open loop, Poisson arrivals at a high rate of
//!   microsecond servables over a Zipf catalog, control plane armed.
//! * `notebook-memo`: closed loop, one synchronous client running the
//!   matminer pipeline and cifar10 over memoized inputs.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer ledger instead. Every response is checked against a
//! reference computed by calling the servables directly. The last line
//! of standard output is one JSON object.

mod closedloop;
mod layers;
mod openloop;
mod procfs;
mod rng;
mod stats;
mod workload;

use layers::Sample;
use stats::{beyond, median, median_f64, quantile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workload::{Deployment, Name, Schedule};

/// Name prefix of the benchmark's own load-generating threads, so CPU
/// accounting can subtract them from the program's.
pub const GENERATOR_PREFIX: &str = "gen-";

/// Setups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Schedule salts, one per phase.
const SALT_FIXED: u64 = 1;
const SALT_WARM: u64 = 2;

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Extra spin added to cifar10 (0.10 = 10% slower), for the
    /// benchmark's sensitivity self-check.
    slowdown: f64,
    /// Stall added to every notebook memo lookup, for the same check.
    stall: Duration,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(|s| s.as_str())
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let workload = Name::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let num = |flag: &str, default: &str| -> Result<f64, String> {
        get(flag)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload,
        seed: num("--seed", "1")? as u64,
        seconds: num("--seconds", "10")?.max(2.0),
        trace: num("--trace", "0")? != 0.0,
        slowdown: num("--slowdown", "0")?,
        stall: Duration::from_micros(num("--stall-us", "0")? as u64),
    })
}

/// Everything one run prints: metrics for the JSON line, and figures
/// that are only printed.
#[derive(Default)]
struct Report {
    /// (name, value, unit, in the JSON line).
    metrics: Vec<(String, f64, &'static str, bool)>,
    correct: bool,
    attempted: usize,
    failed: usize,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.add(name, value, unit, true);
    }

    /// A figure printed by name and unit but left out of the JSON line.
    fn show(&mut self, name: &str, value: f64, unit: &'static str) {
        self.add(name, value, unit, false);
    }

    fn add(&mut self, name: &str, value: f64, unit: &'static str, json: bool) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit, json));
    }

    fn print(&self) {
        for (name, value, unit, json) in &self.metrics {
            let note = if *json { "" } else { "  (printed, not gated)" };
            println!("  {name:<36} {value:>14.4} {unit}{note}");
        }
        let metrics: serde_json::Map<String, serde_json::Value> = self
            .metrics
            .iter()
            .filter(|m| m.3)
            .map(|(n, v, u, _)| (n.clone(), serde_json::json!({ "value": v, "unit": u })))
            .collect();
        let out = serde_json::json!({
            "correct": self.correct,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": metrics,
        });
        println!("{out}");
    }
}

/// Wall time per stage of a run, printed to stderr at the end.
struct Stages {
    last: Instant,
    done: Vec<(&'static str, f64)>,
}

impl Stages {
    fn new() -> Self {
        Stages {
            last: Instant::now(),
            done: Vec::new(),
        }
    }

    fn mark(&mut self, stage: &'static str) {
        self.done.push((stage, self.last.elapsed().as_secs_f64()));
        self.last = Instant::now();
    }
}

impl Drop for Stages {
    fn drop(&mut self) {
        let parts: Vec<String> = self
            .done
            .iter()
            .map(|(n, s)| format!("{n} {s:.1}s"))
            .collect();
        eprintln!("stages: {}", parts.join(", "));
    }
}

/// Print how much CPU time the machine lost to other guests since
/// `since`, as a share of busy plus stolen time.
fn report_steal(name: Name, since: (u64, u64)) {
    let now = procfs::cpu_jiffies();
    let busy = now.0.saturating_sub(since.0);
    let stolen = now.1.saturating_sub(since.1);
    println!(
        "{}: machine CPU stolen by other guests during the run: {:.1}%",
        name.as_str(),
        100.0 * stolen as f64 / (busy + stolen).max(1) as f64
    );
}

/// Print the machine's speed over the measured phase (see
/// [`procfs::SpeedProbe`]) and the program's CPU per request as
/// measured and as scaled to nominal speed, the figure that is gated.
fn report_speed(name: Name, (speed, probe): &(f64, String), cpu_us: f64) {
    println!(
        "{}: reference sample ran at {speed:.3} of nominal speed ({probe}); program CPU \
         {cpu_us:.1} us per request as measured, {:.1} us at nominal speed",
        name.as_str(),
        cpu_us * speed,
    );
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Build the deployment `n` times, keeping the last; returns the
/// median set-up time.
fn setup(args: &Args, n: usize) -> (Deployment, f64) {
    let mut times = Vec::with_capacity(n);
    let mut dep = None;
    for _ in 0..n {
        drop(dep.take());
        let started = Instant::now();
        dep = Some(workload::setup(args.workload, args.slowdown, args.stall));
        times.push(started.elapsed().as_secs_f64());
    }
    (dep.expect("at least one setup"), median_f64(&times))
}

/// Fingerprint the schedule and check that the seed replays it byte
/// for byte while another seed does not.
fn check_replay(name: Name, fingerprint: u64, again: u64, other: u64) -> bool {
    let ok = fingerprint == again && fingerprint != other;
    println!(
        "{}: schedule fingerprint {fingerprint:016x} (same seed replays: {}, next seed differs: {})",
        name.as_str(),
        fingerprint == again,
        fingerprint != other
    );
    ok
}

fn open_schedule(args: &Args, dep: &Deployment, salt: u64, seconds: f64) -> Schedule {
    let mut s = workload::open_schedule(args.workload, args.seed, salt, seconds, dep.targets.len());
    workload::compute_references(dep, &mut s, 2);
    s
}

/// The first `n` requests of a schedule, for phases that reuse inputs.
fn prefix(s: &Schedule, n: usize) -> Schedule {
    let mut copy = s.replay();
    copy.sends.truncate(n);
    copy.expected.truncate(n);
    copy
}

/// A run is valid only if the generator kept its schedule and saw
/// completions promptly: both lags' p99 under a fifth of the latency
/// limit. An invalid run is marked, not failed: latency still counts
/// from the intended send time, so a late generator inflates it rather
/// than hiding anything.
fn validity(name: Name, out: &openloop::Outcome) -> bool {
    let limit = name.limit().as_nanos() as f64;
    let gen = quantile(&out.dispatch_lag_ns, 0.99);
    let obs = quantile(&out.observer_lag_ns, 0.99);
    let tail = beyond(&out.latency_ns, 0.99);
    let valid = gen < limit / 5.0 && obs < limit / 5.0;
    println!(
        "{}: generator lag p99 {:.1} us, observer lag p99 {:.1} us, {} samples ({} beyond p99): {}",
        name.as_str(),
        gen / 1e3,
        obs / 1e3,
        out.latency_ns.len(),
        tail,
        if valid { "valid" } else { "INVALID" }
    );
    valid
}

/// The end-to-end figures of one run, besides latency.
struct EndToEnd {
    setup_s: f64,
    slo_attainment: f64,
    throughput_rps: f64,
    cpu_us_per_req: f64,
    /// Median per-second heap peak and whole-span heap peak.
    heap_peak_mb: (f64, f64),
    rss_peak_mb: f64,
    error_rate: f64,
}

/// Print the eight end-to-end figures and `heap_peak_mb` by name and
/// unit. Four are gated (the JSON line, BENCHMARK.json). Latency and
/// throughput are printed but not gated: on the shared virtual machine
/// the benchmark was built on, their run-to-run spread followed the CPU
/// time stolen by other guests and exceeded the largest bound a gate may
/// use; latency is gated through `slo_attainment` instead, whose limits
/// sit a few times above the p99 measured with little steal (see
/// [`Name::limit`]). `cpu_us_per_req` is scaled to the machine's
/// nominal speed (see [`procfs::SpeedProbe`]). Peak RSS depends on how
/// glibc spread the threads over its malloc arenas, which varies run to
/// run; `heap_peak_mb` counts what is allocated and is gated in its
/// place, as the median of the per-second peaks (the whole-span peak,
/// printed as `heap_max_mb`, is whichever burst of large requests
/// happened to be in flight together). `error_rate` is 0
/// on correct code, and a gated metric must never read 0; failures gate
/// the run through `correct` and `failed` instead.
fn put_e2e(r: &mut Report, name: Name, e: EndToEnd, latency_ns: &[u64]) {
    println!(
        "{}: latency over {} samples: p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms, p99.9 {:.4} ms; \
         limit {} ms",
        name.as_str(),
        latency_ns.len(),
        ms(median(latency_ns)),
        ms(quantile(latency_ns, 0.9)),
        ms(quantile(latency_ns, 0.99)),
        ms(quantile(latency_ns, 0.999)),
        name.limit().as_secs_f64() * 1e3,
    );
    r.put("setup_s", e.setup_s, "s");
    r.show("latency_p50_ms", ms(median(latency_ns)), "ms");
    r.show("latency_p99_ms", ms(quantile(latency_ns, 0.99)), "ms");
    r.put("slo_attainment", e.slo_attainment, "share");
    r.show("throughput_rps", e.throughput_rps, "1/s");
    r.put("cpu_us_per_req", e.cpu_us_per_req, "us");
    r.put("heap_peak_mb", e.heap_peak_mb.0, "MB");
    r.show("heap_max_mb", e.heap_peak_mb.1, "MB");
    r.show("rss_peak_mb", e.rss_peak_mb, "MB");
    r.show("error_rate", e.error_rate, "share");
}

fn open_e2e(args: &Args) -> Report {
    let name = args.workload;
    let mut stages = Stages::new();
    let (dep, setup_s) = setup(args, SETUPS);
    stages.mark("setup");
    let fixed_s = args.seconds * 0.85;
    let warm = open_schedule(args, &dep, SALT_WARM, 0.5);
    let fixed = open_schedule(args, &dep, SALT_FIXED, fixed_s);
    stages.mark("inputs+references");
    let replay_ok = check_replay(
        name,
        fixed.fingerprint,
        workload::open_schedule(name, args.seed, SALT_FIXED, fixed_s, dep.targets.len())
            .fingerprint,
        workload::open_schedule(name, args.seed + 1, SALT_FIXED, fixed_s, dep.targets.len())
            .fingerprint,
    );
    let pool = prefix(&fixed, 256);
    procfs::reset_peak_rss();
    let heap = procfs::HeapPeak::start();

    let w = openloop::run(&dep, warm, name, false);
    stages.mark("warm");
    let probe = procfs::SpeedProbe::start();
    let out = openloop::run(&dep, fixed, name, false);
    let speed = probe.stop();
    stages.mark("fixed-rate");
    let (rps, t_failed, t_wrong, t_done) =
        openloop::throughput(&dep, &pool, name.outstanding(), args.seconds * 0.15);
    stages.mark("throughput");
    let rss = procfs::peak_rss_mb();
    let heap_peak_mb = heap.stop();
    validity(name, &out);
    // The reported p99 needs at least ten samples beyond it.
    let tail_ok = beyond(&out.latency_ns, 0.99) >= 10 && out.latency_ns.len() >= 1000;

    let mut r = Report::default();
    let attempted = w.sent + out.sent + t_done + t_failed + t_wrong;
    let failed = w.failed + w.wrong + out.failed + out.wrong + t_failed + t_wrong;
    r.correct = tail_ok && replay_ok && failed == 0;
    r.attempted = attempted;
    r.failed = failed;
    let per_req = |ns: u64| ns as f64 / 1e3 / out.correct.max(1) as f64;
    report_speed(name, &speed, per_req(out.program_cpu_ns));
    let workers =
        procfs::group_times(&out.threads.0, &out.threads.1, out.generator)[procfs::WORKERS];
    println!(
        "{}: offered {:.0}/s for {:.1} s; throughput with {} outstanding; program CPU {:.1} us \
         per request: {:.1} us inside run_async/forget_task on the generator's threads, {:.1} us \
         on threads that ended during the phase (the kernels' per-call workers)",
        name.as_str(),
        name.rate_per_s(),
        fixed_s,
        name.outstanding(),
        per_req(out.program_cpu_ns),
        per_req(out.in_calls_cpu_ns),
        per_req(workers.cpu_ns),
    );
    let e = EndToEnd {
        setup_s,
        slo_attainment: out.within_limit as f64 / out.sent.max(1) as f64,
        throughput_rps: rps,
        cpu_us_per_req: per_req(out.program_cpu_ns) * speed.0,
        heap_peak_mb,
        rss_peak_mb: rss,
        error_rate: failed as f64 / attempted.max(1) as f64,
    };
    put_e2e(&mut r, name, e, &out.latency_ns);
    r
}

fn notebook_len(seconds: f64) -> usize {
    // Enough ops for a client far faster than today's; the stream
    // wraps (all hits) if it ever runs out.
    ((seconds + 1.5) * 120_000.0) as usize
}

fn notebook_replay(args: &Args, book: &workload::Notebook, len: usize) -> bool {
    check_replay(
        args.workload,
        book.fingerprint,
        workload::notebook(args.seed, len, None).fingerprint,
        workload::notebook(args.seed + 1, len, None).fingerprint,
    )
}

fn notebook_e2e(args: &Args) -> Report {
    let name = args.workload;
    let mut stages = Stages::new();
    let (dep, setup_s) = setup(args, SETUPS);
    stages.mark("setup");
    let len = notebook_len(args.seconds);
    let book = workload::notebook(args.seed, len, Some(&dep));
    let replay_ok = notebook_replay(args, &book, len);
    stages.mark("inputs+references");
    procfs::reset_peak_rss();
    let heap = procfs::HeapPeak::start();
    let (warm_calls, warm_bad) = closedloop::warm_memo(&dep, &book);
    let mut cursor = 0;
    let w = closedloop::run(&dep, &book, &mut cursor, 1.0, name.limit(), false, None);
    stages.mark("warm");
    let probe = procfs::SpeedProbe::start();
    let out = closedloop::run(
        &dep,
        &book,
        &mut cursor,
        args.seconds,
        name.limit(),
        false,
        Some(heap),
    );
    let speed = probe.stop();
    stages.mark("closed-loop");
    let rss = out.rss_peak_mb;
    let tail = beyond(&out.latency_ns, 0.99);
    let failed = warm_bad + w.failed + w.wrong + out.failed + out.wrong;
    let tail_ok = tail >= 10 && out.latency_ns.len() >= 1000;
    let attempted = warm_calls + w.attempted + out.attempted;
    let mut r = Report {
        correct: replay_ok && failed == 0 && tail_ok,
        attempted,
        failed,
        ..Report::default()
    };
    let cpu_us = out.program_cpu_ns as f64 / 1e3 / out.correct.max(1) as f64;
    report_speed(name, &speed, cpu_us);
    let memo = dep.hub.service.memo_stats();
    println!(
        "{}: closed loop, 1 client; {} calls ({} beyond p99); memo hits {} misses {}",
        name.as_str(),
        out.attempted,
        tail,
        memo.hits,
        memo.misses
    );
    let e = EndToEnd {
        setup_s,
        slo_attainment: out.within_limit as f64 / out.attempted.max(1) as f64,
        throughput_rps: out.correct as f64 / out.elapsed_s,
        cpu_us_per_req: cpu_us * speed.0,
        heap_peak_mb: out.heap_peak_mb,
        rss_peak_mb: rss,
        error_rate: failed as f64 / attempted.max(1) as f64,
    };
    put_e2e(&mut r, name, e, &out.latency_ns);
    r
}

/// Per-layer numbers shared by every workload's traced run.
struct Ledger<'a> {
    dep: &'a Deployment,
    costs: layers::Costs,
    /// CPU and run-queue time per thread group over the traced passes.
    groups: BTreeMap<&'static str, procfs::ThreadTimes>,
    unloaded_p50_ns: f64,
    loaded_p50_ns: f64,
    /// Median over requests of Σ(isolated costs on the blocking path).
    sum_p50_ns: f64,
    /// p50 of the best untraced and the best traced pass: the least
    /// disturbed pass of each kind, so one stall does not read as
    /// tracing cost.
    best_untraced_p50_ns: f64,
    best_traced_p50_ns: f64,
}

/// Traced runs alternate untraced and traced passes (ABBA) of this
/// share of `--seconds` each, so drift in the machine hits both sides.
const PASSES: [bool; 4] = [false, true, true, false];
const PASS_SHARE: f64 = 0.2;

/// Lowest per-pass p50 among passes with the given tracing flag.
fn best_p50<'a>(passes: impl Iterator<Item = (bool, &'a Vec<u64>)>, traced: bool) -> f64 {
    passes
        .filter(|(t, _)| *t == traced)
        .map(|(_, latency)| median(latency))
        .fold(f64::INFINITY, f64::min)
}

fn add_groups(
    into: &mut BTreeMap<&'static str, procfs::ThreadTimes>,
    from: BTreeMap<&'static str, procfs::ThreadTimes>,
) {
    for (group, t) in from {
        let slot = into.entry(group).or_default();
        slot.cpu_ns += t.cpu_ns;
        slot.runq_ns += t.runq_ns;
    }
}

fn put_common(r: &mut Report, l: &Ledger) {
    let c = &l.costs;
    let svc = &l.dep.hub.service;
    for (group, t) in &l.groups {
        r.put(&format!("{group}.cpu_ms"), ms(t.cpu_ns as f64), "ms");
        if *group != procfs::WORKERS {
            r.put(&format!("{group}.runq_ms"), ms(t.runq_ns as f64), "ms");
        }
    }
    r.put("auth.authorize_ns", c.authorize_ns, "ns");
    r.put("repository.resolve_ns", c.resolve_ns, "ns");
    r.put("admission.admit_ns", c.admit_ns, "ns");
    r.put("memo.key_ns", c.key_ns, "ns");
    r.put("memo.get_ns", c.get_ns, "ns");
    r.put("memo.put_ns", c.put_ns, "ns");
    r.put("task.encode_ns", c.encode_ns, "ns");
    r.put("task.decode_ns", c.decode_ns, "ns");
    r.put("task.bytes", c.bytes, "bytes");
    r.put("queue.rpc_roundtrip_us", c.rpc_roundtrip_us, "us");
    r.put("executor.handoff_us", c.handoff_us, "us");
    r.put("obs.span_ns", c.span_ns, "ns");
    r.put("obs.series_ns", c.series_ns, "ns");
    for id in workload::EVAL {
        let short = id.trim_start_matches("dlhub/");
        r.put(
            &format!("servable.{short}.run_ms"),
            c.run_ms_by_id[id],
            "ms",
        );
    }
    let memo = svc.memo_stats();
    let lookups = memo.hits + memo.misses;
    r.put("memo.lookups", lookups as f64, "count");
    r.put(
        "memo.hit_ratio",
        memo.hits as f64 / lookups.max(1) as f64,
        "share",
    );
    r.put("memo.evictions", memo.evictions as f64, "count");
    let topic = l.dep.hub.broker.stats("dlhub.tasks").unwrap_or_default();
    r.put(
        "queue.wait_mean_us",
        topic.mean_wait().as_nanos() as f64 / 1e3,
        "us",
    );
    r.put("queue.redelivered", topic.redelivered as f64, "count");
    r.put("queue.dropped", topic.dropped as f64, "count");
    let snap = svc.metrics_snapshot();
    let counter = |n: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k == n)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    r.put("serving.retries", counter("request_retries_total"), "count");
    r.put(
        "serving.exhausted",
        counter("request_exhausted_total"),
        "count",
    );
    r.put("admission.shed", counter("requests_shed_total"), "count");
    r.put(
        "autoscale.decisions",
        counter("autoscale_decisions_total"),
        "count",
    );
    r.put(
        "executor.cold_starts",
        svc.obs().metrics.histogram("cold_start_ns").count() as f64,
        "count",
    );
    r.put("obs.spans_dropped", snap.spans_dropped as f64, "count");
    let replicas: usize = l
        .dep
        .targets
        .iter()
        .map(|id| l.dep.hub.parsl.replicas(id))
        .sum();
    r.put("executor.replicas", replicas as f64, "count");
    r.put("ledger.unloaded_p50_ms", ms(l.unloaded_p50_ns), "ms");
    r.put("ledger.loaded_p50_ms", ms(l.loaded_p50_ns), "ms");
    r.put("ledger.sum_p50_ms", ms(l.sum_p50_ns), "ms");
    r.put(
        "ledger.residual_share",
        1.0 - l.sum_p50_ns / l.unloaded_p50_ns,
        "share",
    );
    r.put(
        "ledger.queueing_ms",
        ms(l.loaded_p50_ns - l.unloaded_p50_ns),
        "ms",
    );
    r.put(
        "tracing.overhead_share",
        l.best_traced_p50_ns / l.best_untraced_p50_ns - 1.0,
        "share",
    );
}

fn open_traced(args: &Args) -> Report {
    let name = args.workload;
    let (dep, _) = setup(args, 1);
    let seconds = args.seconds * PASS_SHARE;
    let fixed = open_schedule(args, &dep, SALT_FIXED, seconds);
    let replay_ok = check_replay(
        name,
        fixed.fingerprint,
        workload::open_schedule(name, args.seed, SALT_FIXED, seconds, dep.targets.len())
            .fingerprint,
        workload::open_schedule(name, args.seed + 1, SALT_FIXED, seconds, dep.targets.len())
            .fingerprint,
    );
    let samples: Vec<Sample> = fixed
        .sends
        .iter()
        .zip(&fixed.expected)
        .take(256)
        .map(|(s, e)| Sample {
            id: dep.targets[s.target].clone(),
            input: s.input.clone(),
            output: e.clone(),
        })
        .collect();
    let costs = layers::measure(&dep, &samples);

    // Unloaded: one request at a time through the same async path.
    let (unloaded, kinds, mut bad) = openloop::unloaded(&dep, &fixed, Duration::from_millis(1500));
    // Fig. 3 nesting from synchronous runs of the same requests (memo
    // bypassed, so the cache stays untouched).
    let no_memo = dlhub_core::serving::RunOptions {
        memoize: Some(false),
        ..Default::default()
    };
    let (mut request, mut invocation, mut inference) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut probes = 0;
    for (s, e) in fixed.sends.iter().zip(&fixed.expected) {
        if probes >= 20 && started.elapsed() > Duration::from_millis(500) {
            break;
        }
        probes += 1;
        let token = &dep.hub.token;
        let target = &dep.targets[s.target];
        match dep
            .hub
            .service
            .run_with_options(token, target, s.input.clone(), &no_memo)
        {
            Ok(res) if &res.value == e => {
                request.push(res.timings.request.as_nanos() as u64);
                invocation.push(res.timings.invocation.as_nanos() as u64);
                inference.push(res.timings.inference.as_nanos() as u64);
            }
            _ => bad += 1,
        }
    }

    let pool = prefix(&fixed, 256);
    openloop::throughput(&dep, &pool, name.outstanding(), 0.3);
    let passes: Vec<(bool, openloop::Outcome)> = PASSES
        .iter()
        .map(|&traced| {
            let out = openloop::run(&dep, fixed.replay(), name, traced);
            (traced, out)
        })
        .collect();
    let valid = passes.iter().all(|(_, out)| validity(name, out));
    let pick = |traced: bool, f: fn(&openloop::Outcome) -> &Vec<u64>| -> Vec<u64> {
        passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .flat_map(|(_, out)| f(out).iter().copied())
            .collect()
    };
    let mut groups = BTreeMap::new();
    for (_, out) in passes.iter().filter(|(t, _)| *t) {
        add_groups(
            &mut groups,
            procfs::group_times(&out.threads.0, &out.threads.1, out.generator),
        );
    }

    // Blocking path of one async request: authorize and resolve at the
    // Management Service, admission (when armed), request/response
    // codec, broker round trip, servable resolve at the Task Manager,
    // replica hand-off, and the servable itself; plus the obs hooks:
    // request, attempt, invocation and inference spans and one series
    // update.
    let c = &costs;
    let armed = name == Name::DispatchStorm;
    let common_ns = c.authorize_ns
        + 2.0 * c.resolve_ns
        + if armed { c.admit_ns } else { 0.0 }
        + c.encode_ns
        + c.decode_ns
        + c.rpc_roundtrip_us * 1e3
        + c.handoff_us * 1e3
        + 4.0 * c.span_ns
        + c.series_ns;
    let sums: Vec<u64> = kinds
        .iter()
        .map(|&k| (common_ns + c.run_ms_by_id[&dep.targets[k]] * 1e6) as u64)
        .collect();

    let ledger = Ledger {
        dep: &dep,
        groups,
        unloaded_p50_ns: median(&unloaded),
        loaded_p50_ns: median(&pick(false, |o| &o.latency_ns)),
        sum_p50_ns: median(&sums),
        best_untraced_p50_ns: best_p50(passes.iter().map(|(t, o)| (*t, &o.latency_ns)), false),
        best_traced_p50_ns: best_p50(passes.iter().map(|(t, o)| (*t, &o.latency_ns)), true),
        costs,
    };
    let failed = bad
        + passes
            .iter()
            .map(|(_, o)| o.failed + o.wrong)
            .sum::<usize>();
    let mut r = Report {
        correct: replay_ok && failed == 0,
        attempted: unloaded.len() + probes + passes.iter().map(|(_, o)| o.sent).sum::<usize>(),
        failed,
        ..Report::default()
    };
    r.put(
        "serving.submit_us",
        median(&pick(true, |o| &o.submit_ns)) / 1e3,
        "us",
    );
    r.put("serving.request_ms", ms(median(&request)), "ms");
    r.put("serving.invocation_ms", ms(median(&invocation)), "ms");
    r.put("executor.inference_ms", ms(median(&inference)), "ms");
    r.put("pipeline.step_ms", 0.0, "ms");
    r.put(
        "generator.lag_p99_us",
        quantile(&pick(true, |o| &o.dispatch_lag_ns), 0.99) / 1e3,
        "us",
    );
    r.put(
        "observer.lag_p99_us",
        quantile(&pick(true, |o| &o.observer_lag_ns), 0.99) / 1e3,
        "us",
    );
    r.put("generator.valid", valid as u8 as f64, "bool");
    r.put(
        "error_rate",
        failed as f64 / r.attempted.max(1) as f64,
        "share",
    );
    put_common(&mut r, &ledger);
    r
}

fn notebook_traced(args: &Args) -> Report {
    let name = args.workload;
    let (dep, _) = setup(args, 1);
    let seconds = args.seconds * PASS_SHARE;
    let len = notebook_len(PASSES.len() as f64 * seconds);
    let book = workload::notebook(args.seed, len, Some(&dep));
    let replay_ok = notebook_replay(args, &book, len);
    let mut samples = book.step_samples.clone();
    samples.extend(
        book.images
            .iter()
            .zip(&book.image_refs)
            .map(|(i, o)| Sample {
                id: workload::CIFAR10.into(),
                input: i.clone(),
                output: o.clone(),
            }),
    );
    let costs = layers::measure(&dep, &samples);

    let (warm_calls, warm_bad) = closedloop::warm_memo(&dep, &book);
    let mut cursor = 0;
    let w = closedloop::run(&dep, &book, &mut cursor, 1.0, name.limit(), false, None);
    let passes: Vec<(bool, closedloop::Outcome)> = PASSES
        .iter()
        .map(|&traced| {
            let out = closedloop::run(
                &dep,
                &book,
                &mut cursor,
                seconds,
                name.limit(),
                traced,
                None,
            );
            (traced, out)
        })
        .collect();
    let pick = |traced: bool, f: fn(&closedloop::Outcome) -> &Vec<u64>| -> Vec<u64> {
        passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .flat_map(|(_, out)| f(out).iter().copied())
            .collect()
    };
    let mut groups = BTreeMap::new();
    for (_, out) in passes.iter().filter(|(t, _)| *t) {
        add_groups(
            &mut groups,
            procfs::group_times(
                &out.threads.0,
                &out.threads.1,
                procfs::ThreadTimes::default(),
            ),
        );
    }
    let untraced_attempted: usize = passes
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, o)| o.attempted)
        .sum();

    // Blocking path of a memo hit: the pipeline authorizes once and
    // opens its span, then each step authorizes, resolves, hashes its
    // input, reads the memo, and records a request span, a lookup span
    // and one series update; a cifar10 call is one such step.
    let c = &costs;
    let step = |id: &str| {
        c.authorize_ns
            + c.resolve_ns
            + c.key_ns_by_id[id]
            + c.get_ns
            + 2.0 * c.span_ns
            + c.series_ns
    };
    let pipeline_ns = c.authorize_ns
        + c.span_ns
        + step(workload::UTIL)
        + step(workload::FEATURIZE)
        + step(workload::MODEL);
    let cifar_ns = step(workload::CIFAR10);
    let sums: Vec<u64> = book
        .ops
        .iter()
        .take(untraced_attempted)
        .map(|&(p, _)| if p { pipeline_ns } else { cifar_ns } as u64)
        .collect();

    let p50 = median(&pick(false, |o| &o.latency_ns));
    let traced_latency = pick(true, |o| &o.latency_ns);
    let ledger = Ledger {
        dep: &dep,
        groups,
        unloaded_p50_ns: p50,
        loaded_p50_ns: p50,
        sum_p50_ns: median(&sums),
        best_untraced_p50_ns: best_p50(passes.iter().map(|(t, o)| (*t, &o.latency_ns)), false),
        best_traced_p50_ns: best_p50(passes.iter().map(|(t, o)| (*t, &o.latency_ns)), true),
        costs,
    };
    let failed = warm_bad
        + w.failed
        + w.wrong
        + passes
            .iter()
            .map(|(_, o)| o.failed + o.wrong)
            .sum::<usize>();
    let mut r = Report {
        correct: replay_ok && failed == 0,
        attempted: warm_calls
            + w.attempted
            + passes.iter().map(|(_, o)| o.attempted).sum::<usize>(),
        failed,
        ..Report::default()
    };
    // The notebook's calls are synchronous: "submit" is the whole call.
    r.put("serving.submit_us", median(&traced_latency) / 1e3, "us");
    r.put(
        "serving.request_ms",
        ms(median(&pick(true, |o| &o.request_ns))),
        "ms",
    );
    r.put(
        "serving.invocation_ms",
        ms(median(&pick(true, |o| &o.invocation_ns))),
        "ms",
    );
    r.put(
        "executor.inference_ms",
        ms(median(&pick(true, |o| &o.inference_ns))),
        "ms",
    );
    r.put(
        "pipeline.step_ms",
        ms(median(&pick(true, |o| &o.step_ns))),
        "ms",
    );
    r.put("generator.lag_p99_us", 0.0, "us");
    r.put("observer.lag_p99_us", 0.0, "us");
    r.put("generator.valid", 1.0, "bool");
    r.put(
        "error_rate",
        failed as f64 / r.attempted.max(1) as f64,
        "share",
    );
    put_common(&mut r, &ledger);
    r
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <inference-mix|dispatch-storm|notebook-memo> \
                 --seed <n> --seconds <s> --trace <0|1> [--slowdown <share>] [--stall-us <n>]"
            );
            std::process::exit(2);
        }
    };
    let jiffies = procfs::cpu_jiffies();
    let report = match (args.workload, args.trace) {
        (Name::NotebookMemo, false) => notebook_e2e(&args),
        (Name::NotebookMemo, true) => notebook_traced(&args),
        (_, false) => open_e2e(&args),
        (_, true) => open_traced(&args),
    };
    report_steal(args.workload, jiffies);
    report.print();
}
