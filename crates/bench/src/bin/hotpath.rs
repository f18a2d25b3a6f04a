//! Request hot-path scaling: aggregate throughput of the Management
//! Service under concurrent clients.
//!
//! ```text
//! cargo run --release -p dlhub-bench --bin hotpath
//! ```
//!
//! Drives `ManagementService::run` with 1/2/4/8/16 closed-loop client
//! threads in two regimes:
//!
//! * **hit100** — every request hits the memo cache (the §V-B5 fast
//!   path). This isolates the service's own locking: preflight,
//!   sharded memo lookup, stats. With the sharded cache and atomic
//!   counters, aggregate throughput should scale with the client
//!   count.
//! * **hit0** — every request carries a fresh input, so each one runs
//!   the full broker → Task Manager → executor path with a memo miss
//!   and a put on the way back.
//!
//! Like the rest of the harness, clients are separated from the
//! service by a simulated network RTT (§V-A testbed; default 200 µs,
//! `HOTPATH_RTT_US` to override, 0 for raw in-process mode). The RTT
//! is spent in the client between requests and excluded from the
//! reported latencies, so p50/p99 measure the service alone while
//! req/s reflects what concurrent remote clients would see: if the
//! request path serialized, adding clients could not raise aggregate
//! throughput.
//!
//! Prints req/s and p50/p99 latency per cell and writes the series as
//! JSON (`results/BENCH_hotpath.json`, mirrored to the workspace root
//! so the numbers are committed alongside the code they measure).

use dlhub_bench::report::{print_table, shape_check, write_json};
use dlhub_core::admission::AdmissionConfig;
use dlhub_core::autoscale::ControlPolicy;
use dlhub_core::hub::TestHub;
use dlhub_core::obs::exact_quantile;
use dlhub_core::servable::{servable_fn, ModelType};
use dlhub_core::serving::ServingConfig;
use dlhub_core::value::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const THREADS: [usize; 5] = [1, 2, 4, 8, 16];

/// Hot keys shared by every client in the 100%-hit regime: enough to
/// spread across the cache shards, few enough to always be resident.
const HOT_KEYS: i64 = 64;

struct Cell {
    threads: usize,
    requests: u64,
    elapsed: Duration,
    p50: Duration,
    p99: Duration,
}

impl Cell {
    fn req_per_s(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64()
    }
}

fn drive(hub: &TestHub, threads: usize, window: Duration, rtt: Duration, all_hits: bool) -> Cell {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let service = Arc::clone(&hub.service);
            let token = hub.token.clone();
            let barrier = Arc::clone(&barrier);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut latencies: Vec<Duration> = Vec::with_capacity(1 << 16);
                let mut i = 0i64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let input = if all_hits {
                        Value::Int(i % HOT_KEYS)
                    } else {
                        // Unique per thread and iteration: never hits.
                        Value::Int(((t as i64) << 40) | (i + HOT_KEYS))
                    };
                    let started = Instant::now();
                    service
                        .run(&token, "dlhub/echo", input)
                        .expect("echo request");
                    latencies.push(started.elapsed());
                    i += 1;
                    if !rtt.is_zero() {
                        // Client-side network gap; not part of the
                        // measured service latency.
                        std::thread::sleep(rtt);
                    }
                }
                latencies
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let all: Vec<Duration> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed = started.elapsed();
    Cell {
        threads,
        requests: all.len() as u64,
        elapsed,
        p50: exact_quantile(&all, 0.50).unwrap_or_default(),
        p99: exact_quantile(&all, 0.99).unwrap_or_default(),
    }
}

/// Alternate `AB_TRIALS` 100%-hit cells between the two hubs and keep
/// each side's best throughput. External noise (scheduler, other
/// containers, frequency drift) only ever *lowers* a cell, so peak
/// versus peak is the statistic that isolates the enabled feature's
/// own cost — a single pair of cells on a shared box swings far more
/// than the 5% contract being measured. Alternating (d, e, d, e, …)
/// rather than batching keeps slow drift from biasing one side.
const AB_TRIALS: usize = 3;

fn ab_cells(
    disabled: &TestHub,
    enabled: &TestHub,
    threads: usize,
    window: Duration,
    rtt: Duration,
) -> (Cell, Cell) {
    let mut best_d: Option<Cell> = None;
    let mut best_e: Option<Cell> = None;
    for _ in 0..AB_TRIALS {
        let d = drive(disabled, threads, window, rtt, true);
        if best_d
            .as_ref()
            .is_none_or(|b| d.req_per_s() > b.req_per_s())
        {
            best_d = Some(d);
        }
        let e = drive(enabled, threads, window, rtt, true);
        if best_e
            .as_ref()
            .is_none_or(|b| e.req_per_s() > b.req_per_s())
        {
            best_e = Some(e);
        }
    }
    (best_d.expect("ab trials"), best_e.expect("ab trials"))
}

fn run_mode(hub: &TestHub, window: Duration, rtt: Duration, all_hits: bool) -> Vec<Cell> {
    if all_hits {
        // Warm the cache so every measured request hits.
        for i in 0..HOT_KEYS {
            hub.service
                .run(&hub.token, "dlhub/echo", Value::Int(i))
                .expect("warm request");
        }
    }
    THREADS
        .iter()
        .map(|&threads| drive(hub, threads, window, rtt, all_hits))
        .collect()
}

fn main() {
    let window = Duration::from_millis(
        std::env::var("HOTPATH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1500),
    );
    let rtt = Duration::from_micros(
        std::env::var("HOTPATH_RTT_US")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200),
    );
    // Generous downstream capacity (replicas, consumers) so the
    // request path itself — locks, memo, dispatch — is what's being
    // measured rather than executor starvation.
    // A (loose) SLO keeps the full analytics path hot during the
    // bench: every request updates burn-rate windows and exemplar
    // slots, so the committed numbers include that cost.
    let hub = TestHub::builder()
        .without_eval_servables()
        .memo(true)
        .replicas(16)
        .consumers(16)
        .config(ServingConfig {
            async_workers: 16,
            ..ServingConfig::default()
        })
        .slo(dlhub_core::obs::SloSpec::new(
            "dlhub/echo",
            Duration::from_secs(1),
        ))
        .build();
    hub.publish_simple(
        "echo",
        ModelType::PythonFunction,
        servable_fn(|v| Ok(v.clone())),
    );

    let mut table = Vec::new();
    let mut json_modes = serde_json::Map::new();
    let mut hit_cells = Vec::new();
    for (label, all_hits) in [("hit100", true), ("hit0", false)] {
        let cells = run_mode(&hub, window, rtt, all_hits);
        let mut series = Vec::new();
        for cell in &cells {
            table.push(vec![
                label.to_string(),
                cell.threads.to_string(),
                format!("{:.0}", cell.req_per_s()),
                format!("{:.1}", cell.p50.as_secs_f64() * 1e6),
                format!("{:.1}", cell.p99.as_secs_f64() * 1e6),
            ]);
            series.push(serde_json::json!({
                "threads": cell.threads,
                "requests": cell.requests,
                "elapsed_s": cell.elapsed.as_secs_f64(),
                "req_per_s": cell.req_per_s(),
                "p50_us": cell.p50.as_secs_f64() * 1e6,
                "p99_us": cell.p99.as_secs_f64() * 1e6,
            }));
        }
        json_modes.insert(label.to_string(), serde_json::Value::Array(series));
        if all_hits {
            hit_cells = cells;
        }
    }

    print_table(
        &format!(
            "Hot-path scaling ({}ms per cell, {}us client RTT)",
            window.as_millis(),
            rtt.as_micros()
        ),
        &["mode", "threads", "req/s", "p50 us", "p99 us"],
        &table,
    );

    let rate = |threads: usize| {
        hit_cells
            .iter()
            .find(|c| c.threads == threads)
            .map(|c| c.req_per_s())
            .unwrap_or(0.0)
    };
    let speedup = rate(8) / rate(1).max(1.0);
    println!("\nshape checks:");
    shape_check(
        &format!(
            "100%-hit throughput scales ≥2x from 1 to 8 threads ({:.0} → {:.0} req/s, {speedup:.2}x)",
            rate(1),
            rate(8)
        ),
        speedup >= 2.0,
    );

    // The run's own telemetry rides along in the artifact: per-servable
    // latency histograms from the service's metrics registry, so the
    // committed JSON carries the paper's three measurement points
    // without a separate collection step.
    let metrics = hub.service.metrics_snapshot();
    let echo_series = metrics
        .servables
        .iter()
        .find(|(id, _)| id == "dlhub/echo")
        .map(|(_, s)| s.clone())
        .expect("echo servable recorded metrics");
    shape_check(
        &format!(
            "metrics registry observed every request ({} recorded)",
            echo_series.requests
        ),
        echo_series.requests > 0 && echo_series.request_latency.is_some(),
    );
    let echo_slo = metrics
        .slos
        .iter()
        .find(|s| s.servable == "dlhub/echo")
        .expect("echo SLO tracked");
    shape_check(
        &format!(
            "SLO engine observed the run without firing ({} observed)",
            echo_slo.observed
        ),
        echo_slo.observed > 0 && !echo_slo.firing && echo_slo.alerts_fired == 0,
    );
    let exemplars: usize = echo_series
        .request_latency_buckets
        .iter()
        .map(|b| b.exemplars.len())
        .sum();
    shape_check(
        &format!("latency histogram retained trace exemplars ({exemplars})"),
        exemplars > 0,
    );

    // Profiler overhead A/B: the same 100%-hit cell on the default
    // (profiler disabled) hub versus a second deployment with the
    // continuous profiler sampling and the flight recorder armed. The
    // disabled side is the zero-cost contract — every frame mark is
    // one relaxed atomic load — and the enabled side must stay within
    // noise of it. `scripts/bench_gate.py --check overhead` enforces
    // the committed ratio in CI.
    const OVERHEAD_THREADS: usize = 4;
    const OVERHEAD_HZ: u32 = 99;
    let ab_window = window.min(Duration::from_millis(1000));
    shape_check(
        "default config leaves the profiler statically disabled",
        hub.service.profile_report().is_none(),
    );
    let profiled = TestHub::builder()
        .without_eval_servables()
        .memo(true)
        .replicas(16)
        .consumers(16)
        .config(ServingConfig {
            async_workers: 16,
            profile_hz: OVERHEAD_HZ,
            recorder_capacity: 8,
            ..ServingConfig::default()
        })
        .slo(dlhub_core::obs::SloSpec::new(
            "dlhub/echo",
            Duration::from_secs(1),
        ))
        .build();
    profiled.publish_simple(
        "echo",
        ModelType::PythonFunction,
        servable_fn(|v| Ok(v.clone())),
    );
    for i in 0..HOT_KEYS {
        profiled
            .service
            .run(&profiled.token, "dlhub/echo", Value::Int(i))
            .expect("warm request");
    }
    let (disabled_cell, enabled_cell) = ab_cells(&hub, &profiled, OVERHEAD_THREADS, ab_window, rtt);
    let profile = profiled
        .service
        .profile_report()
        .expect("profiler enabled for the A/B hub");
    shape_check(
        &format!(
            "enabled profiler observed the run ({} samples @ {} Hz)",
            profile.total_samples, profile.hz
        ),
        profile.total_samples > 0,
    );
    let per_thread: u64 = profile.threads.iter().map(|t| t.samples).sum();
    shape_check(
        &format!(
            "per-thread sample counts partition the total ({per_thread} == {})",
            profile.total_samples
        ),
        per_thread == profile.total_samples,
    );
    let overhead_ratio = enabled_cell.req_per_s() / disabled_cell.req_per_s().max(1.0);
    // Local sanity floor only; the CI contract (default 0.95, env
    // tunable) lives in bench_gate.py against the committed artifact.
    shape_check(
        &format!(
            "profiler-enabled throughput within noise of disabled ({:.0} → {:.0} req/s, ratio {:.3})",
            disabled_cell.req_per_s(),
            enabled_cell.req_per_s(),
            overhead_ratio
        ),
        overhead_ratio >= 0.85,
    );

    // Telemetry collector A/B, mirroring the profiler's: the same
    // 100%-hit cell against a third deployment with the time-series
    // collector sampling every 50 ms. The disabled side reuses the
    // default hub (collector statically off — one relaxed pointer load
    // per query accessor); `bench_gate.py --check telemetry` enforces
    // the committed ratio in CI. The telemetered run's exported series
    // becomes the artifact's time axis.
    const TELEMETRY_INTERVAL_MS: u64 = 50;
    shape_check(
        "default config leaves the telemetry collector statically disabled",
        hub.service.telemetry_store().is_none(),
    );
    let telemetered = TestHub::builder()
        .without_eval_servables()
        .memo(true)
        .replicas(16)
        .consumers(16)
        .config(ServingConfig {
            async_workers: 16,
            telemetry_interval: Duration::from_millis(TELEMETRY_INTERVAL_MS),
            ..ServingConfig::default()
        })
        .slo(dlhub_core::obs::SloSpec::new(
            "dlhub/echo",
            Duration::from_secs(1),
        ))
        .build();
    telemetered.publish_simple(
        "echo",
        ModelType::PythonFunction,
        servable_fn(|v| Ok(v.clone())),
    );
    for i in 0..HOT_KEYS {
        telemetered
            .service
            .run(&telemetered.token, "dlhub/echo", Value::Int(i))
            .expect("warm request");
    }
    let (telemetry_disabled_cell, telemetry_cell) =
        ab_cells(&hub, &telemetered, OVERHEAD_THREADS, ab_window, rtt);
    let store = telemetered
        .service
        .telemetry_store()
        .expect("collector enabled for the A/B hub");
    shape_check(
        &format!(
            "telemetry collector observed the run ({} passes, {} series)",
            store.samples_taken(),
            store.series_names().len()
        ),
        store.samples_taken() > 0 && !store.series_names().is_empty(),
    );
    let telemetry_ratio = telemetry_cell.req_per_s() / telemetry_disabled_cell.req_per_s().max(1.0);
    shape_check(
        &format!(
            "collector-enabled throughput within noise of disabled ({:.0} → {:.0} req/s, ratio {:.3})",
            telemetry_disabled_cell.req_per_s(),
            telemetry_cell.req_per_s(),
            telemetry_ratio
        ),
        telemetry_ratio >= 0.85,
    );

    // Control-loop A/B, closing the set: the same 100%-hit cell
    // against a fourth deployment with the whole control plane armed —
    // the telemetry collector feeding windowed signals, the background
    // reconciler actuating on them, and per-request admission control
    // in front of the memo lookup. The policy pins min == max replicas
    // so the A/B measures the loop's steady-state cost (signal
    // evaluation in the reconciler thread, per-request admission
    // accounting) rather than capacity changes mid-measurement, and
    // the inflight cap sits far above the client count so nothing
    // sheds. The disabled side reuses the default hub (control
    // statically off — `admission` and `autoscale` both `None`).
    // `bench_gate.py --check control` enforces the committed ratio.
    const RECONCILE_INTERVAL_MS: u64 = 50;
    shape_check(
        "default config leaves the control loop statically disabled",
        hub.service.reconciler().is_none() && hub.service.admission().is_none(),
    );
    let controlled = TestHub::builder()
        .without_eval_servables()
        .memo(true)
        .replicas(16)
        .consumers(16)
        .config(ServingConfig {
            async_workers: 16,
            telemetry_interval: Duration::from_millis(TELEMETRY_INTERVAL_MS),
            autoscale: Some(ControlPolicy {
                min_replicas: 16,
                max_replicas: 16,
                ..ControlPolicy::default()
            }),
            autoscale_interval: Duration::from_millis(RECONCILE_INTERVAL_MS),
            admission: Some(AdmissionConfig {
                max_inflight: 1024,
                ..AdmissionConfig::default()
            }),
            ..ServingConfig::default()
        })
        .slo(dlhub_core::obs::SloSpec::new(
            "dlhub/echo",
            Duration::from_secs(1),
        ))
        .build();
    controlled.publish_simple(
        "echo",
        ModelType::PythonFunction,
        servable_fn(|v| Ok(v.clone())),
    );
    for i in 0..HOT_KEYS {
        controlled
            .service
            .run(&controlled.token, "dlhub/echo", Value::Int(i))
            .expect("warm request");
    }
    let (control_disabled_cell, control_cell) =
        ab_cells(&hub, &controlled, OVERHEAD_THREADS, ab_window, rtt);
    let admission = controlled
        .service
        .admission()
        .expect("admission armed for the A/B hub");
    let admitted = admission.admitted_total();
    let control_decisions = controlled
        .service
        .reconciler()
        .expect("reconciler armed for the A/B hub")
        .decisions()
        .len() as u64;
    let shed = controlled
        .service
        .metrics_snapshot()
        .counters
        .iter()
        .find(|(name, _)| name == "requests_shed_total")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    shape_check(
        &format!("admission controller saw every request ({admitted} admitted, {shed} shed)"),
        admitted >= control_cell.requests && shed == 0,
    );
    shape_check(
        &format!("pinned policy held capacity fixed ({control_decisions} scaling decisions)"),
        control_decisions == 0,
    );
    let control_ratio = control_cell.req_per_s() / control_disabled_cell.req_per_s().max(1.0);
    shape_check(
        &format!(
            "control-loop-enabled throughput within noise of disabled ({:.0} → {:.0} req/s, ratio {:.3})",
            control_disabled_cell.req_per_s(),
            control_cell.req_per_s(),
            control_ratio
        ),
        control_ratio >= 0.85,
    );

    let doc = serde_json::json!({
        "bench": "hotpath",
        "window_ms": window.as_millis() as u64,
        "client_rtt_us": rtt.as_micros() as u64,
        "thread_counts": THREADS.to_vec(),
        "modes": serde_json::Value::Object(json_modes),
        "hit100_speedup_8t_over_1t": speedup,
        "overhead": {
            "threads": OVERHEAD_THREADS,
            "window_ms": ab_window.as_millis() as u64,
            "trials": AB_TRIALS,
            "profile_hz": OVERHEAD_HZ,
            "disabled_req_per_s": disabled_cell.req_per_s(),
            "enabled_req_per_s": enabled_cell.req_per_s(),
            "enabled_over_disabled": overhead_ratio,
            "profiler_samples": profile.total_samples,
        },
        "telemetry_overhead": {
            "threads": OVERHEAD_THREADS,
            "window_ms": ab_window.as_millis() as u64,
            "trials": AB_TRIALS,
            "interval_ms": TELEMETRY_INTERVAL_MS,
            "disabled_req_per_s": telemetry_disabled_cell.req_per_s(),
            "enabled_req_per_s": telemetry_cell.req_per_s(),
            "enabled_over_disabled": telemetry_ratio,
            "telemetry_samples": store.samples_taken(),
        },
        "autoscale_overhead": {
            "threads": OVERHEAD_THREADS,
            "window_ms": ab_window.as_millis() as u64,
            "trials": AB_TRIALS,
            "reconcile_interval_ms": RECONCILE_INTERVAL_MS,
            "disabled_req_per_s": control_disabled_cell.req_per_s(),
            "enabled_req_per_s": control_cell.req_per_s(),
            "enabled_over_disabled": control_ratio,
            "admitted": admitted,
            "shed": shed,
            "scaling_decisions": control_decisions,
        },
        // The run's time axis from the telemetered A/B hub, capped to
        // the newest points per ring tier so the committed artifact
        // stays reviewable (each tier reports what it dropped).
        "telemetry": store.to_json_capped(6),
        "metrics": metrics.to_json(),
    });
    let path = write_json("BENCH_hotpath.json", &doc);
    // Mirror to the workspace root so the committed copy lives next to
    // the code it measures. `HOTPATH_MIRROR=0` keeps smoke runs (CI)
    // from clobbering the committed full-length numbers.
    let mirror = std::env::var("HOTPATH_MIRROR").map_or(true, |v| v != "0");
    if mirror {
        let root_copy = std::path::Path::new("BENCH_hotpath.json");
        std::fs::copy(&path, root_copy).expect("copy BENCH_hotpath.json");
        println!(
            "wrote {} (mirrored to {})",
            path.display(),
            root_copy.display()
        );
    } else {
        println!("wrote {} (mirror disabled)", path.display());
    }
}
