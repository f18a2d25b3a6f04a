//! Ablation: fixed vs profile-adaptive auto-batching (the paper's
//! proposed extension, §V-B3) on the *real* threaded runtime.
//!
//! ```text
//! cargo run --release -p dlhub-bench --bin ablation_batching
//! ```
//!
//! Workload: bursts of concurrent single requests against a cheap
//! servable (µs compute — batching is pure win) and an expensive one
//! (ms compute — big batches only add queueing delay). The adaptive
//! policy should batch the cheap servable aggressively while flushing
//! the expensive one almost immediately.

use dlhub_bench::report::{ms, print_table, shape_check, write_csv};
use dlhub_core::hub::TestHub;
use dlhub_core::obs::exact_quantile;
use dlhub_core::servable::{servable_fn, ModelType};
use dlhub_core::serving::ServingConfig;
use dlhub_core::value::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static CHEAP_CALLS: AtomicUsize = AtomicUsize::new(0);
static HEAVY_CALLS: AtomicUsize = AtomicUsize::new(0);

fn build_hub(adaptive: bool) -> TestHub {
    let hub = TestHub::builder()
        .without_eval_servables()
        .memo(false)
        .replicas(2)
        .config(ServingConfig {
            adaptive_batching: adaptive,
            batch_max: 64,
            batch_delay: Duration::from_millis(4),
            ..ServingConfig::default()
        })
        .build();
    hub.publish_simple(
        "cheap",
        ModelType::PythonFunction,
        servable_fn(|v| {
            CHEAP_CALLS.fetch_add(1, Ordering::Relaxed);
            Ok(v.clone())
        }),
    );
    hub.publish_simple(
        "heavy",
        ModelType::PythonFunction,
        servable_fn(|v| {
            HEAVY_CALLS.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(6));
            Ok(v.clone())
        }),
    );
    hub
}

/// Fire `n` concurrent requests through the auto-batcher; return
/// (wall time, per-request latencies).
fn burst(hub: &TestHub, servable: &str, n: usize) -> (Duration, Vec<Duration>) {
    let service = Arc::clone(&hub.service);
    let start = Instant::now();
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let service = Arc::clone(&service);
            let token = hub.token.clone();
            let id = servable.to_string();
            std::thread::spawn(move || {
                let t = Instant::now();
                service
                    .run_batched(&token, &id, Value::Int(i as i64))
                    .unwrap();
                t.elapsed()
            })
        })
        .collect();
    let latencies: Vec<Duration> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    (start.elapsed(), latencies)
}

fn main() {
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut results = std::collections::HashMap::new();
    for adaptive in [false, true] {
        let hub = build_hub(adaptive);
        // Seed profiles with a couple of requests each (also warms the
        // executor pools so the comparison is fair).
        for id in ["dlhub/cheap", "dlhub/heavy"] {
            for _ in 0..3 {
                hub.service.run(&hub.token, id, Value::Int(-1)).unwrap();
            }
        }
        for servable in ["cheap", "heavy"] {
            let id = format!("dlhub/{servable}");
            let mut wall = Duration::ZERO;
            let mut lat = Vec::new();
            for _ in 0..5 {
                let (w, l) = burst(&hub, &id, 24);
                wall += w;
                lat.extend(l);
            }
            let p50 = exact_quantile(&lat, 0.5).unwrap_or_default();
            let label = if adaptive { "adaptive" } else { "fixed" };
            results.insert((servable, adaptive), p50);
            rows.push(vec![
                servable.to_string(),
                label.to_string(),
                ms(wall.as_secs_f64() * 1e3 / 5.0),
                ms(p50.as_secs_f64() * 1e3),
            ]);
            csv.push(vec![
                servable.to_string(),
                label.to_string(),
                (wall.as_secs_f64() * 1e3 / 5.0).to_string(),
                (p50.as_secs_f64() * 1e3).to_string(),
            ]);
        }
    }

    print_table(
        "Ablation: auto-batcher sizing policy (bursts of 24 concurrent requests, 5 rounds)",
        &["servable", "policy", "burst wall ms", "p50 latency ms"],
        &rows,
    );
    let path = write_csv(
        "ablation_batching.csv",
        &["servable", "policy", "burst_wall_ms", "p50_latency_ms"],
        &csv,
    );
    println!("\nwrote {}", path.display());

    println!("\nshape checks:");
    let p50 =
        |servable: &'static str, adaptive: bool| results[&(servable, adaptive)].as_secs_f64() * 1e3;
    shape_check(
        &format!(
            "cheap servable: adaptive at least as good as fixed (fixed {} ms vs adaptive {} ms)",
            ms(p50("cheap", false)),
            ms(p50("cheap", true)),
        ),
        p50("cheap", true) <= p50("cheap", false) * 1.25,
    );
    shape_check(
        &format!(
            "heavy servable: adaptive avoids giant-batch queueing (fixed {} ms vs adaptive {} ms)",
            ms(p50("heavy", false)),
            ms(p50("heavy", true)),
        ),
        p50("heavy", true) <= p50("heavy", false) * 1.25,
    );
}
