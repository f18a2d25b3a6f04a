//! Ablation: server-side pipelines vs client-side chaining (§VI-D).
//!
//! ```text
//! cargo run --release -p dlhub-bench --bin ablation_pipeline
//! ```
//!
//! "Defining these steps as a pipeline means data are automatically
//! passed between each servable in the pipeline, meaning the entire
//! execution is performed server-side, drastically lowering both the
//! latency and user burden." On the paper testbed, client-side
//! chaining of the formation-enthalpy stages pays the 20.7 ms WAN RTT
//! (plus MS/TM overheads) once *per stage*; the registered pipeline
//! pays it once total.

use dlhub_bench::calibrate_servables;
use dlhub_bench::report::{ms, print_table, shape_check, write_csv};
use dlhub_core::obs::p5_p50_p95;
use dlhub_sim::{testbed, SimTime};

const STAGES: [&str; 3] = ["matminer util", "matminer featurize", "matminer model"];
const RUNS: usize = 100;

fn main() {
    println!("calibrating real kernels…");
    let servables = calibrate_servables(7);
    let profile = testbed::dlhub();

    // Client-side chaining: each stage is its own request; the WAN
    // round trip and MS/TM overheads repeat per stage.
    let mut client_side = vec![SimTime::ZERO; RUNS];
    for (k, stage) in STAGES.iter().enumerate() {
        let c = dlhub_bench::calibrate::find(&servables, stage);
        let samples = profile.run_sequential(&c.model, RUNS, false, false, 900 + k as u64);
        for (total, s) in client_side.iter_mut().zip(&samples) {
            *total += s.request;
        }
    }

    // Server-side pipeline: one request-level envelope, three
    // executor invocations chained at the Task Manager without
    // returning to the client between stages.
    let mut server_side = vec![SimTime::ZERO; RUNS];
    let mut per_stage_invocations: Vec<Vec<SimTime>> = Vec::new();
    for (k, stage) in STAGES.iter().enumerate() {
        let c = dlhub_bench::calibrate::find(&servables, stage);
        let samples = profile.run_sequential(&c.model, RUNS, false, false, 900 + k as u64);
        per_stage_invocations.push(samples.iter().map(|s| s.invocation).collect());
    }
    // The request-minus-invocation envelope (MS overhead + WAN + TM),
    // paid once: reuse the first stage's samples to extract it.
    let c0 = dlhub_bench::calibrate::find(&servables, STAGES[0]);
    let envelope_samples = profile.run_sequential(&c0.model, RUNS, false, false, 900);
    for i in 0..RUNS {
        let envelope = envelope_samples[i]
            .request
            .saturating_sub(envelope_samples[i].invocation);
        server_side[i] = per_stage_invocations
            .iter()
            .fold(envelope, |acc, stage| acc + stage[i]);
    }

    let (c5, c50, c95) = p5_p50_p95(&client_side).expect("non-empty run");
    let (s5, s50, s95) = p5_p50_p95(&server_side).expect("non-empty run");
    let rows = vec![
        vec![
            "client-side chaining".to_string(),
            ms(c50.as_millis()),
            format!("[{}..{}]", ms(c5.as_millis()), ms(c95.as_millis())),
        ],
        vec![
            "server-side pipeline".to_string(),
            ms(s50.as_millis()),
            format!("[{}..{}]", ms(s5.as_millis()), ms(s95.as_millis())),
        ],
    ];
    print_table(
        "Ablation: formation-enthalpy pipeline, end-to-end ms (100 runs)",
        &["strategy", "median", "p5..p95"],
        &rows,
    );
    let path = write_csv(
        "ablation_pipeline.csv",
        &["strategy", "median_ms", "p5_ms", "p95_ms"],
        &[
            vec![
                "client-side".into(),
                c50.as_millis().to_string(),
                c5.as_millis().to_string(),
                c95.as_millis().to_string(),
            ],
            vec![
                "server-side".into(),
                s50.as_millis().to_string(),
                s5.as_millis().to_string(),
                s95.as_millis().to_string(),
            ],
        ],
    );
    println!("\nwrote {}", path.display());

    println!("\nshape checks against the paper:");
    let speedup = c50.as_millis() / s50.as_millis();
    shape_check(
        &format!("server-side pipeline drastically lowers latency ({speedup:.2}x)"),
        speedup > 1.8,
    );
    // The saving equals roughly two extra WAN envelopes (2 stages'
    // worth of ms_overhead + RTT + tm_overhead ≈ 2 × 27 ms).
    let saved = c50.as_millis() - s50.as_millis();
    shape_check(
        &format!("saving ≈ two request envelopes ({} ms)", ms(saved)),
        (40.0..75.0).contains(&saved),
    );
}
