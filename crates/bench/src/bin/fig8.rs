//! Fig 8: serving comparison across TensorFlow Serving, SageMaker,
//! Clipper and DLHub on CIFAR-10 and Inception (§V-B5).
//!
//! Expected shape (paper): TF-Serving-framework systems beat the
//! Python-based ones (C++ server); gRPC slightly beats REST; DLHub is
//! comparable to the other Python stacks; with memoization DLHub's
//! invocation collapses to ~1 ms — below everything, including
//! Clipper's cluster-side cache, which still pays the trip to the
//! frontend.

use dlhub_bench::calibrate_servables;
use dlhub_bench::report::{ms, print_table, shape_check, write_csv};
use dlhub_core::obs::exact_quantile;
use dlhub_sim::{testbed, ServingProfile, SimTime};

const MODELS: [&str; 2] = ["cifar10", "inception"];

fn median_times(
    profile: &ServingProfile,
    servable: &dlhub_sim::ServableModel,
    memo: bool,
    seed: u64,
) -> (SimTime, SimTime) {
    let samples = if memo {
        // Discard the warm-up miss, report steady-state hits.
        profile.run_sequential(servable, 101, true, true, seed)[1..].to_vec()
    } else {
        profile.run_sequential(servable, 100, false, true, seed)
    };
    let inv: Vec<SimTime> = samples.iter().map(|s| s.invocation).collect();
    let req: Vec<SimTime> = samples.iter().map(|s| s.request).collect();
    let median = |v: &[SimTime]| exact_quantile(v, 0.5).expect("non-empty run");
    (median(&inv), median(&req))
}

fn main() {
    println!("calibrating real kernels…");
    let servables = calibrate_servables(7);

    // (profile, memoized) pairs in presentation order.
    let mut systems: Vec<(ServingProfile, bool)> = testbed::all_profiles()
        .into_iter()
        .map(|p| (p, false))
        .collect();
    systems.push((testbed::clipper(), true));
    systems.push((testbed::dlhub(), true));

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut medians = std::collections::HashMap::new();
    for model_name in MODELS {
        let c = dlhub_bench::calibrate::find(&servables, model_name);
        for (k, (profile, memo)) in systems.iter().enumerate() {
            let label = if *memo {
                format!("{}+memo", profile.name)
            } else {
                profile.name.clone()
            };
            let (inv, req) = median_times(profile, &c.model, *memo, 400 + k as u64);
            medians.insert((model_name, label.clone()), (inv, req));
            rows.push(vec![
                model_name.to_string(),
                label.clone(),
                ms(inv.as_millis()),
                ms(req.as_millis()),
            ]);
            csv.push(vec![
                model_name.to_string(),
                label,
                inv.as_millis().to_string(),
                req.as_millis().to_string(),
            ]);
        }
    }

    print_table(
        "Fig 8: median invocation/request time (ms), 100 requests per system and model",
        &["model", "system", "invocation", "request"],
        &rows,
    );
    let path = write_csv(
        "fig8.csv",
        &["model", "system", "invocation_ms", "request_ms"],
        &csv,
    );
    println!("\nwrote {}", path.display());

    println!("\nshape checks against the paper:");
    let inv = |model: &'static str, system: &str| {
        medians
            .get(&(model, system.to_string()))
            .map(|(i, _)| i.as_millis())
            .unwrap_or_else(|| panic!("missing {model}/{system}"))
    };
    for model in MODELS {
        shape_check(
            &format!("[{model}] TFServing-gRPC < TFServing-REST"),
            inv(model, "TFServing-gRPC") < inv(model, "TFServing-REST"),
        );
        shape_check(
            &format!("[{model}] TF-Serving framework beats SageMaker-Flask"),
            inv(model, "TFServing-gRPC") < inv(model, "SageMaker-Flask")
                && inv(model, "TFServing-REST") < inv(model, "SageMaker-Flask"),
        );
        let dlhub_vs_flask = inv(model, "DLHub") / inv(model, "SageMaker-Flask");
        shape_check(
            &format!(
                "[{model}] DLHub comparable to Python stacks (DLHub/Flask = {dlhub_vs_flask:.2})"
            ),
            (0.7..1.4).contains(&dlhub_vs_flask),
        );
        shape_check(
            &format!(
                "[{model}] DLHub+memo invocation ≈ 1 ms (measured {})",
                ms(inv(model, "DLHub+memo"))
            ),
            inv(model, "DLHub+memo") < 1.5,
        );
        shape_check(
            &format!("[{model}] DLHub+memo beats Clipper+memo (cache placement)"),
            inv(model, "DLHub+memo") < inv(model, "Clipper+memo"),
        );
        shape_check(
            &format!("[{model}] Clipper+memo still beats every non-memoized system"),
            inv(model, "Clipper+memo") < inv(model, "TFServing-gRPC"),
        );
    }
}
