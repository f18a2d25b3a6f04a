//! Calibration: measure the real Rust kernels once per process and
//! turn them into [`dlhub_sim::ServableModel`]s for the testbed
//! simulation. This is what keeps the simulated figures honest — the
//! inference-time *ratios* between servables are measured, not
//! assumed.

use dlhub_core::servable::builtins::{
    ImageClassifier, MatminerFeaturize, MatminerModel, MatminerUtil, NoopServable,
};
use dlhub_core::servable::Servable;
use dlhub_core::value::Value;
use dlhub_sim::{ServableModel, SimTime};
use std::time::{Duration, Instant};

/// A servable together with its calibrated cost model and the input
/// used for calibration.
pub struct CalibratedServable {
    /// Display name matching the paper's Fig 3 labels.
    pub name: &'static str,
    /// Cost model for the simulator.
    pub model: ServableModel,
    /// Real measured single-inference time.
    pub measured: Duration,
}

fn measure(servable: &dyn Servable, input: &Value, runs: usize) -> Duration {
    // Warm up (allocators, thread pools), then take the median of
    // `runs` timed executions.
    servable
        .run(input)
        .expect("calibration input must be valid");
    let samples: Vec<Duration> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            servable.run(input).expect("calibration run");
            start.elapsed()
        })
        .collect();
    dlhub_core::obs::exact_quantile(&samples, 0.5).expect("at least one run")
}

fn kb(value: &Value) -> f64 {
    value.approx_size() as f64 / 1024.0
}

/// Calibrate the paper's six evaluation servables (§V-A). Deterministic
/// model weights from `seed`; timings are real and hardware-dependent.
pub fn calibrate_servables(seed: u64) -> Vec<CalibratedServable> {
    let mut out = Vec::new();

    let noop = NoopServable;
    let noop_input = Value::Null;
    let measured = measure(&noop, &noop_input, 50);
    out.push(CalibratedServable {
        name: "noop",
        model: ServableModel::new(
            "noop",
            SimTime::from_duration(measured),
            kb(&noop_input),
            kb(&Value::Str("hello world".into())),
        ),
        measured,
    });

    let inception = ImageClassifier::inception(seed);
    let inception_input = Value::from_tensor(&dlhub_core::tensor::models::synthetic_image(
        &dlhub_core::tensor::models::INCEPTION_INPUT,
        0,
    ));
    let inception_output = inception.run(&inception_input).expect("inception runs");
    let measured = measure(&inception, &inception_input, 5);
    out.push(CalibratedServable {
        name: "inception",
        model: ServableModel::new(
            "inception",
            SimTime::from_duration(measured),
            kb(&inception_input),
            kb(&inception_output),
        ),
        measured,
    });

    let cifar = ImageClassifier::cifar10(seed);
    let cifar_input = Value::from_tensor(&dlhub_core::tensor::models::synthetic_image(
        &dlhub_core::tensor::models::CIFAR10_INPUT,
        0,
    ));
    let cifar_output = cifar.run(&cifar_input).expect("cifar runs");
    let measured = measure(&cifar, &cifar_input, 15);
    out.push(CalibratedServable {
        name: "cifar10",
        model: ServableModel::new(
            "cifar10",
            SimTime::from_duration(measured),
            kb(&cifar_input),
            kb(&cifar_output),
        ),
        measured,
    });

    let util = MatminerUtil;
    let util_input = Value::Str("NaCl".into());
    let util_output = util.run(&util_input).expect("util runs");
    let measured = measure(&util, &util_input, 50);
    out.push(CalibratedServable {
        name: "matminer util",
        model: ServableModel::new(
            "matminer util",
            SimTime::from_duration(measured),
            kb(&util_input),
            kb(&util_output),
        ),
        measured,
    });

    let featurize = MatminerFeaturize;
    let feat_output = featurize.run(&util_output).expect("featurize runs");
    let measured = measure(&featurize, &util_output, 50);
    out.push(CalibratedServable {
        name: "matminer featurize",
        model: ServableModel::new(
            "matminer featurize",
            SimTime::from_duration(measured),
            kb(&util_output),
            kb(&feat_output),
        ),
        measured,
    });

    let model = MatminerModel::train(seed);
    let measured = measure(&model, &feat_output, 30);
    out.push(CalibratedServable {
        name: "matminer model",
        model: ServableModel::new(
            "matminer model",
            SimTime::from_duration(measured),
            kb(&feat_output),
            kb(&Value::Float(0.0)),
        ),
        measured,
    });

    out
}

/// Find one calibrated servable by name.
pub fn find<'a>(set: &'a [CalibratedServable], name: &str) -> &'a CalibratedServable {
    set.iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no calibrated servable named {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_six_models_with_paper_ratios() {
        let set = calibrate_servables(7);
        assert_eq!(set.len(), 6);
        let t = |name: &str| find(&set, name).model.service_time;
        // The compute ordering the paper's Fig 3 shows.
        assert!(t("inception") > t("cifar10"), "inception must dominate");
        assert!(t("cifar10") > t("matminer util"));
        assert!(t("noop") < t("cifar10"));
        // Inputs: inception's image is by far the biggest payload.
        let in_kb = |name: &str| find(&set, name).model.input_kb;
        assert!(in_kb("inception") > 50.0 * in_kb("matminer util"));
        assert!(in_kb("cifar10") > in_kb("matminer util"));
    }
}
