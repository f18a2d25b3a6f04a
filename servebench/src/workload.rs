//! The three workloads: what they deploy, what they send, and what the
//! correct answers are.
//!
//! Inputs are generated from the seed only; references are computed by
//! calling the deployed servables directly (and chaining the pipeline
//! by hand) on the same inputs, before anything is timed.

use crate::layers::Sample;
use crate::rng::{self, Fingerprint, Rng, Zipf};
use dlhub_core::admission::AdmissionConfig;
use dlhub_core::autoscale::ControlPolicy;
use dlhub_core::fault::{site, FaultKind, FaultPlan, FaultSpec};
use dlhub_core::hub::TestHub;
use dlhub_core::pipeline::Pipeline;
use dlhub_core::servable::builtins::{MatminerUtil, NoopServable};
use dlhub_core::servable::ModelType;
use dlhub_core::serving::{RunOptions, ServingConfig};
use dlhub_core::{Servable, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NOOP: &str = "dlhub/noop";
pub const INCEPTION: &str = "dlhub/inception";
pub const CIFAR10: &str = "dlhub/cifar10";
pub const UTIL: &str = "dlhub/matminer-util";
pub const FEATURIZE: &str = "dlhub/matminer-featurize";
pub const MODEL: &str = "dlhub/matminer-model";
/// The six evaluation servables, in the order per-layer costs report.
pub const EVAL: [&str; 6] = [NOOP, INCEPTION, CIFAR10, UTIL, FEATURIZE, MODEL];
/// The wrapper that makes cifar10 slower for the sensitivity check.
pub const CIFAR10_SLOW: &str = "dlhub/cifar10-slow";
/// The notebook's registered 3-step matminer pipeline.
pub const PIPELINE: &str = "matminer-stability";

/// Published copies that widen the dispatch-storm catalog.
const STORM_COPIES: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    InferenceMix,
    DispatchStorm,
    NotebookMemo,
}

impl Name {
    pub fn parse(s: &str) -> Option<Name> {
        match s {
            "inference-mix" => Some(Name::InferenceMix),
            "dispatch-storm" => Some(Name::DispatchStorm),
            "notebook-memo" => Some(Name::NotebookMemo),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Name::InferenceMix => "inference-mix",
            Name::DispatchStorm => "dispatch-storm",
            Name::NotebookMemo => "notebook-memo",
        }
    }

    /// Offered rate of the fixed-rate phase (open loop only): about
    /// half the 8-outstanding drain rate for inference-mix as measured
    /// with a third of the CPU stolen by other guests (110-130/s; about
    /// 200/s without), about a tenth of it for dispatch-storm, so that
    /// neither backs up when the machine loses CPU time to its
    /// neighbours. At 60/s a 25 s run still has over 1000 samples (ten
    /// beyond p99).
    pub fn rate_per_s(self) -> f64 {
        match self {
            Name::InferenceMix => 60.0,
            Name::DispatchStorm => 2000.0,
            Name::NotebookMemo => 0.0,
        }
    }

    /// Latency limit for `slo_attainment` and generator validity, set
    /// from the p99 measured on the 2-vCPU reference machine: about
    /// three times inference-mix's p99 with little CPU stolen by other
    /// guests (65-75 ms), about ten times dispatch-storm's (about 1 ms;
    /// with half the CPU stolen its p90 reaches 10 ms, and a tighter
    /// limit would gate the neighbours rather than the program), and
    /// about five times the notebook's (about 0.05 ms; a closed loop
    /// loses only the call in flight to a stall, so steal barely moves
    /// it).
    pub fn limit(self) -> Duration {
        match self {
            Name::InferenceMix => Duration::from_millis(200),
            Name::DispatchStorm => Duration::from_millis(10),
            Name::NotebookMemo => Duration::from_micros(250),
        }
    }

    /// How often the completion observer re-polls outstanding tasks
    /// (the bound on its lag).
    pub fn sweep(self) -> Duration {
        match self {
            Name::InferenceMix => Duration::from_micros(500),
            _ => Duration::from_micros(100),
        }
    }

    /// Requests kept outstanding in the throughput phase.
    pub fn outstanding(self) -> usize {
        match self {
            Name::InferenceMix => 8,
            _ => 16,
        }
    }
}

/// A running deployment plus the servable ids the workload targets.
pub struct Deployment {
    pub hub: TestHub,
    /// Target servable ids; requests index into this.
    pub targets: Vec<String>,
}

/// A servable that runs `inner` and then spins for `extra` of the time
/// `inner` took: a synthetic kernel slowdown for the sensitivity check.
struct Slowed {
    inner: Arc<dyn Servable>,
    extra: f64,
}

impl Servable for Slowed {
    fn run(&self, input: &Value) -> Result<Value, String> {
        let started = Instant::now();
        let out = self.inner.run(input);
        let until = started + started.elapsed().mul_f64(1.0 + self.extra);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        out
    }
}

fn storm_config() -> ServingConfig {
    // Armed the way a deployment runs it, but pinned: the floor equals
    // the ceiling, idle parking never triggers, and the admission cap
    // sits far above any inflight count this load reaches. Its hooks
    // cost what they cost; its dynamics cannot move capacity.
    ServingConfig {
        // One sample per second: the store's finest ring tier.
        telemetry_interval: Duration::from_secs(1),
        autoscale: Some(ControlPolicy {
            min_replicas: 2,
            max_replicas: 2,
            warm_pool: 2,
            idle_after: Duration::from_secs(3600),
            ..ControlPolicy::default()
        }),
        autoscale_interval: Duration::from_secs(1),
        admission: Some(AdmissionConfig {
            max_inflight: 4096,
            fair_share_at: 1.0,
            ..AdmissionConfig::default()
        }),
        ..ServingConfig::default()
    }
}

/// Build the hub for `name`, publish what the workload adds, register
/// the pipeline, and complete one request to every servable the
/// workload uses (memo bypassed, so the cache starts empty).
///
/// For the sensitivity check, `slowdown` routes inference-mix's cifar10
/// traffic to a wrapper that spins that share longer (more CPU), and
/// `stall` makes every notebook memo lookup sleep that long (the call
/// blocks; no work is added beyond the sleep's context switches)
/// through the program's fault-injection hook.
pub fn setup(name: Name, slowdown: f64, stall: Duration) -> Deployment {
    let config = match name {
        Name::DispatchStorm => storm_config(),
        _ => ServingConfig::default(),
    };
    let mut builder = TestHub::builder().config(config);
    if name == Name::NotebookMemo && !stall.is_zero() {
        builder = builder.faults(
            FaultPlan::seeded(0)
                .inject(site::MEMO_GET, FaultSpec::new(FaultKind::Slow).delay(stall))
                .build(),
        );
    }
    let hub = builder.build();
    // The sensitivity check publishes the slowed wrapper in every
    // workload; only inference-mix routes traffic to it.
    let slowed = (slowdown > 0.0).then(|| {
        let (inner, _) = hub
            .repo
            .resolve(Some(&hub.token), CIFAR10)
            .expect("cifar10");
        let slowed = Arc::new(Slowed {
            inner,
            extra: slowdown,
        });
        hub.publish_simple("cifar10-slow", ModelType::Keras, slowed)
    });
    let targets: Vec<String> = match name {
        Name::InferenceMix => {
            let cifar = slowed.unwrap_or_else(|| CIFAR10.to_string());
            vec![cifar, INCEPTION.into(), MODEL.into()]
        }
        Name::DispatchStorm => {
            let mut ids = vec![NOOP.to_string(), UTIL.to_string()];
            for i in 0..STORM_COPIES {
                ids.push(hub.publish_simple(
                    &format!("storm-noop-{i:02}"),
                    ModelType::PythonFunction,
                    Arc::new(NoopServable),
                ));
                ids.push(hub.publish_simple(
                    &format!("storm-util-{i:02}"),
                    ModelType::PythonFunction,
                    Arc::new(MatminerUtil),
                ));
            }
            ids
        }
        Name::NotebookMemo => {
            hub.service
                .register_pipeline(
                    &hub.token,
                    Pipeline::new(PIPELINE, vec![UTIL.into(), FEATURIZE.into(), MODEL.into()]),
                )
                .expect("register pipeline");
            vec![CIFAR10.into(), UTIL.into(), FEATURIZE.into(), MODEL.into()]
        }
    };
    let no_memo = RunOptions {
        memoize: Some(false),
        ..RunOptions::default()
    };
    for id in &targets {
        hub.service
            .run_with_options(&hub.token, id, warm_input(id), &no_memo)
            .unwrap_or_else(|e| panic!("first request to {id}: {e}"));
    }
    Deployment { hub, targets }
}

/// A fixed input for first-touch requests and for per-servable costs
/// of servables outside a workload's mix.
pub fn warm_input(id: &str) -> Value {
    let mut rng = Rng::new(0x5EED);
    match id {
        INCEPTION => rng::image(&mut rng, &dlhub_tensor::models::INCEPTION_INPUT),
        CIFAR10 | CIFAR10_SLOW => rng::image(&mut rng, &dlhub_tensor::models::CIFAR10_INPUT),
        MODEL => features("Fe2O3"),
        FEATURIZE => MatminerUtil
            .run(&Value::Str("Fe2O3".into()))
            .expect("util parses Fe2O3"),
        id if id == UTIL || id.contains("storm-util") => Value::Str("Fe2O3".into()),
        _ => Value::Int(0),
    }
}

fn features(formula: &str) -> Value {
    let composition = dlhub_matsci::parse_formula(formula).expect("generated formulas parse");
    let f = dlhub_matsci::featurize(&composition);
    Value::Tensor {
        shape: vec![f.len()],
        data: f.iter().map(|v| *v as f32).collect(),
    }
}

/// One open-loop request.
pub struct Send {
    /// Intended send time, ns after the phase starts.
    pub at_ns: u64,
    /// Index into [`Deployment::targets`].
    pub target: usize,
    pub input: Value,
}

/// An open-loop schedule plus the reference output of every request.
pub struct Schedule {
    pub sends: Vec<Send>,
    pub expected: Vec<Value>,
    pub fingerprint: u64,
}

impl Schedule {
    /// A copy of the schedule's inputs (the second pass of a traced
    /// run replays the same requests).
    pub fn replay(&self) -> Schedule {
        Schedule {
            sends: self
                .sends
                .iter()
                .map(|s| Send {
                    at_ns: s.at_ns,
                    target: s.target,
                    input: s.input.clone(),
                })
                .collect(),
            expected: self.expected.clone(),
            fingerprint: self.fingerprint,
        }
    }
}

/// Mix shares per target for the open-loop workloads. Inference-mix:
/// mostly cifar10, a few inception, some matminer-model. Dispatch-storm:
/// Zipf popularity over the catalog (noop and util interleaved).
fn mix_counts(name: Name, n: usize, targets: usize) -> Vec<usize> {
    let shares: Vec<f64> = match name {
        Name::InferenceMix => vec![0.80, 0.02, 0.18],
        _ => {
            let raw: Vec<f64> = (1..=targets).map(|r| 1.0 / r as f64).collect();
            let total: f64 = raw.iter().sum();
            raw.iter().map(|w| w / total).collect()
        }
    };
    let mut counts: Vec<usize> = shares.iter().map(|s| (s * n as f64) as usize).collect();
    // Hand the rounding remainder to the most popular target, so the
    // mix is exact for every seed and only the order varies.
    counts[0] += n - counts.iter().sum::<usize>();
    counts
}

fn open_input(name: Name, target: usize, seq: usize, rng: &mut Rng) -> Value {
    match (name, target) {
        (Name::InferenceMix, 0) => rng::image(rng, &dlhub_tensor::models::CIFAR10_INPUT),
        (Name::InferenceMix, 1) => rng::image(rng, &dlhub_tensor::models::INCEPTION_INPUT),
        (Name::InferenceMix, _) => features(&rng::formula(rng)),
        // Dispatch storm: even slots are noop copies, odd are util.
        (_, t) if t % 2 == 0 => Value::Int(seq as i64),
        _ => Value::Str(rng::formula(rng)),
    }
}

/// Generate the open-loop schedule for `seconds` of Poisson arrivals
/// at the workload's rate. `salt` separates phases of one run.
pub fn open_schedule(name: Name, seed: u64, salt: u64, seconds: f64, targets: usize) -> Schedule {
    let mut arrivals = Rng::stream(seed, salt);
    let mut at = Vec::new();
    let mut t = 0u64;
    let horizon = (seconds * 1e9) as u64;
    loop {
        t += arrivals.exp_gap_ns(name.rate_per_s());
        if t >= horizon {
            break;
        }
        at.push(t);
    }
    let mut kinds: Vec<usize> = mix_counts(name, at.len(), targets)
        .iter()
        .enumerate()
        .flat_map(|(target, &c)| std::iter::repeat_n(target, c))
        .collect();
    let mut order = Rng::stream(seed, salt ^ 0x0D);
    order.shuffle(&mut kinds);
    let mut inputs = Rng::stream(seed, salt ^ 0x1A);
    let mut fp = Fingerprint::default();
    let sends: Vec<Send> = at
        .into_iter()
        .zip(kinds)
        .enumerate()
        .map(|(seq, (at_ns, target))| {
            let input = open_input(name, target, seq, &mut inputs);
            fp.u64(at_ns);
            fp.u64(target as u64);
            let (h1, h2) = input.content_hash();
            fp.u64(h1);
            fp.u64(h2);
            Send {
                at_ns,
                target,
                input,
            }
        })
        .collect();
    Schedule {
        sends,
        expected: Vec::new(),
        fingerprint: fp.finish(),
    }
}

/// Fill in the reference output of every request by calling the
/// deployed servables directly, spread over `threads` threads.
pub fn compute_references(dep: &Deployment, schedule: &mut Schedule, threads: usize) {
    let servables: Vec<Arc<dyn Servable>> = dep
        .targets
        .iter()
        .map(|id| {
            dep.hub
                .repo
                .resolve(Some(&dep.hub.token), id)
                .expect("target")
                .0
        })
        .collect();
    let sends = &schedule.sends;
    let chunk = sends.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<Vec<Value>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sends
            .chunks(chunk)
            .map(|part| {
                let servables = &servables;
                scope.spawn(move || {
                    part.iter()
                        .map(|s| servables[s.target].run(&s.input).expect("reference run"))
                        .collect::<Vec<Value>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect()
    });
    schedule.expected = parts.into_iter().flatten().collect();
}

/// The notebook's request stream: pipeline runs over a Zipf formula
/// catalog (warmed before timing) with a small share of one-off
/// formulas that miss the memo and write an entry, and cifar10 runs
/// over a small image set.
pub struct Notebook {
    /// The catalog's formulas (by Zipf rank), then every one-off
    /// formula in order of use. Empty in stream-only mode.
    pub formulas: Vec<String>,
    /// Reference pipeline output per formula.
    pub formula_refs: Vec<Value>,
    /// Each pipeline step's input and output for the first catalog
    /// entries (per-layer costs use them).
    pub step_samples: Vec<Sample>,
    pub images: Vec<Value>,
    pub image_refs: Vec<Value>,
    /// Ops: `(true, formula)` for a pipeline run, `(false, image)` for
    /// a cifar10 run.
    pub ops: Vec<(bool, u32)>,
    pub fingerprint: u64,
}

pub const NOTEBOOK_CATALOG: usize = 1024;
pub const NOTEBOOK_ZIPF_S: f64 = 1.1;
pub const NOTEBOOK_IMAGES: usize = 32;
pub const NOTEBOOK_PIPELINE_SHARE: f64 = 0.7;
/// Share of pipeline runs on a formula never seen before. Small enough
/// that memo reads, not the miss path, take most of the client's time,
/// and that p99 sits in the hits' tail rather than on the boundary
/// between hits and misses.
pub const NOTEBOOK_FRESH_SHARE: f64 = 0.0025;

/// Formula number `index`: the first salt whose pipeline chain
/// succeeds and yields a finite prediction.
fn formula_for(seed: u64, index: usize, chain: &dyn Fn(&str) -> Option<Value>) -> (String, Value) {
    for attempt in 0.. {
        let mut rng = Rng::stream(seed, 0xF0_0000_0000 + ((index as u64) << 8) + attempt);
        let f = rng::formula(&mut rng);
        if let Some(v) = chain(&f) {
            return (f, v);
        }
    }
    unreachable!()
}

/// Generate `len` notebook ops. With `dep`, the formulas and the
/// references are built too (chaining the pipeline by hand); without it
/// only the op stream and fingerprint are, which is all a replay check
/// needs: formulas are a pure function of (seed, index).
pub fn notebook(seed: u64, len: usize, dep: Option<&Deployment>) -> Notebook {
    let mut pick = Rng::stream(seed, 0x77);
    let zipf = Zipf::new(NOTEBOOK_CATALOG, NOTEBOOK_ZIPF_S);
    let mut fresh = 0u32;
    let mut fp = Fingerprint::default();
    let ops: Vec<(bool, u32)> = (0..len)
        .map(|_| {
            let op = if pick.unit() >= NOTEBOOK_PIPELINE_SHARE {
                (false, pick.below(NOTEBOOK_IMAGES) as u32)
            } else if pick.unit() < NOTEBOOK_FRESH_SHARE {
                fresh += 1;
                (true, NOTEBOOK_CATALOG as u32 + fresh - 1)
            } else {
                (true, zipf.sample(&mut pick) as u32)
            };
            fp.u64(((op.0 as u64) << 32) | op.1 as u64);
            op
        })
        .collect();
    let mut img_rng = Rng::stream(seed, 0x1B);
    let images: Vec<Value> = (0..NOTEBOOK_IMAGES)
        .map(|_| rng::image(&mut img_rng, &dlhub_tensor::models::CIFAR10_INPUT))
        .collect();
    for img in &images {
        let (h1, h2) = img.content_hash();
        fp.u64(h1);
        fp.u64(h2);
    }
    let mut book = Notebook {
        formulas: Vec::new(),
        formula_refs: Vec::new(),
        step_samples: Vec::new(),
        images,
        image_refs: Vec::new(),
        ops,
        fingerprint: fp.finish(),
    };
    let Some(dep) = dep else {
        return book;
    };
    let resolve = |id: &str| {
        dep.hub
            .repo
            .resolve(Some(&dep.hub.token), id)
            .expect("servable")
            .0
    };
    let (util, featurize, model) = (resolve(UTIL), resolve(FEATURIZE), resolve(MODEL));
    let chain = |f: &str| -> Option<Value> {
        let a = util.run(&Value::Str(f.into())).ok()?;
        let b = featurize.run(&a).ok()?;
        let c = model.run(&b).ok()?;
        c.as_f64().filter(|p| p.is_finite())?;
        Some(c)
    };
    for index in 0..NOTEBOOK_CATALOG + fresh as usize {
        let (f, reference) = formula_for(seed, index, &chain);
        if book.step_samples.len() < 192 {
            let a = util.run(&Value::Str(f.clone())).expect("util");
            let b = featurize.run(&a).expect("featurize");
            let sample = |id: &str, input: &Value, output: &Value| Sample {
                id: id.into(),
                input: input.clone(),
                output: output.clone(),
            };
            book.step_samples
                .push(sample(UTIL, &Value::Str(f.clone()), &a));
            book.step_samples.push(sample(FEATURIZE, &a, &b));
            book.step_samples.push(sample(MODEL, &b, &reference));
        }
        book.formulas.push(f);
        book.formula_refs.push(reference);
    }
    let cifar = resolve(CIFAR10);
    book.image_refs = book
        .images
        .iter()
        .map(|i| cifar.run(i).expect("cifar10 reference"))
        .collect();
    book
}
