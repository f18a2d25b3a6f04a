//! Isolated layer costs: each layer's public function called directly,
//! with the workload's own generated inputs, on an otherwise idle
//! process.

use crate::stats::median_f64;
use crate::workload::{self, Deployment};
use bytes::Bytes;
use dlhub_auth::Scope;
use dlhub_core::admission::{AdmissionConfig, AdmissionController};
use dlhub_core::executor::{Executor, ParslExecutor};
use dlhub_core::memo::{MemoCache, MemoKey};
use dlhub_core::repository::{RESOURCE_SERVER, SERVE_SCOPE};
use dlhub_core::task::{next_task_id, TaskRequest, TaskResponse};
use dlhub_core::{Servable, Value};
use dlhub_queue::{Broker, BrokerConfig, RpcClient, RpcServer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One request as the layers see it: target id, input, and output.
#[derive(Clone)]
pub struct Sample {
    pub id: String,
    pub input: Value,
    pub output: Value,
}

/// Per-op costs of each layer, in ns unless the name says otherwise.
#[derive(Debug, Default)]
pub struct Costs {
    pub authorize_ns: f64,
    pub resolve_ns: f64,
    pub admit_ns: f64,
    /// `MemoKey::new` per target id, and its sample-weighted mean.
    pub key_ns_by_id: BTreeMap<String, f64>,
    pub key_ns: f64,
    pub get_ns: f64,
    pub put_ns: f64,
    /// Request encode plus response encode (both on every path).
    pub encode_ns: f64,
    /// Request decode plus response decode.
    pub decode_ns: f64,
    /// Request plus response bytes.
    pub bytes: f64,
    pub rpc_roundtrip_us: f64,
    pub handoff_us: f64,
    /// One span (start, one attribute, finish) on an enabled tracer.
    pub span_ns: f64,
    /// One request's per-servable series updates: lookup, counter,
    /// two histogram records (one with an exemplar).
    pub series_ns: f64,
    /// `Servable::run` per target id and for the six evaluation
    /// servables.
    pub run_ms_by_id: BTreeMap<String, f64>,
}

/// Median over `rounds` of the mean ns per op of `per_round` calls.
fn per_op_ns(rounds: usize, per_round: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut i = 0usize;
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let started = Instant::now();
        for _ in 0..per_round {
            f(i);
            i += 1;
        }
        samples.push(started.elapsed().as_nanos() as f64 / per_round as f64);
    }
    median_f64(&samples)
}

/// Median wall time of single calls, repeated for at least `budget`
/// (and at least 3 times, at most 2000).
fn per_call_ns(budget: Duration, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    while (samples.len() < 3 || started.elapsed() < budget) && samples.len() < 2000 {
        let t = Instant::now();
        f(i);
        samples.push(t.elapsed().as_nanos() as f64);
        i += 1;
    }
    median_f64(&samples)
}

fn rpc_roundtrip_us(requests: &[Bytes], responses: &[Bytes]) -> f64 {
    let broker = Broker::new(BrokerConfig::default());
    let server = RpcServer::bind(&broker, "bench.layers.rpc");
    let client = RpcClient::connect(&broker, "bench.layers.rpc");
    let stop = Arc::new(AtomicBool::new(false));
    let echo = {
        let stop = Arc::clone(&stop);
        let responses = responses.to_vec();
        std::thread::Builder::new()
            .name("layers-rpc-echo".into())
            .spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let _ = server.serve_one(Duration::from_millis(5), |_| {
                        i += 1;
                        responses[(i - 1) % responses.len()].clone()
                    });
                }
            })
            .expect("spawn rpc echo")
    };
    let n = requests.len();
    // Warm the pump and the reply path first.
    for r in requests.iter().take(20) {
        client
            .call_wait(r.clone(), Duration::from_secs(5))
            .expect("rpc warm");
    }
    let us = per_call_ns(Duration::from_millis(300), |i| {
        client
            .call_wait(requests[i % n].clone(), Duration::from_secs(5))
            .expect("rpc round trip");
    }) / 1e3;
    stop.store(true, Ordering::Relaxed);
    echo.join().expect("rpc echo");
    us
}

/// `ParslExecutor::execute` wall time minus the servable's own
/// reported run time, on a private executor.
fn handoff_us(dep: &Deployment, samples: &[Sample]) -> f64 {
    let executor = ParslExecutor::new(dlhub_container::Cluster::petrelkube(), 2);
    let servables: BTreeMap<&str, Arc<dyn Servable>> = samples
        .iter()
        .map(|s| {
            let servable = dep
                .hub
                .repo
                .resolve(Some(&dep.hub.token), &s.id)
                .expect("resolve")
                .0;
            (s.id.as_str(), servable)
        })
        .collect();
    // First dispatch per servable spawns its pool (a cold start).
    for (id, servable) in &servables {
        let warm = samples.iter().find(|s| s.id == *id).expect("sample");
        executor
            .execute(id, servable, std::slice::from_ref(&warm.input))
            .expect("handoff warm");
    }
    let mut overheads = Vec::new();
    let started = Instant::now();
    for s in samples.iter().cycle() {
        if overheads.len() >= 2000
            || (overheads.len() >= 20 && started.elapsed() > Duration::from_millis(400))
        {
            break;
        }
        let t = Instant::now();
        let (_, times) = executor
            .execute(
                &s.id,
                &servables[s.id.as_str()],
                std::slice::from_ref(&s.input),
            )
            .expect("handoff execute");
        let wall = t.elapsed();
        overheads.push(wall.saturating_sub(times[0]).as_nanos() as f64 / 1e3);
    }
    median_f64(&overheads)
}

pub fn measure(dep: &Deployment, samples: &[Sample]) -> Costs {
    let hub = &dep.hub;
    let scope = Scope::new(RESOURCE_SERVER, SERVE_SCOPE);
    let mut c = Costs {
        authorize_ns: per_op_ns(15, 2000, |_| {
            hub.auth.authorize(&hub.token, &scope).expect("authorize");
        }),
        ..Costs::default()
    };
    let ids: Vec<&str> = samples.iter().map(|s| s.id.as_str()).collect();
    c.resolve_ns = per_op_ns(15, 2000, |i| {
        hub.repo
            .resolve(Some(&hub.token), ids[i % ids.len()])
            .expect("resolve");
    });
    let tenant = hub
        .auth
        .authorize(&hub.token, &scope)
        .expect("authorize")
        .tenant();
    let admission = AdmissionController::new(AdmissionConfig {
        max_inflight: 4096,
        fair_share_at: 1.0,
        ..AdmissionConfig::default()
    });
    c.admit_ns = per_op_ns(15, 2000, |_| {
        drop(
            admission
                .admit(tenant, false, dlhub_obs::now_ns())
                .expect("admit"),
        );
    });
    // Observability hooks on a private handle, tracer on (its default).
    let obs = dlhub_obs::Obs::new();
    c.span_ns = per_op_ns(15, 2000, |_| {
        let mut span = obs.tracer.start_root("request");
        span.attr("servable", ids[0]);
        obs.tracer.finish(span);
    });
    c.series_ns = per_op_ns(15, 2000, |i| {
        let series = obs.metrics.series(ids[i % ids.len()]);
        series.requests.inc();
        series
            .request_latency
            .record_duration_with_exemplar(Duration::from_micros(150), i as u64);
        series
            .invocation_latency
            .record_duration(Duration::from_micros(100));
    });

    // Memo layer: key hashing scales with input size, so it is costed
    // per target; get/put run against a private cache.
    let mut weighted = 0.0;
    for id in samples
        .iter()
        .map(|s| s.id.clone())
        .collect::<std::collections::BTreeSet<_>>()
    {
        let inputs: Vec<&Value> = samples
            .iter()
            .filter(|s| s.id == id)
            .map(|s| &s.input)
            .collect();
        let ns = per_op_ns(9, 200, |i| {
            std::hint::black_box(MemoKey::new(&id, inputs[i % inputs.len()]));
        });
        weighted += ns * inputs.len() as f64;
        c.key_ns_by_id.insert(id, ns);
    }
    c.key_ns = weighted / samples.len() as f64;
    let keys: Vec<MemoKey> = samples
        .iter()
        .map(|s| MemoKey::new(&s.id, &s.input))
        .collect();
    // Each round puts into a fresh cache (a put of a present key would
    // be an update); gets then read the last one filled.
    let mut puts = Vec::new();
    let mut cache = MemoCache::new(0);
    for _ in 0..9 {
        cache = MemoCache::new(256 * 1024 * 1024);
        let entries: Vec<(MemoKey, Value)> = keys
            .iter()
            .cloned()
            .zip(samples.iter().map(|s| s.output.clone()))
            .collect();
        let started = Instant::now();
        for (k, v) in entries {
            cache.put(k, v);
        }
        puts.push(started.elapsed().as_nanos() as f64 / keys.len() as f64);
    }
    c.put_ns = median_f64(&puts);
    c.get_ns = per_op_ns(15, 2000, |i| {
        std::hint::black_box(cache.get(&keys[i % keys.len()]));
    });

    // Task wire codec: the request carries the input, the response the
    // output; each crosses the wire once per request.
    let requests: Vec<TaskRequest> = samples
        .iter()
        .map(|s| TaskRequest {
            task_id: next_task_id(),
            servable: s.id.clone(),
            inputs: vec![s.input.clone()],
            trace: None,
        })
        .collect();
    let responses: Vec<TaskResponse> = samples
        .iter()
        .zip(&requests)
        .map(|(s, r)| TaskResponse {
            task_id: r.task_id.clone(),
            outcome: Ok(vec![s.output.clone()]),
            inference_nanos: vec![1_000],
            invocation_nanos: 2_000,
        })
        .collect();
    let req_bytes: Vec<Bytes> = requests.iter().map(|r| r.to_bytes()).collect();
    let resp_bytes: Vec<Bytes> = responses.iter().map(|r| r.to_bytes()).collect();
    let n = samples.len();
    c.encode_ns = per_op_ns(9, 200, |i| {
        std::hint::black_box(requests[i % n].to_bytes());
        std::hint::black_box(responses[i % n].to_bytes());
    });
    c.decode_ns = per_op_ns(9, 200, |i| {
        std::hint::black_box(TaskRequest::from_bytes(&req_bytes[i % n]).expect("decode"));
        std::hint::black_box(TaskResponse::from_bytes(&resp_bytes[i % n]).expect("decode"));
    });
    c.bytes = req_bytes
        .iter()
        .chain(&resp_bytes)
        .map(|b| b.len() as f64)
        .sum::<f64>()
        / n as f64;
    c.rpc_roundtrip_us = rpc_roundtrip_us(&req_bytes, &resp_bytes);
    c.handoff_us = handoff_us(dep, samples);

    // Servable::run for every target in the mix and every evaluation
    // servable (with a fixed input when the mix does not carry it).
    let mut ids: Vec<String> = workload::EVAL.iter().map(|s| s.to_string()).collect();
    ids.extend(dep.targets.iter().cloned());
    for id in ids {
        if c.run_ms_by_id.contains_key(&id) {
            continue;
        }
        let servable = hub.repo.resolve(Some(&hub.token), &id).expect("resolve").0;
        let mut inputs: Vec<&Value> = samples
            .iter()
            .filter(|s| s.id == id)
            .map(|s| &s.input)
            .collect();
        let fixed = workload::warm_input(&id);
        if inputs.is_empty() {
            inputs.push(&fixed);
        }
        let ms = per_call_ns(Duration::from_millis(300), |i| {
            std::hint::black_box(
                servable
                    .run(inputs[i % inputs.len()])
                    .expect("servable run"),
            );
        }) / 1e6;
        c.run_ms_by_id.insert(id, ms);
    }
    c
}
