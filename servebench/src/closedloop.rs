//! The closed-loop client: one notebook user calling the SDK
//! synchronously, with no think time.

use crate::procfs;
use crate::workload::{Deployment, Notebook, CIFAR10, NOTEBOOK_CATALOG, PIPELINE};
use dlhub_core::Value;
use std::time::{Duration, Instant};

/// What one closed-loop phase observed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub correct: usize,
    pub within_limit: usize,
    pub failed: usize,
    pub wrong: usize,
    /// Call → return, ns, per correct completion.
    pub latency_ns: Vec<u64>,
    /// Wall time of the timed loop.
    pub elapsed_s: f64,
    pub program_cpu_ns: u64,
    pub threads: (procfs::Snapshot, procfs::Snapshot),
    /// Peak RSS and peak heap in use, read as the timed loop ends,
    /// before the compact sample buffer is widened into `latency_ns`
    /// (heap: 0 unless the caller passed a sampler).
    pub rss_peak_mb: f64,
    /// Median per-second heap peak and whole-span heap peak.
    pub heap_peak_mb: (f64, f64),
    /// Traced runs only: per-request `request`/`invocation`/`inference`
    /// ns from `RunResult.timings` (cifar10 calls) and per-step request
    /// ns from `StepTiming` (pipeline calls).
    pub request_ns: Vec<u64>,
    pub invocation_ns: Vec<u64>,
    pub inference_ns: Vec<u64>,
    pub step_ns: Vec<u64>,
}

/// Fill the memo the way a notebook user would have: one pipeline
/// run per catalog formula and one cifar10 run per image, each checked.
/// Returns (calls, failed or wrong).
pub fn warm_memo(dep: &Deployment, book: &Notebook) -> (usize, usize) {
    let service = &dep.hub.service;
    let token = &dep.hub.token;
    let mut bad = 0;
    for (f, expected) in book
        .formulas
        .iter()
        .zip(&book.formula_refs)
        .take(NOTEBOOK_CATALOG)
    {
        match service.run_pipeline(token, PIPELINE, Value::Str(f.clone())) {
            Ok((v, _)) if v == *expected => {}
            _ => bad += 1,
        }
    }
    for (image, expected) in book.images.iter().zip(&book.image_refs) {
        match service.run(token, CIFAR10, image.clone()) {
            Ok(r) if r.value == *expected => {}
            _ => bad += 1,
        }
    }
    (NOTEBOOK_CATALOG + book.images.len(), bad)
}

/// Run `book.ops` from `*cursor` for `seconds` (wrapping at the end),
/// advancing the cursor, and stop `heap` when the timed loop ends. The
/// client runs on its own thread so its CPU is the program's: every
/// call executes the SDK in-process.
pub fn run(
    dep: &Deployment,
    book: &Notebook,
    cursor: &mut usize,
    seconds: f64,
    limit: Duration,
    traced: bool,
    heap: Option<procfs::HeapPeak>,
) -> Outcome {
    let horizon = Duration::from_secs_f64(seconds);
    let start_cursor = *cursor;
    let (out, end_cursor) = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("notebook-client".into())
            .spawn_scoped(scope, || {
                let before = procfs::snapshot();
                let mut out = Outcome::default();
                let service = &dep.hub.service;
                let token = &dep.hub.token;
                let started = Instant::now();
                // The client records hundreds of thousands of samples, so
                // it keeps them compact (u32 ns) in a buffer reserved up
                // front: it adds 4 bytes a call to peak RSS and never
                // reallocates mid-phase.
                let mut latency_ns: Vec<u32> = Vec::with_capacity(book.ops.len());
                let mut i = start_cursor;
                while started.elapsed() < horizon {
                    let (is_pipeline, idx) = book.ops[i % book.ops.len()];
                    i += 1;
                    let t0 = Instant::now();
                    let (result, expected) = if is_pipeline {
                        let formula = &book.formulas[idx as usize];
                        let r = service.run_pipeline(token, PIPELINE, Value::Str(formula.clone()));
                        let latency = t0.elapsed();
                        if traced {
                            if let Ok((_, steps)) = &r {
                                out.step_ns.extend(
                                    steps.iter().map(|s| s.timings.request.as_nanos() as u64),
                                );
                            }
                        }
                        (
                            r.map(|(v, _)| (v, latency)),
                            &book.formula_refs[idx as usize],
                        )
                    } else {
                        let image = book.images[idx as usize].clone();
                        let r = service.run(token, CIFAR10, image);
                        let latency = t0.elapsed();
                        if traced {
                            if let Ok(r) = &r {
                                out.request_ns.push(r.timings.request.as_nanos() as u64);
                                out.invocation_ns
                                    .push(r.timings.invocation.as_nanos() as u64);
                                if !r.timings.cache_hit {
                                    out.inference_ns.push(r.timings.inference.as_nanos() as u64);
                                }
                            }
                        }
                        (
                            r.map(|r| (r.value, latency)),
                            &book.image_refs[idx as usize],
                        )
                    };
                    out.attempted += 1;
                    match result {
                        Ok((v, latency)) if v == *expected => {
                            out.correct += 1;
                            latency_ns.push(latency.as_nanos().min(u32::MAX as u128) as u32);
                            if latency <= limit {
                                out.within_limit += 1;
                            }
                        }
                        Ok(_) => out.wrong += 1,
                        Err(_) => out.failed += 1,
                    }
                }
                out.elapsed_s = started.elapsed().as_secs_f64();
                out.rss_peak_mb = procfs::peak_rss_mb();
                out.heap_peak_mb = heap.map_or((0.0, 0.0), procfs::HeapPeak::stop);
                out.latency_ns = latency_ns.iter().map(|&l| l as u64).collect();
                let after = procfs::snapshot();
                out.program_cpu_ns = procfs::program_cpu_ns(&before, &after);
                out.threads = (before, after);
                (out, i)
            })
            .expect("spawn notebook client")
            .join()
            .expect("notebook client")
    });
    *cursor = end_cursor;
    out
}
