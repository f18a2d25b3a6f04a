//! Servable execution profiles.
//!
//! The paper's future work (§V-B3): "we intend to use such servable
//! profiles to design adaptive batching algorithms that intelligently
//! distribute serving requests to reduce latency." A
//! [`ServableProfile`] is the rolling per-servable record of observed
//! inference and dispatch costs that the adaptive batcher
//! ([`crate::batch::BatchSizing::Adaptive`]) and the replica autoscaler
//! ([`crate::autoscale`]) consume.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Exponentially weighted moving average with a fixed smoothing
/// factor; cheap enough to update on every request.
#[derive(Debug, Clone, Copy)]
struct Ewma {
    value: f64,
    initialized: bool,
}

impl Ewma {
    const ALPHA: f64 = 0.2;

    fn new() -> Self {
        Ewma {
            value: 0.0,
            initialized: false,
        }
    }

    fn update(&mut self, sample: f64) {
        if self.initialized {
            self.value += Self::ALPHA * (sample - self.value);
        } else {
            self.value = sample;
            self.initialized = true;
        }
    }
}

/// Rolling profile of one servable's observed costs.
#[derive(Debug, Clone)]
pub struct ServableProfile {
    /// Smoothed single-item inference time.
    pub inference: Duration,
    /// Smoothed per-task overhead (invocation − inference): dispatch,
    /// transfer, **and queueing** under load.
    pub overhead: Duration,
    /// Smallest overhead ever observed: the uncontended dispatch
    /// floor. Under concurrency the mean overhead is inflated by
    /// queue wait — which is *demand*, not cost — so capacity
    /// estimates must use the floor.
    pub overhead_floor: Duration,
    /// Total observations folded into the profile.
    pub samples: u64,
}

impl ServableProfile {
    /// The batch size at which per-item overhead drops below
    /// `target_overhead_fraction` of per-item total cost:
    /// overhead / (batch · inference + overhead) ≤ f. Saturates at
    /// `max` and never returns 0.
    pub fn suggested_batch(&self, target_overhead_fraction: f64, max: usize) -> usize {
        let overhead = self.overhead.as_secs_f64();
        let inference = self.inference.as_secs_f64();
        if overhead <= 0.0 {
            return 1;
        }
        if inference <= 0.0 {
            // Pure-overhead servables (noop-like): batch as much as
            // allowed, every extra item is free.
            return max.max(1);
        }
        let f = target_overhead_fraction.clamp(1e-3, 0.999);
        // Solve overhead / (n·inference + overhead) = f for n.
        let n = overhead * (1.0 - f) / (f * inference);
        (n.ceil() as usize).clamp(1, max.max(1))
    }
}

#[derive(Default)]
struct Entry {
    inference: Option<Ewma>,
    overhead: Option<Ewma>,
    overhead_floor: Option<f64>,
    samples: u64,
}

/// Thread-safe registry of per-servable profiles.
#[derive(Clone, Default)]
pub struct ProfileRegistry {
    entries: Arc<RwLock<HashMap<String, Entry>>>,
}

impl ProfileRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        ProfileRegistry::default()
    }

    /// Fold one request's timings into the servable's profile.
    /// `items` is the batch size the invocation carried.
    pub fn record(
        &self,
        servable: &str,
        inference_total: Duration,
        invocation: Duration,
        items: usize,
    ) {
        let items = items.max(1) as f64;
        let per_item_inference = inference_total.as_secs_f64() / items;
        let overhead = (invocation.saturating_sub(inference_total)).as_secs_f64();
        let mut entries = self.entries.write();
        let entry = entries.entry(servable.to_string()).or_default();
        entry
            .inference
            .get_or_insert_with(Ewma::new)
            .update(per_item_inference);
        entry
            .overhead
            .get_or_insert_with(Ewma::new)
            .update(overhead);
        entry.overhead_floor = Some(match entry.overhead_floor {
            Some(floor) => floor.min(overhead),
            None => overhead,
        });
        entry.samples += 1;
    }

    /// Current profile, if the servable has been observed.
    pub fn get(&self, servable: &str) -> Option<ServableProfile> {
        let entries = self.entries.read();
        let entry = entries.get(servable)?;
        Some(ServableProfile {
            inference: Duration::from_secs_f64(
                entry.inference.map(|e| e.value).unwrap_or(0.0).max(0.0),
            ),
            overhead: Duration::from_secs_f64(
                entry.overhead.map(|e| e.value).unwrap_or(0.0).max(0.0),
            ),
            overhead_floor: Duration::from_secs_f64(entry.overhead_floor.unwrap_or(0.0).max(0.0)),
            samples: entry.samples,
        })
    }

    /// Names of profiled servables.
    pub fn servables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(inference_ms: f64, overhead_ms: f64) -> ServableProfile {
        ServableProfile {
            inference: Duration::from_secs_f64(inference_ms / 1e3),
            overhead: Duration::from_secs_f64(overhead_ms / 1e3),
            overhead_floor: Duration::from_secs_f64(overhead_ms / 1e3),
            samples: 10,
        }
    }

    #[test]
    fn record_and_get() {
        let reg = ProfileRegistry::new();
        assert!(reg.get("m").is_none());
        reg.record("m", Duration::from_millis(40), Duration::from_millis(45), 1);
        let p = reg.get("m").unwrap();
        assert_eq!(p.samples, 1);
        assert!((p.inference.as_secs_f64() - 0.040).abs() < 1e-9);
        assert!((p.overhead.as_secs_f64() - 0.005).abs() < 1e-9);
    }

    #[test]
    fn ewma_converges_toward_new_regime() {
        let reg = ProfileRegistry::new();
        for _ in 0..50 {
            reg.record("m", Duration::from_millis(10), Duration::from_millis(12), 1);
        }
        let before = reg.get("m").unwrap().inference;
        for _ in 0..50 {
            reg.record("m", Duration::from_millis(30), Duration::from_millis(32), 1);
        }
        let after = reg.get("m").unwrap().inference;
        assert!(after > before);
        assert!((after.as_secs_f64() - 0.030).abs() < 0.005);
    }

    #[test]
    fn batch_sizes_fold_into_per_item_costs() {
        let reg = ProfileRegistry::new();
        // 10 items, 100ms total inference => 10ms/item.
        reg.record(
            "m",
            Duration::from_millis(100),
            Duration::from_millis(104),
            10,
        );
        let p = reg.get("m").unwrap();
        assert!((p.inference.as_secs_f64() - 0.010).abs() < 1e-9);
        assert!((p.overhead.as_secs_f64() - 0.004).abs() < 1e-9);
    }

    #[test]
    fn suggested_batch_grows_with_overhead_ratio() {
        // Cheap compute, big overhead: wants big batches.
        let cheap = profile(0.01, 3.0);
        // Expensive compute: batch of 1-2 suffices.
        let heavy = profile(40.0, 3.0);
        let b_cheap = cheap.suggested_batch(0.1, 1000);
        let b_heavy = heavy.suggested_batch(0.1, 1000);
        assert!(b_cheap > 100 * b_heavy.max(1), "{b_cheap} vs {b_heavy}");
        assert!(b_heavy >= 1);
    }

    #[test]
    fn suggested_batch_edge_cases() {
        assert_eq!(profile(0.0, 3.0).suggested_batch(0.1, 64), 64);
        assert_eq!(profile(5.0, 0.0).suggested_batch(0.1, 64), 1);
        // Clamped to max.
        assert_eq!(profile(0.001, 100.0).suggested_batch(0.1, 16), 16);
    }

    #[test]
    fn queueing_inflates_mean_overhead_but_not_the_floor() {
        let reg = ProfileRegistry::new();
        // One uncontended request…
        reg.record("m", Duration::from_millis(10), Duration::from_millis(11), 1);
        // …then heavy contention: 80ms of queue wait per request.
        for _ in 0..20 {
            reg.record("m", Duration::from_millis(10), Duration::from_millis(90), 1);
        }
        let p = reg.get("m").unwrap();
        assert!(
            p.overhead > Duration::from_millis(40),
            "mean {:?}",
            p.overhead
        );
        assert_eq!(p.overhead_floor, Duration::from_millis(1));
    }
}
