//! Replica autoscaling: the closed control loop.
//!
//! The paper leaves replica counts "configurable in the Management
//! Service" and names "automated tuning of servable execution" as
//! ongoing work (§VII). [`Reconciler`] closes that loop: it reads
//! windowed [`ScalingSignals`] and the live [`ProfileRegistry`], and
//! sizes each servable's Parsl pool to its demand under hysteresis and
//! cooldowns.

use crate::executor::ParslExecutor;
use crate::profile::ProfileRegistry;
use dlhub_obs::{ControlSignals, Counter, GaugeWindow, WindowHistogram};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Read-only windowed inputs a scaling control loop consumes. Every
/// accessor returns `None` when the underlying signal has no history
/// yet — callers must treat "no data" as "do not act", never as zero.
///
/// The trait lets the [`Reconciler`] be tested against scripted
/// signal fixtures; production wires [`TelemetrySignals`] over the
/// telemetry store's [`ControlSignals`] view.
pub trait ScalingSignals {
    /// Requests per second answered for `servable` over `window`.
    fn arrival_rate(&self, servable: &str, window: Duration) -> Option<f64>;

    /// Slope of the arrival rate in req/s per second — positive means
    /// traffic is ramping toward the pool.
    fn arrival_trend(&self, servable: &str, window: Duration) -> Option<f64>;

    /// p99 broker queue wait over `window`, in nanoseconds.
    fn queue_wait_p99(&self, window: Duration) -> Option<u64>;

    /// Fast-window SLO burn rate for `servable` (mean over `window`);
    /// above 1.0 the error budget is being consumed too fast.
    fn burn_rate(&self, servable: &str, window: Duration) -> Option<f64>;

    /// Mean async worker-pool occupancy over `window`.
    fn pool_occupancy(&self, window: Duration) -> Option<f64>;
}

/// [`ScalingSignals`] over the telemetry store, via its
/// [`ControlSignals`] query view. Obtain one from
/// [`ManagementService::control_signals`] and wrap it:
/// `TelemetrySignals::new(service.control_signals()?)`.
///
/// [`ManagementService::control_signals`]: crate::serving::ManagementService::control_signals
#[derive(Clone)]
pub struct TelemetrySignals {
    signals: ControlSignals,
}

impl TelemetrySignals {
    /// Wrap the telemetry query view.
    pub fn new(signals: ControlSignals) -> Self {
        TelemetrySignals { signals }
    }

    /// The underlying view, for signals the trait does not name.
    pub fn inner(&self) -> &ControlSignals {
        &self.signals
    }
}

impl ScalingSignals for TelemetrySignals {
    fn arrival_rate(&self, servable: &str, window: Duration) -> Option<f64> {
        self.signals.arrival_rate(servable, window)
    }

    fn arrival_trend(&self, servable: &str, window: Duration) -> Option<f64> {
        self.signals.arrival_trend(servable, window)
    }

    fn queue_wait_p99(&self, window: Duration) -> Option<u64> {
        self.signals
            .queue_wait(window)
            .and_then(|w: WindowHistogram| w.quantile(0.99))
    }

    fn burn_rate(&self, servable: &str, window: Duration) -> Option<f64> {
        self.signals
            .burn_rate(servable, window)
            .map(|w: GaugeWindow| w.avg)
    }

    fn pool_occupancy(&self, window: Duration) -> Option<f64> {
        self.signals.pool_occupancy(window).map(|w| w.avg)
    }
}

/// Hysteresis and actuation policy for the closed control loop
/// ([`Reconciler`]): how many replicas demand calls for, and when it
/// is safe to act on live signals.
#[derive(Debug, Clone)]
pub struct ControlPolicy {
    /// Lower bound on replicas while a servable has traffic.
    pub min_replicas: usize,
    /// Upper bound on replicas per servable (cluster budget).
    pub max_replicas: usize,
    /// Observations required before trusting a profile.
    pub min_samples: u64,
    /// Utilization the loop sizes pools toward (`desired =
    /// ceil(demand / target_utilization)`), leaving headroom for
    /// bursts.
    pub target_utilization: f64,
    /// Upper hysteresis bound: act only when utilization of *healthy*
    /// replicas exceeds this.
    pub scale_up_utilization: f64,
    /// Lower hysteresis bound: shrink only when utilization falls
    /// below this. The gap between the bounds is the no-action band
    /// that prevents flapping.
    pub scale_down_utilization: f64,
    /// Minimum time between two resizes of the same servable. A wake
    /// from zero is exempt — cold traffic must not wait out a window.
    pub cooldown: Duration,
    /// Zero arrivals for this long parks the pool to `warm_pool`.
    pub idle_after: Duration,
    /// Replica floor an *idle* pool is parked at. Zero enables
    /// scale-to-zero; one keeps a warm replica to absorb the cold
    /// start of the first returning request.
    pub warm_pool: usize,
    /// Lookback window for every signal query.
    pub signal_window: Duration,
}

impl Default for ControlPolicy {
    fn default() -> Self {
        ControlPolicy {
            min_replicas: 1,
            max_replicas: 16,
            min_samples: 5,
            target_utilization: 0.6,
            scale_up_utilization: 0.85,
            scale_down_utilization: 0.3,
            cooldown: Duration::from_secs(30),
            idle_after: Duration::from_secs(120),
            warm_pool: 0,
            signal_window: Duration::from_secs(30),
        }
    }
}

/// Why the reconciler resized a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// Healthy-replica utilization exceeded the upper hysteresis
    /// bound (or the SLO burn rate breached 1.0).
    ScaleUp,
    /// Utilization fell below the lower hysteresis bound.
    ScaleDown,
    /// No arrivals for `idle_after`: parked to the warm-pool floor.
    IdlePark,
    /// Traffic returned to a pool parked at zero.
    Wake,
}

impl fmt::Display for DecisionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DecisionReason::ScaleUp => "scale_up",
            DecisionReason::ScaleDown => "scale_down",
            DecisionReason::IdlePark => "idle_park",
            DecisionReason::Wake => "wake",
        })
    }
}

/// One applied control-loop decision. [`fmt::Display`] renders the
/// canonical log line the determinism tests compare byte-for-byte:
/// every field is a pure function of the seed and the config.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDecision {
    /// Virtual (or wall) time of the reconcile pass, in nanoseconds.
    pub at_ns: u64,
    /// Servable whose pool was resized.
    pub servable: String,
    /// Replicas before.
    pub from: usize,
    /// Replicas after.
    pub to: usize,
    /// What drove the change.
    pub reason: DecisionReason,
}

impl fmt::Display for ControlDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={:.3}s {} {}->{} {}",
            self.at_ns as f64 / 1e9,
            self.servable,
            self.from,
            self.to,
            self.reason
        )
    }
}

#[derive(Default)]
struct ServableControl {
    /// Last resize, for the cooldown window.
    last_change_ns: Option<u64>,
    /// First pass that observed zero arrivals (cleared on traffic).
    idle_since_ns: Option<u64>,
}

struct ReconcilerState {
    servables: HashMap<String, ServableControl>,
    log: Vec<ControlDecision>,
}

/// The actuation half of the control loop: reads windowed
/// [`ScalingSignals`], sizes each profiled servable's pool by Little's
/// law (`demand = arrival_rate × inference_time`), and applies changes
/// through [`ParslExecutor::scale`] under hysteresis and per-servable
/// cooldowns. Driven either by the Management Service's background
/// thread (wall clock) or by a sim harness calling
/// [`reconcile_at`](Reconciler::reconcile_at) on a virtual clock —
/// the decision path never reads a real clock, which is what makes
/// seeded runs reproduce byte-identical decision logs.
pub struct Reconciler {
    profiles: ProfileRegistry,
    executor: Arc<ParslExecutor>,
    policy: ControlPolicy,
    state: Mutex<ReconcilerState>,
    decisions_counter: Option<Arc<Counter>>,
}

impl Reconciler {
    /// Wire the reconciler to its profile source and executor.
    pub fn new(
        profiles: ProfileRegistry,
        executor: Arc<ParslExecutor>,
        policy: ControlPolicy,
    ) -> Self {
        Reconciler {
            profiles,
            executor,
            policy,
            state: Mutex::new(ReconcilerState {
                servables: HashMap::new(),
                log: Vec::new(),
            }),
            decisions_counter: None,
        }
    }

    /// Count every applied decision on `counter`
    /// (`autoscale_decisions_total` in the serving wiring).
    pub fn with_counter(mut self, counter: Arc<Counter>) -> Self {
        self.decisions_counter = Some(counter);
        self
    }

    /// The policy this reconciler acts under.
    pub fn policy(&self) -> &ControlPolicy {
        &self.policy
    }

    /// One reconcile pass at time `now_ns`, reading `signals` for
    /// every profiled servable. Returns the decisions applied this
    /// pass; every decision is also appended to the cumulative
    /// [`log`](Reconciler::decisions).
    pub fn reconcile_at(&self, now_ns: u64, signals: &dyn ScalingSignals) -> Vec<ControlDecision> {
        let cooldown_ns = self.policy.cooldown.as_nanos().min(u64::MAX as u128) as u64;
        let idle_ns = self.policy.idle_after.as_nanos().min(u64::MAX as u128) as u64;
        let mut applied = Vec::new();
        let mut state = self.state.lock();
        for servable in self.profiles.servables() {
            let Some(profile) = self.profiles.get(&servable) else {
                continue;
            };
            if profile.samples < self.policy.min_samples {
                continue;
            }
            // No signal history means "do not act", never "zero load".
            let Some(rate) = signals.arrival_rate(&servable, self.policy.signal_window) else {
                continue;
            };
            let current = self.executor.replicas(&servable);
            let quarantined = self.executor.quarantined(&servable);
            let entry = state.servables.entry(servable.clone()).or_default();
            let cooled = entry
                .last_change_ns
                .is_none_or(|t| now_ns.saturating_sub(t) >= cooldown_ns);

            let decision: Option<(usize, DecisionReason)> = if rate <= f64::EPSILON {
                // Idle path: park to the warm-pool floor once the pool
                // has been quiet for the full idle window.
                let since = *entry.idle_since_ns.get_or_insert(now_ns);
                if now_ns.saturating_sub(since) >= idle_ns
                    && current > self.policy.warm_pool
                    && cooled
                {
                    Some((self.policy.warm_pool, DecisionReason::IdlePark))
                } else {
                    None
                }
            } else {
                entry.idle_since_ns = None;
                // Little's law: replicas busy serving the offered load.
                let demand = rate * profile.inference.as_secs_f64();
                let mut target = (demand / self.policy.target_utilization).ceil() as usize;
                target = target.clamp(self.policy.min_replicas, self.policy.max_replicas);
                // Quarantined replicas are not capacity: keep at least
                // one healthy replica beyond them, even past the caps.
                if target <= quarantined {
                    target = quarantined + 1;
                }
                let healthy = current.saturating_sub(quarantined);
                let burn_hot = signals
                    .burn_rate(&servable, self.policy.signal_window)
                    .is_some_and(|b| b > 1.0);
                if current == 0 {
                    // Wake from zero: cold traffic must not wait out a
                    // cooldown window.
                    Some((target.max(1), DecisionReason::Wake))
                } else if !cooled {
                    None
                } else {
                    let util = demand / healthy.max(1) as f64;
                    let pressured =
                        util > self.policy.scale_up_utilization || healthy == 0 || burn_hot;
                    if pressured {
                        let mut to = target;
                        // A burn breach (or an all-quarantined pool)
                        // always buys at least one more replica, even
                        // when the utilization math says "enough".
                        if (burn_hot || healthy == 0) && to <= current {
                            to = current + 1;
                        }
                        let to = to.min(self.policy.max_replicas.max(quarantined + 1));
                        (to > current).then_some((to, DecisionReason::ScaleUp))
                    } else if util < self.policy.scale_down_utilization && target < current {
                        Some((target, DecisionReason::ScaleDown))
                    } else {
                        None
                    }
                }
            };

            if let Some((to, reason)) = decision {
                entry.last_change_ns = Some(now_ns);
                self.executor.scale(&servable, to);
                if let Some(counter) = &self.decisions_counter {
                    counter.inc();
                }
                let d = ControlDecision {
                    at_ns: now_ns,
                    servable,
                    from: current,
                    to,
                    reason,
                };
                state.log.push(d.clone());
                applied.push(d);
            }
        }
        applied
    }

    /// Every decision applied since construction, oldest first.
    pub fn decisions(&self) -> Vec<ControlDecision> {
        self.state.lock().log.clone()
    }

    /// The cumulative decision log as canonical text, one line per
    /// decision — the artifact the determinism tests compare.
    pub fn log_text(&self) -> String {
        let state = self.state.lock();
        let mut out = String::new();
        for d in &state.log {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlhub_container::Cluster;
    use std::time::Duration;

    fn feed(registry: &ProfileRegistry, servable: &str, inference_ms: u64, invocation_ms: u64) {
        for _ in 0..10 {
            registry.record(
                servable,
                Duration::from_millis(inference_ms),
                Duration::from_millis(invocation_ms),
                1,
            );
        }
    }

    use crate::executor::{Executor, HealthPolicy};

    /// Scripted [`ScalingSignals`] fixture: rates and burns by
    /// servable, everything else "no data".
    #[derive(Default)]
    struct Scripted {
        rates: HashMap<String, f64>,
        burns: HashMap<String, f64>,
    }

    impl Scripted {
        fn rate(mut self, servable: &str, rate: f64) -> Self {
            self.rates.insert(servable.to_string(), rate);
            self
        }

        fn burn(mut self, servable: &str, burn: f64) -> Self {
            self.burns.insert(servable.to_string(), burn);
            self
        }
    }

    impl ScalingSignals for Scripted {
        fn arrival_rate(&self, servable: &str, _: Duration) -> Option<f64> {
            self.rates.get(servable).copied()
        }

        fn arrival_trend(&self, _: &str, _: Duration) -> Option<f64> {
            None
        }

        fn queue_wait_p99(&self, _: Duration) -> Option<u64> {
            None
        }

        fn burn_rate(&self, servable: &str, _: Duration) -> Option<f64> {
            self.burns.get(servable).copied()
        }

        fn pool_occupancy(&self, _: Duration) -> Option<f64> {
            None
        }
    }

    const SEC: u64 = 1_000_000_000;

    fn control_setup(policy: ControlPolicy) -> (ProfileRegistry, Arc<ParslExecutor>, Reconciler) {
        let registry = ProfileRegistry::new();
        let executor = Arc::new(ParslExecutor::new(Cluster::petrelkube(), 1));
        let loop_ = Reconciler::new(registry.clone(), Arc::clone(&executor), policy);
        (registry, executor, loop_)
    }

    #[test]
    fn reconciler_scales_up_then_holds_in_the_band() {
        let (registry, executor, ctl) = control_setup(ControlPolicy::default());
        feed(&registry, "u/m", 100, 103);
        executor.scale("u/m", 1);
        // 20 req/s × 100 ms = 2 busy replicas on 1 → util 2.0, up.
        let signals = Scripted::default().rate("u/m", 20.0);
        let applied = ctl.reconcile_at(0, &signals);
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].from, 1);
        assert_eq!(applied[0].to, 4); // ceil(2.0 / 0.6)
        assert_eq!(applied[0].reason, DecisionReason::ScaleUp);
        assert_eq!(executor.replicas("u/m"), 4);
        // Same steady load after the resize: util 0.5 sits inside the
        // (0.3, 0.85) band — no flapping by construction.
        assert!(ctl.reconcile_at(60 * SEC, &signals).is_empty());
        assert!(ctl.reconcile_at(120 * SEC, &signals).is_empty());
        assert_eq!(ctl.decisions().len(), 1);
    }

    #[test]
    fn cooldown_gates_consecutive_resizes() {
        let (registry, executor, ctl) = control_setup(ControlPolicy::default());
        feed(&registry, "u/m", 100, 103);
        executor.scale("u/m", 1);
        assert_eq!(
            ctl.reconcile_at(0, &Scripted::default().rate("u/m", 20.0))
                .len(),
            1
        );
        // Load doubles one second later: still inside the 30 s
        // cooldown, so the loop must sit on its hands…
        let hot = Scripted::default().rate("u/m", 60.0);
        assert!(ctl.reconcile_at(SEC, &hot).is_empty());
        assert_eq!(executor.replicas("u/m"), 4);
        // …and act once the window has passed.
        let applied = ctl.reconcile_at(31 * SEC, &hot);
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].to, 10); // ceil(6.0 / 0.6)
    }

    #[test]
    fn low_utilization_scales_down_to_target() {
        let (registry, executor, ctl) = control_setup(ControlPolicy::default());
        feed(&registry, "u/m", 100, 103);
        executor.scale("u/m", 8);
        // 5 req/s × 100 ms = 0.5 busy on 8 replicas → util 0.0625.
        let applied = ctl.reconcile_at(0, &Scripted::default().rate("u/m", 5.0));
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].reason, DecisionReason::ScaleDown);
        assert_eq!(applied[0].to, 1);
        assert_eq!(executor.replicas("u/m"), 1);
    }

    #[test]
    fn idle_parks_to_warm_pool_and_wake_bypasses_cooldown() {
        let policy = ControlPolicy {
            idle_after: Duration::from_secs(10),
            warm_pool: 0,
            ..ControlPolicy::default()
        };
        let (registry, executor, ctl) = control_setup(policy);
        feed(&registry, "u/m", 100, 103);
        executor.scale("u/m", 2);
        let quiet = Scripted::default().rate("u/m", 0.0);
        // Idle clock starts on the first quiet pass; nothing yet.
        assert!(ctl.reconcile_at(0, &quiet).is_empty());
        assert!(ctl.reconcile_at(5 * SEC, &quiet).is_empty());
        // Full idle window elapsed: park to zero.
        let parked = ctl.reconcile_at(10 * SEC, &quiet);
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0].reason, DecisionReason::IdlePark);
        assert_eq!(parked[0].to, 0);
        assert_eq!(executor.replicas("u/m"), 0);
        // Traffic returns 2 s later — far inside the 30 s cooldown —
        // and the wake must not wait it out.
        let woken = ctl.reconcile_at(12 * SEC, &Scripted::default().rate("u/m", 5.0));
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].reason, DecisionReason::Wake);
        assert_eq!(executor.replicas("u/m"), 1);
    }

    #[test]
    fn burn_breach_buys_a_replica_even_inside_the_band() {
        let (registry, executor, ctl) = control_setup(ControlPolicy::default());
        feed(&registry, "u/m", 100, 103);
        executor.scale("u/m", 4);
        // util 0.5 is inside the band, but the SLO is burning.
        let burning = Scripted::default().rate("u/m", 20.0).burn("u/m", 3.0);
        let applied = ctl.reconcile_at(0, &burning);
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].to, 5);
        assert_eq!(applied[0].reason, DecisionReason::ScaleUp);
    }

    #[test]
    fn no_signal_history_means_no_action() {
        let (registry, executor, ctl) = control_setup(ControlPolicy::default());
        feed(&registry, "u/m", 100, 103);
        executor.scale("u/m", 3);
        // Scripted fixture has no entry for u/m: rate is None.
        assert!(ctl.reconcile_at(0, &Scripted::default()).is_empty());
        assert_eq!(executor.replicas("u/m"), 3);
    }

    #[test]
    fn decision_log_is_byte_identical_across_replays() {
        let run = || {
            let (registry, executor, ctl) = control_setup(ControlPolicy::default());
            feed(&registry, "u/m", 100, 103);
            executor.scale("u/m", 1);
            ctl.reconcile_at(0, &Scripted::default().rate("u/m", 20.0));
            ctl.reconcile_at(31 * SEC, &Scripted::default().rate("u/m", 60.0));
            ctl.reconcile_at(62 * SEC, &Scripted::default().rate("u/m", 5.0));
            ctl.log_text()
        };
        let first = run();
        assert_eq!(first, run());
        assert_eq!(
            first,
            "t=0.000s u/m 1->4 scale_up\n\
             t=31.000s u/m 4->10 scale_up\n\
             t=62.000s u/m 10->1 scale_down\n"
        );
    }

    fn quarantine_one_replica(executor: &ParslExecutor, servable: &str) {
        use crate::servable::servable_fn;
        use crate::value::Value;
        let failing = servable_fn(|_| Err("kaboom".into()));
        let _ = executor.execute(servable, &failing, &[Value::Null]);
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while executor.quarantined(servable) == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            executor.quarantined(servable),
            1,
            "replica never quarantined"
        );
    }

    #[test]
    fn reconciler_never_counts_quarantined_replicas_as_capacity() {
        let registry = ProfileRegistry::new();
        let executor = Arc::new(
            ParslExecutor::new(Cluster::petrelkube(), 1).with_health(Some(HealthPolicy {
                quarantine_after: 1,
                quarantine_for: Duration::from_secs(5),
            })),
        );
        let ctl = Reconciler::new(
            registry.clone(),
            Arc::clone(&executor),
            ControlPolicy::default(),
        );
        feed(&registry, "u/sick", 10, 13);
        quarantine_one_replica(&executor, "u/sick");
        // Tiny demand says one replica is plenty — but that replica is
        // quarantined, so the loop must buy a healthy one.
        let applied = ctl.reconcile_at(0, &Scripted::default().rate("u/sick", 5.0));
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].to, 2);
        assert_eq!(applied[0].reason, DecisionReason::ScaleUp);
    }

    #[test]
    fn telemetry_signals_adapt_the_query_view() {
        use dlhub_obs::Obs;

        let obs = Obs::new();
        obs.enable_telemetry_manual(Duration::from_secs(1));
        let step = 1_000_000_000u64;
        for tick in 0..5u64 {
            obs.metrics.series("u/inception").requests.add(20);
            obs.metrics.gauge("async_pool_active").set(3);
            obs.metrics
                .histogram("broker_queue_wait_ns")
                .record(2_000_000);
            obs.telemetry.sample_now(tick * step);
        }
        let signals = TelemetrySignals::new(obs.telemetry.signals().unwrap());
        let w = Duration::from_secs(4);
        let arrival = signals.arrival_rate("u/inception", w).unwrap();
        assert!((arrival - 20.0).abs() < 1e-9, "{arrival}");
        // Constant arrivals: trend is flat.
        let trend = signals.arrival_trend("u/inception", w).unwrap();
        assert!(trend.abs() < 1e-6, "{trend}");
        assert!(signals.queue_wait_p99(w).unwrap() >= 2_000_000);
        assert_eq!(signals.pool_occupancy(w), Some(3.0));
        // No SLO registered: burn rate reports no data, not zero.
        assert_eq!(signals.burn_rate("u/inception", w), None);
    }

    #[test]
    fn signals_report_none_without_history() {
        use dlhub_obs::Obs;

        let obs = Obs::new();
        obs.enable_telemetry_manual(Duration::from_secs(1));
        let signals = TelemetrySignals::new(obs.telemetry.signals().unwrap());
        let w = Duration::from_secs(60);
        assert_eq!(signals.arrival_rate("u/ghost", w), None);
        assert_eq!(signals.queue_wait_p99(w), None);
        assert_eq!(signals.pool_occupancy(w), None);
        assert_eq!(signals.inner().arrival_trend("u/ghost", w), None);
    }
}
