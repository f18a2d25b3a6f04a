//! The open-loop load generator: one dispatcher thread submits every request
//! through `run_async` at its intended instant, one observer thread
//! watches for completions. Latency runs from the intended send time
//! to the observed completion, so a stall inside the system is charged
//! to every request it delays (no coordinated omission).

use crate::procfs;
use crate::workload::{Deployment, Name, Schedule};
use dlhub_core::serving::ManagementService;
use dlhub_core::task::{TaskHandle, TaskStatus};
use dlhub_core::Value;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one open-loop phase observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests the schedule sent (or tried to).
    pub sent: usize,
    /// Completions with the correct output.
    pub correct: usize,
    /// Correct completions within the latency limit.
    pub within_limit: usize,
    /// Failed tasks plus submissions the service refused.
    pub failed: usize,
    /// Completions whose output differs from the reference.
    pub wrong: usize,
    /// Intended send → observed completion, ns, per correct completion.
    pub latency_ns: Vec<u64>,
    /// Actual send − intended send, ns, per request.
    pub dispatch_lag_ns: Vec<u64>,
    /// Upper bound on completion → observation, ns, per completion.
    pub observer_lag_ns: Vec<u64>,
    /// Time for `run_async` to return, ns, per request.
    pub submit_ns: Vec<u64>,
    /// On-CPU time of the program during the phase: its own threads,
    /// plus its work inside `run_async` and `forget_task` on the
    /// generator's threads.
    pub program_cpu_ns: u64,
    /// Thread readings at the phase's start and end.
    pub threads: (procfs::Snapshot, procfs::Snapshot),
    /// The dispatcher's and observer's own times (they exit before the
    /// end reading), less the program's work inside their calls.
    pub generator: procfs::ThreadTimes,
    /// CPU time the program spent inside calls made on the generator's
    /// threads (counted in `program_cpu_ns`, not in `generator`).
    pub in_calls_cpu_ns: u64,
}

/// Outstanding tasks the observer polls per sweep, oldest first.
const OBSERVE_WINDOW: usize = 32;

struct Pending {
    index: usize,
    handle: TaskHandle,
    intended: Instant,
    polled: Instant,
}

fn spawn_named<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::JoinHandle<T> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(f)
        .expect("spawn generator thread")
}

/// Observer loop: poll the oldest outstanding tasks once per `sweep`,
/// waking early when the oldest one resolves. A task found done was not
/// done at its previous poll, so `now − previous poll` bounds the lag.
fn observe(
    service: Arc<ManagementService>,
    rx: mpsc::Receiver<Pending>,
    expected: Arc<Vec<Value>>,
    limit: Duration,
    sweep: Duration,
    out: &mut Outcome,
) {
    procfs::tight_timer_slack();
    let mut outstanding: Vec<Pending> = Vec::new();
    let mut open = true;
    while open || !outstanding.is_empty() {
        if outstanding.is_empty() && open {
            match rx.recv() {
                Ok(p) => outstanding.push(p),
                Err(_) => open = false,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(p) => outstanding.push(p),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let before = outstanding.len();
        // Poll the oldest tasks only: under a backlog, polling every
        // outstanding task per sweep would make the observer itself the
        // bottleneck. Younger tasks keep their last poll time, so their
        // lag bound stays honest.
        let mut polled = 0usize;
        outstanding.retain_mut(|p| {
            polled += 1;
            if polled > OBSERVE_WINDOW {
                return true;
            }
            let status = p.handle.status();
            let now = Instant::now();
            if matches!(status, TaskStatus::Pending) {
                p.polled = now;
                return true;
            }
            out.observer_lag_ns.push((now - p.polled).as_nanos() as u64);
            let latency = now - p.intended;
            match status {
                TaskStatus::Completed(v) if v == expected[p.index] => {
                    out.correct += 1;
                    out.latency_ns.push(latency.as_nanos() as u64);
                    if latency <= limit {
                        out.within_limit += 1;
                    }
                }
                TaskStatus::Completed(_) => out.wrong += 1,
                _ => out.failed += 1,
            }
            // The client has its answer: drop the record so the task
            // table does not grow with the run.
            let cpu = procfs::thread_cpu_ns();
            service.forget_task(&p.handle.id);
            out.in_calls_cpu_ns += procfs::thread_cpu_ns() - cpu;
            false
        });
        if outstanding.len() == before {
            if let Some(oldest) = outstanding.first() {
                oldest.handle.wait(sweep);
            }
        }
    }
}

/// Send `schedule` open loop and observe every completion.
pub fn run(dep: &Deployment, schedule: Schedule, name: Name, traced: bool) -> Outcome {
    let (limit, sweep) = (name.limit(), name.sweep());
    let service = Arc::clone(&dep.hub.service);
    let token = dep.hub.token.clone();
    let targets: Arc<Vec<String>> = Arc::new(dep.targets.clone());
    let expected = Arc::new(schedule.expected);
    let sends = schedule.sends;
    let sent = sends.len();
    let (tx, rx) = mpsc::channel::<Pending>();
    let before = procfs::snapshot();
    let start = Instant::now() + Duration::from_millis(2);

    let dispatcher = {
        let service = Arc::clone(&service);
        spawn_named(&format!("{}dispatch", crate::GENERATOR_PREFIX), move || {
            procfs::tight_timer_slack();
            let mut lag = Vec::with_capacity(sends.len());
            let mut submit = Vec::with_capacity(sends.len());
            let mut refused = 0usize;
            // The Management Service's submit path (authorize, resolve,
            // admission, task registration, root span, pool submit) runs
            // on this thread; its CPU time is the program's.
            let mut in_calls_cpu_ns = 0u64;
            for (index, s) in sends.into_iter().enumerate() {
                let intended = start + Duration::from_nanos(s.at_ns);
                let now = Instant::now();
                if intended > now {
                    std::thread::sleep(intended - now);
                }
                let sent_at = Instant::now();
                lag.push((sent_at - intended).as_nanos() as u64);
                let cpu = procfs::thread_cpu_ns();
                let result = service.run_async(&token, &targets[s.target], s.input);
                in_calls_cpu_ns += procfs::thread_cpu_ns() - cpu;
                if traced {
                    submit.push(sent_at.elapsed().as_nanos() as u64);
                }
                match result {
                    Ok(handle) => {
                        let _ = tx.send(Pending {
                            index,
                            handle,
                            intended,
                            polled: sent_at,
                        });
                    }
                    Err(_) => refused += 1,
                }
            }
            (
                lag,
                submit,
                refused,
                in_calls_cpu_ns,
                procfs::generator_exit(),
            )
        })
    };
    let observer = spawn_named(&format!("{}observe", crate::GENERATOR_PREFIX), move || {
        let mut out = Outcome::default();
        observe(service, rx, expected, limit, sweep, &mut out);
        out.generator = procfs::generator_exit();
        out
    });
    let (lag, submit, refused, submit_cpu_ns, dispatch_times) =
        dispatcher.join().expect("dispatcher");
    let mut out = observer.join().expect("observer");
    out.generator.cpu_ns += dispatch_times.cpu_ns;
    out.generator.runq_ns += dispatch_times.runq_ns;
    let after = procfs::snapshot();
    out.sent = sent;
    out.failed += refused;
    out.dispatch_lag_ns = lag;
    out.submit_ns = submit;
    out.in_calls_cpu_ns += submit_cpu_ns;
    out.generator.cpu_ns = out.generator.cpu_ns.saturating_sub(out.in_calls_cpu_ns);
    out.program_cpu_ns = procfs::program_cpu_ns(&before, &after) + out.in_calls_cpu_ns;
    out.threads = (before, after);
    out
}

/// Requests sent one at a time (each waits for the previous one's
/// observed completion): the unloaded latency the ledger explains.
/// Returns latencies, the target of each, and failed or wrong results.
pub fn unloaded(
    dep: &Deployment,
    schedule: &Schedule,
    budget: Duration,
) -> (Vec<u64>, Vec<usize>, usize) {
    let service = &dep.hub.service;
    let mut latency = Vec::new();
    let mut targets = Vec::new();
    let mut bad = 0;
    let started = Instant::now();
    for (s, expected) in schedule.sends.iter().zip(&schedule.expected) {
        if latency.len() >= 20 && started.elapsed() > budget {
            break;
        }
        let started = Instant::now();
        let handle = service
            .run_async(&dep.hub.token, &dep.targets[s.target], s.input.clone())
            .expect("unloaded submit");
        let status = handle.wait(Duration::from_secs(30));
        latency.push(started.elapsed().as_nanos() as u64);
        service.forget_task(&handle.id);
        if !matches!(&status, TaskStatus::Completed(v) if v == expected) {
            bad += 1;
        }
        targets.push(s.target);
    }
    (latency, targets, bad)
}

/// Keep `depth` requests outstanding for `seconds`, cycling through
/// `schedule`'s requests; returns (completions per second, failures,
/// wrong outputs, completions).
pub fn throughput(
    dep: &Deployment,
    schedule: &Schedule,
    depth: usize,
    seconds: f64,
) -> (f64, usize, usize, usize) {
    let service = &dep.hub.service;
    let n = schedule.sends.len();
    let submit = |i: usize| {
        let s = &schedule.sends[i % n];
        let h = service
            .run_async(&dep.hub.token, &dep.targets[s.target], s.input.clone())
            .expect("throughput submit");
        (i % n, h)
    };
    let mut next = 0usize;
    let mut outstanding: Vec<(usize, TaskHandle)> = (0..depth)
        .map(|_| {
            next += 1;
            submit(next - 1)
        })
        .collect();
    let started = Instant::now();
    let horizon = Duration::from_secs_f64(seconds);
    let (mut done, mut failed, mut wrong) = (0usize, 0usize, 0usize);
    let elapsed = loop {
        let mut finished = Vec::new();
        outstanding.retain(|(i, h)| match h.status() {
            TaskStatus::Pending => true,
            status => {
                finished.push((*i, h.id.clone(), status));
                false
            }
        });
        for (i, id, status) in finished {
            match status {
                TaskStatus::Completed(v) if v == schedule.expected[i] => done += 1,
                TaskStatus::Completed(_) => wrong += 1,
                _ => failed += 1,
            }
            service.forget_task(&id);
        }
        let elapsed = started.elapsed();
        if elapsed >= horizon {
            break elapsed;
        }
        while outstanding.len() < depth {
            outstanding.push(submit(next));
            next += 1;
        }
        if let Some((_, oldest)) = outstanding.first() {
            oldest.wait(Duration::from_micros(100));
        }
    };
    // Drain (and check) the stragglers so the next phase starts from
    // an idle system.
    for (i, h) in outstanding {
        match h.wait(Duration::from_secs(30)) {
            TaskStatus::Completed(v) if v == schedule.expected[i] => {}
            TaskStatus::Completed(_) => wrong += 1,
            _ => failed += 1,
        }
        service.forget_task(&h.id);
    }
    (done as f64 / elapsed.as_secs_f64(), failed, wrong, done)
}
