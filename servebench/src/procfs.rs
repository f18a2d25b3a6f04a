//! Per-thread CPU accounting and memory from `/proc` and glibc (Linux).
//!
//! `/proc/self/task/<tid>/schedstat` holds three numbers: time on CPU
//! (ns), time waiting on a run queue (ns), and timeslices run. Threads
//! are grouped by the name prefixes the serving stack gives them.
//!
//! A thread that has exited leaves no `schedstat` behind, and the
//! kernels' parallel iterators run on threads spawned per call, so the
//! program's CPU is read for the whole process
//! (`CLOCK_PROCESS_CPUTIME_ID`, which keeps the time of exited threads)
//! less the benchmark's own threads.

use std::collections::BTreeMap;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Group of the program's threads that ended within a phase: the
/// kernels' per-call worker threads. Only their CPU time is known.
pub const WORKERS: &str = "executor.workers";

/// Thread-name prefix → layer group. Linux truncates names to 15
/// bytes, so prefixes stay short.
pub const GROUPS: [(&str, &str); 7] = [
    ("dlhub-async-", "async_pool"),
    ("tm-", "task_manager"),
    ("pod-", "executor.pods"),
    ("rpc-pump-", "queue.rpc_pump"),
    ("dlhub-telemetr", "obs.telemetry"),
    ("dlhub-reconcil", "autoscale.reconciler"),
    (crate::GENERATOR_PREFIX, "generator"),
];

/// Cumulative CPU and run-queue time of one thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadTimes {
    pub cpu_ns: u64,
    pub runq_ns: u64,
}

/// One reading of every live thread in the process.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// tid → (thread name, times).
    pub threads: BTreeMap<u64, (String, ThreadTimes)>,
    /// CPU time of the whole process so far, exited threads included.
    pub process_cpu_ns: u64,
    /// Benchmark threads that had exited when the reading was taken
    /// (a length of [`EXITED`]).
    pub exited: usize,
}

/// (tid, CPU time) of every benchmark thread that has exited, in exit
/// order, recorded by [`generator_exit`].
static EXITED: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());

fn main_tid() -> u64 {
    std::process::id() as u64
}

pub fn snapshot() -> Snapshot {
    let exited = EXITED.lock().expect("exited threads").len();
    let process_cpu_ns = cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID);
    let mut threads = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Snapshot::default();
    };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let path = entry.path();
        let name = fs::read_to_string(path.join("comm"))
            .map(|s| s.trim_end().to_string())
            .unwrap_or_default();
        let Ok(stat) = fs::read_to_string(path.join("schedstat")) else {
            continue;
        };
        threads.insert(tid, (name, parse_schedstat(&stat)));
    }
    Snapshot {
        threads,
        process_cpu_ns,
        exited,
    }
}

/// The calling benchmark thread's cumulative times, read just before
/// it exits: an exited thread leaves no entry behind, so its CPU time
/// is recorded here, to be told apart from the program's.
pub fn generator_exit() -> ThreadTimes {
    let mut times =
        parse_schedstat(&fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default());
    times.cpu_ns = thread_cpu_ns();
    // SAFETY: gettid takes no arguments and cannot fail.
    let tid = unsafe { gettid() } as u64;
    EXITED
        .lock()
        .expect("exited threads")
        .push((tid, times.cpu_ns));
    times
}

fn parse_schedstat(stat: &str) -> ThreadTimes {
    let mut fields = stat
        .split_whitespace()
        .map(|f| f.parse::<u64>().unwrap_or(0));
    ThreadTimes {
        cpu_ns: fields.next().unwrap_or(0),
        runq_ns: fields.next().unwrap_or(0),
    }
}

/// Per-thread deltas between two snapshots. Threads born in between
/// count from zero; threads that exited in between are lost (the
/// serving stack keeps its threads for the life of the hub).
fn deltas<'a>(
    before: &'a Snapshot,
    after: &'a Snapshot,
) -> impl Iterator<Item = (u64, &'a str, ThreadTimes)> + 'a {
    after.threads.iter().map(move |(tid, (name, t))| {
        let base = before.threads.get(tid).map(|(_, b)| *b).unwrap_or_default();
        (
            *tid,
            name.as_str(),
            ThreadTimes {
                cpu_ns: t.cpu_ns.saturating_sub(base.cpu_ns),
                runq_ns: t.runq_ns.saturating_sub(base.runq_ns),
            },
        )
    })
}

fn is_program(tid: u64, name: &str) -> bool {
    tid != main_tid() && !name.starts_with(crate::GENERATOR_PREFIX)
}

/// CPU time of benchmark threads that exited between two snapshots,
/// counted from the first snapshot (or from their start).
fn exited_generator_cpu_ns(before: &Snapshot, after: &Snapshot) -> u64 {
    let exited = EXITED.lock().expect("exited threads");
    exited[before.exited..after.exited]
        .iter()
        .map(|(tid, cpu_ns)| {
            let base = before.threads.get(tid).map_or(0, |(_, t)| t.cpu_ns);
            cpu_ns.saturating_sub(base)
        })
        .sum()
}

/// CPU time of the program between two snapshots: the whole process,
/// exited threads included, less the benchmark's generator threads
/// (live or exited) and its (idle) main thread. Work the program does
/// on a generator thread, inside a call the generator makes, is
/// measured by the caller and added on top (see [`thread_cpu_ns`]).
pub fn program_cpu_ns(before: &Snapshot, after: &Snapshot) -> u64 {
    let benchmark: u64 = deltas(before, after)
        .filter(|(tid, name, _)| !is_program(*tid, name))
        .map(|(_, _, t)| t.cpu_ns)
        .sum();
    let process = after.process_cpu_ns.saturating_sub(before.process_cpu_ns);
    process.saturating_sub(benchmark + exited_generator_cpu_ns(before, after))
}

/// CPU and run-queue time per layer group between two snapshots, plus
/// the times of generator threads that exited in between; the
/// program's threads that ended in between make up [`WORKERS`] (CPU
/// only).
pub fn group_times(
    before: &Snapshot,
    after: &Snapshot,
    exited_generators: ThreadTimes,
) -> BTreeMap<&'static str, ThreadTimes> {
    let mut out: BTreeMap<&'static str, ThreadTimes> = GROUPS
        .iter()
        .map(|(_, g)| (*g, ThreadTimes::default()))
        .collect();
    out.insert("generator", exited_generators);
    let live_program: u64 = deltas(before, after)
        .filter(|(tid, name, _)| is_program(*tid, name))
        .map(|(_, _, t)| t.cpu_ns)
        .sum();
    out.insert(
        WORKERS,
        ThreadTimes {
            cpu_ns: program_cpu_ns(before, after).saturating_sub(live_program),
            runq_ns: 0,
        },
    );
    for (_, name, t) in deltas(before, after) {
        if let Some((_, group)) = GROUPS.iter().find(|(p, _)| name.starts_with(p)) {
            let slot = out.get_mut(group).expect("every group pre-seeded");
            slot.cpu_ns += t.cpu_ns;
            slot.runq_ns += t.runq_ns;
        }
    }
    out
}

/// glibc's `struct mallinfo2`.
#[repr(C)]
struct Mallinfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallinfo2() -> Mallinfo2;
    fn gettid() -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes one timespec through a valid pointer.
    unsafe {
        clock_gettime(clock, &mut ts);
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The calling thread's CPU time so far, ns (`CLOCK_THREAD_CPUTIME_ID`,
/// exact to the call, unlike `schedstat`'s last-update reading). The
/// generator brackets each call it makes into the program with two
/// readings, so the server-side work such a call does on the caller's
/// thread counts as the program's.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Machine-wide (busy, stolen) jiffies from `/proc/stat`: time the
/// hypervisor gave to other guests shows up as steal, and explains
/// latency that no layer of the program accounts for.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let get = |i: usize| fields.get(i).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal
    (get(0) + get(1) + get(2) + get(5) + get(6), get(7))
}

/// Hand freed heap pages back to the kernel (the repeated set-ups
/// leave some behind), then reset the peak-RSS watermark (`VmHWM`) so
/// the next reading covers only what follows.
pub fn reset_peak_rss() -> bool {
    // SAFETY: glibc's malloc_trim only releases free memory.
    unsafe {
        malloc_trim(0);
    }
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Shrink the calling thread's timer slack to 1 µs, so the generator's
/// sleeps end when they should instead of up to 50 µs late.
pub fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // affects the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// Bytes the process holds from malloc right now: chunks in use in
/// every arena plus directly mapped blocks (glibc `mallinfo2`). Unlike
/// RSS, this does not depend on how glibc happened to spread the
/// threads over its malloc arenas, which varies from run to run and
/// moves RSS by tens of MB.
fn heap_in_use() -> usize {
    // SAFETY: mallinfo2 only reads allocator statistics.
    let m = unsafe { mallinfo2() };
    m.uordblks + m.hblkhd
}

/// Peak of [`heap_in_use`], sampled on a thread of its own (named as a
/// generator thread, so its CPU is not the program's): the highest
/// reading of each [`HeapPeak::WINDOW`], and of the whole span.
pub struct HeapPeak {
    stop: Arc<AtomicBool>,
    sampler: std::thread::JoinHandle<Vec<usize>>,
}

impl HeapPeak {
    /// Sampling period: often enough to see the steady state many times
    /// over, rarely enough that the arena locks `mallinfo2` takes do not
    /// disturb the program.
    const PERIOD: Duration = Duration::from_millis(20);
    /// Samples per window (one second).
    const WINDOW: usize = 50;

    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let sampler = std::thread::Builder::new()
            .name(format!("{}heap", crate::GENERATOR_PREFIX))
            .spawn(move || {
                let mut peaks = Vec::new();
                let (mut peak, mut taken) = (heap_in_use(), 1);
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(Self::PERIOD);
                    peak = peak.max(heap_in_use());
                    taken += 1;
                    if taken == Self::WINDOW {
                        peaks.push(peak);
                        (peak, taken) = (0, 0);
                    }
                }
                if peaks.is_empty() || taken >= Self::WINDOW / 2 {
                    peaks.push(peak.max(heap_in_use()));
                }
                generator_exit();
                peaks
            })
            .expect("spawn heap sampler");
        HeapPeak { stop, sampler }
    }

    /// Stop sampling; (median of the per-window peaks, peak of the
    /// whole span), MiB. The median is the steadier figure: the highest
    /// single reading catches whichever burst of large requests
    /// happened to be in flight together.
    pub fn stop(self) -> (f64, f64) {
        self.stop.store(true, Ordering::Relaxed);
        let peaks = self.sampler.join().expect("heap sampler");
        let mb = |b: f64| b / (1024.0 * 1024.0);
        let max = peaks.iter().copied().max().unwrap_or(0) as f64;
        let typical = crate::stats::median(&peaks.iter().map(|&p| p as u64).collect::<Vec<_>>());
        (mb(typical), mb(max))
    }
}

/// How fast the machine runs a fixed piece of benchmark-side work while
/// a phase is measured. On a shared host the same instructions take
/// more or less CPU time from minute to minute as other guests crowd or
/// leave the physical core (a busy sibling hyperthread, evicted caches,
/// contended memory): over eight runs of the same inference-mix with
/// almost no steal, the program's CPU time per request ranged from 7.2
/// to 9.4 ms. A reference sample, timed in the probing thread's CPU
/// time every [`SpeedProbe::PERIOD`], slows down with it, so CPU
/// figures can be scaled back to one machine speed. The sample mixes
/// the kinds of work the serving stack does, since crowding slows each
/// kind by a different amount: a small GEMM in cache, a streaming pass
/// over a buffer larger than the caches, branchy hash-table lookups,
/// and spawning and joining two threads (the kernels' parallel
/// iterators spawn theirs per call).
pub struct SpeedProbe {
    stop: Arc<AtomicBool>,
    prober: std::thread::JoinHandle<Vec<[u64; 4]>>,
}

/// Names of the reference sample's parts, in order.
const PROBE_PARTS: [&str; 4] = ["gemm", "stream", "lookup", "spawn"];

/// Side of the GEMM part's square f32 matrices (in cache).
const GEMM_N: usize = 64;
/// f32s in each of the stream part's two buffers (2 MiB each).
const STREAM_LEN: usize = 1 << 19;
/// Keys and table slots of the lookup part.
const LOOKUP_KEYS: usize = 2000;
const LOOKUP_SLOTS: usize = 4096;

/// Row-major `c += a × b`, six times, written like the tensor crate's
/// GEMM rows (a contiguous multiply-add over a row of `b`).
fn probe_gemm(a: &[f32], b: &[f32], c: &mut [f32]) {
    let n = GEMM_N;
    for _ in 0..6 {
        for (i, row) in c.chunks_mut(n).enumerate() {
            for p in 0..n {
                let x = a[i * n + p];
                for (c, &bv) in row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                    *c += x * bv;
                }
            }
        }
        std::hint::black_box(&mut *c);
    }
}

/// One pass `y = y / 2 + x` over buffers larger than the caches.
fn probe_stream(x: &[f32], y: &mut [f32]) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y = *y * 0.5 + x;
    }
    std::hint::black_box(&mut *y);
}

/// FNV-1a-hash every key into an open-addressed table, then look each
/// one up again, three times over; no allocation, so the malloc arena
/// the probing thread lands on does not matter. Returns the hits.
fn probe_lookup(keys: &[Vec<u8>], table: &mut [u64]) -> usize {
    let mask = table.len() - 1;
    let mut found = 0;
    for _ in 0..3 {
        table.fill(0);
        for insert in [true, false] {
            for key in keys {
                let h = key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                    (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
                }) | 1;
                let mut i = h as usize & mask;
                while table[i] != 0 && table[i] != h {
                    i = (i + 1) & mask;
                }
                if insert {
                    table[i] = h;
                } else {
                    found += (table[i] == h) as usize;
                }
            }
        }
    }
    found
}

/// Spawn two threads that do nothing and join them (the spawning
/// side's CPU: clone, stack set-up, the join's wake-up).
fn probe_spawn() {
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| std::hint::black_box(0));
        }
    });
}

impl SpeedProbe {
    /// Sampling period: a sample takes about a millisecond, so the
    /// probe uses about 1% of one core.
    const PERIOD: Duration = Duration::from_millis(100);

    /// CPU time of one sample on the reference machine (2-vCPU shared
    /// virtual machine, Intel Xeon) in its fast state; it only sets
    /// the scale of the scaled figures.
    pub const NOMINAL_NS: f64 = 1.25e6;

    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let prober = std::thread::Builder::new()
            .name(format!("{}speed", crate::GENERATOR_PREFIX))
            .spawn(move || {
                let n = GEMM_N * GEMM_N;
                let a: Vec<f32> = (0..n).map(|i| (i % 7) as f32 * 0.125).collect();
                let b: Vec<f32> = (0..n).map(|i| (i % 5) as f32 * 0.25).collect();
                let mut c = vec![0.0f32; n];
                let x: Vec<f32> = (0..STREAM_LEN).map(|i| (i % 11) as f32).collect();
                let mut y = vec![0.0f32; STREAM_LEN];
                let keys: Vec<Vec<u8>> = (0..LOOKUP_KEYS)
                    .map(|i| format!("dlhub/servable-{i:05}").into_bytes())
                    .collect();
                let mut table = vec![0u64; LOOKUP_SLOTS];
                let mut samples = Vec::new();
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(Self::PERIOD);
                    c.fill(0.0);
                    let mut t = [0u64; 5];
                    t[0] = thread_cpu_ns();
                    probe_gemm(std::hint::black_box(&a), std::hint::black_box(&b), &mut c);
                    t[1] = thread_cpu_ns();
                    probe_stream(std::hint::black_box(&x), &mut y);
                    t[2] = thread_cpu_ns();
                    std::hint::black_box(probe_lookup(std::hint::black_box(&keys), &mut table));
                    t[3] = thread_cpu_ns();
                    probe_spawn();
                    t[4] = thread_cpu_ns();
                    samples.push([t[1] - t[0], t[2] - t[1], t[3] - t[2], t[4] - t[3]]);
                }
                generator_exit();
                samples
            })
            .expect("spawn speed probe");
        SpeedProbe { stop, prober }
    }

    /// Stop probing; the machine's speed over the probed span as
    /// nominal / median CPU time of a sample (below 1 when the machine
    /// is slower than nominal), and a line that gives the sample count
    /// and each part's median.
    pub fn stop(self) -> (f64, String) {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self.prober.join().expect("speed probe");
        let median_of = |f: &dyn Fn(&[u64; 4]) -> u64| {
            crate::stats::median(&samples.iter().map(f).collect::<Vec<_>>())
        };
        let parts: Vec<String> = PROBE_PARTS
            .iter()
            .enumerate()
            .map(|(k, name)| format!("{name} {:.1} us", median_of(&|s| s[k]) / 1e3))
            .collect();
        let total = median_of(&|s| s.iter().sum());
        let line = format!(
            "{} samples, median {:.1} us ({})",
            samples.len(),
            total / 1e3,
            parts.join(", ")
        );
        (Self::NOMINAL_NS / total, line)
    }
}
