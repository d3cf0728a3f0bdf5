//! Host-speed calibration. On a shared host the CPU's speed drifts with
//! the other tenants' load over seconds to minutes, and so does the
//! latency of `fsync`; either would swamp a change to the code (measured
//! figures are in `README.md`). Probes that belong to the benchmark, so
//! no change to the program can move them, are timed throughout each
//! run: a CPU kernel, and a small write + `fsync` + rename like a store
//! commit. An operation timed on one thread is split into its thread's
//! CPU time and the rest (waiting, mostly for `fsync`); the CPU part is
//! scaled by `NOMINAL_CPU_MS / median(kernel)` and the rest by
//! `NOMINAL_IO_MS / mean(probe)`, over the samples nearest the
//! operation. Operations that span threads (the daemon's) are scaled by
//! the CPU factor alone, or, for figures driven by two busy threads, by
//! two copies of the kernel timed at once.
//! Figures then read as if the host ran at the nominal speeds. The raw
//! figures and the factors are printed too.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::stats::{mean, median};
use crate::sys::{cpu_seconds, thread_cpu_seconds};

/// The kernel time CPU time is scaled to, in ms.
pub const NOMINAL_CPU_MS: f64 = 3.0;
/// The probe time waiting is scaled to, in ms.
pub const NOMINAL_IO_MS: f64 = 0.3;
/// Least time between two samples taken between operations.
const EVERY: Duration = Duration::from_millis(100);

/// Ordered-map and vector work over a few thousand keys.
fn map_work(seed: u64) -> u64 {
    let mut x = seed;
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..10_000u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let key = z % 4096;
        let v = map.entry(key).or_default();
        v.push(z);
        if v.len() > 8 {
            let c = v.clone();
            acc = acc.wrapping_add(c.iter().fold(0, |a, b| a ^ b));
            v.clear();
        }
        if i % 7 == 0 {
            acc = acc.wrapping_add(map.range(key..).next().map_or(0, |(k, _)| *k));
        }
    }
    acc
}

/// A shared expression tree, as the symbolic layer builds them.
enum Tree {
    Leaf(u64),
    Node(Rc<Tree>, Rc<Tree>, u64),
}

fn build(depth: u32, x: &mut u64) -> Rc<Tree> {
    *x = x
        .wrapping_mul(0x5851_f42d_4c95_7f2d)
        .wrapping_add(0x1405_7b7e_f767_814f);
    if depth == 0 {
        Rc::new(Tree::Leaf(*x >> 11))
    } else {
        Rc::new(Tree::Node(
            build(depth - 1, x),
            build(depth - 1, x),
            *x >> 7,
        ))
    }
}

fn fold(t: &Tree) -> u64 {
    match t {
        Tree::Leaf(v) => *v,
        Tree::Node(a, b, v) => fold(a).wrapping_add(fold(b)) ^ v,
    }
}

/// Allocation churn and pointer chasing through trees.
fn tree_work(seed: u64) -> u64 {
    let mut x = seed;
    let mut acc = 0;
    let mut kept = Vec::new();
    for i in 0..6 {
        let t = build(12, &mut x);
        acc ^= fold(&t);
        if i % 3 == 0 {
            kept.push(t);
        }
    }
    acc ^ kept.len() as u64
}

/// The reference kernel: the allocation, ordered-map, and shared-tree
/// work the engine's search does, which tracks its speed on a busy host
/// far better than arithmetic alone.
fn kernel(seed: u64) -> u64 {
    map_work(seed) ^ tree_work(seed)
}

/// One timed operation: wall time and, when it ran on the timing
/// thread alone, that thread's CPU time.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall_ms: f64,
    pub cpu_ms: Option<f64>,
    /// When the operation ended.
    pub at: Instant,
}

impl Timing {
    /// An operation, just ended, whose work ran on other threads.
    pub fn wall(wall_ms: f64) -> Timing {
        Timing {
            wall_ms,
            cpu_ms: None,
            at: Instant::now(),
        }
    }
}

/// Times one operation on the calling thread.
pub struct Timer {
    wall: Instant,
    cpu_s: f64,
}

impl Timer {
    pub fn start() -> Timer {
        Timer {
            wall: Instant::now(),
            cpu_s: thread_cpu_seconds(),
        }
    }

    pub fn stop(&self) -> Timing {
        Timing {
            wall_ms: self.wall.elapsed().as_secs_f64() * 1e3,
            cpu_ms: Some((thread_cpu_seconds() - self.cpu_s) * 1e3),
            at: Instant::now(),
        }
    }
}

/// Probe samples of one run.
#[derive(Default)]
pub struct Calib {
    /// Whether the workload keeps two threads busy, and the kernel is
    /// also timed as two copies at once.
    pairs: bool,
    /// Kernel samples: when each ended, and its wall time in ms.
    cpu: Vec<(Instant, f64)>,
    /// Two copies of the kernel run at once on two threads: the wall
    /// time of both, ms. It grows when the host takes one of the two
    /// cores, which one copy alone may not see.
    pair: Vec<(Instant, f64)>,
    /// Probe samples, likewise.
    io: Vec<(Instant, f64)>,
    /// Where the `fsync` probe writes; no probe without it.
    io_dir: Option<PathBuf>,
    /// The probe's I/O error, which ends the run.
    error: Option<String>,
    spent_s: f64,
    spent_cpu_s: f64,
    last: Option<Instant>,
}

impl Calib {
    /// Probes with the `fsync` probe writing in `io_dir`; `pairs` for a
    /// workload that keeps two threads busy.
    pub fn new(io_dir: PathBuf, pairs: bool) -> Calib {
        Calib {
            pairs,
            io_dir: Some(io_dir),
            ..Calib::default()
        }
    }

    fn one_kernel() {
        black_box(kernel(black_box(42)));
    }

    fn io_probe(dir: &PathBuf) -> std::io::Result<f64> {
        std::fs::create_dir_all(dir)?;
        let (tmp, path) = (dir.join("probe.tmp"), dir.join("probe"));
        let t = Instant::now();
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&[0x5a; 16 * 1024])?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        Ok(t.elapsed().as_secs_f64())
    }

    /// Runs each probe `n` times now.
    pub fn sample(&mut self, n: usize) {
        let cpu0 = cpu_seconds();
        for _ in 0..n {
            let t = Instant::now();
            Self::one_kernel();
            let s = t.elapsed().as_secs_f64();
            self.cpu.push((Instant::now(), s * 1e3));
            self.spent_s += s;
            if self.pairs {
                let t = Instant::now();
                std::thread::scope(|sc| {
                    let other = sc.spawn(Self::one_kernel);
                    Self::one_kernel();
                    other.join().expect("kernel thread");
                });
                let s = t.elapsed().as_secs_f64();
                self.pair.push((Instant::now(), s * 1e3));
                self.spent_s += s;
            }
            if let Some(dir) = &self.io_dir {
                match Self::io_probe(dir) {
                    Ok(s) => {
                        self.io.push((Instant::now(), s * 1e3));
                        self.spent_s += s;
                    }
                    Err(e) => {
                        self.error = Some(format!("fsync probe in {}: {e}", dir.display()));
                        self.io_dir = None;
                    }
                }
            }
        }
        self.spent_cpu_s += cpu_seconds() - cpu0;
        self.last = Some(Instant::now());
    }

    /// Runs the probes once when [`EVERY`] has passed since the last
    /// sample; called between operations.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample(1);
        }
    }

    /// The probe's I/O error, if it failed.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    pub fn absorb(&mut self, other: Calib) {
        self.cpu.extend(other.cpu);
        self.pair.extend(other.pair);
        self.io.extend(other.io);
        self.cpu.sort_by_key(|s| s.0);
        self.pair.sort_by_key(|s| s.0);
        self.io.sort_by_key(|s| s.0);
        self.spent_s += other.spent_s;
        self.spent_cpu_s += other.spent_cpu_s;
        self.error = self.error.take().or(other.error);
    }

    /// Wall seconds spent in the probes, to leave out of timed windows.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// CPU seconds the probes used (the kernel, and the `fsync` probe's
    /// system calls), to leave out of the process's CPU time. Probes
    /// run while the workload's own threads are idle, so the process's
    /// CPU time over them is theirs.
    pub fn spent_cpu_s(&self) -> f64 {
        self.spent_cpu_s
    }

    /// Median kernel time over the run, ms.
    pub fn kernel_ms(&self) -> f64 {
        let v: Vec<f64> = self.cpu.iter().map(|s| s.1).collect();
        median(&v).expect("calibrated at least once")
    }

    /// Mean probe time over the run, ms (nominal when no probe ran).
    pub fn probe_ms(&self) -> f64 {
        let v: Vec<f64> = self.io.iter().map(|s| s.1).collect();
        mean(&v).unwrap_or(NOMINAL_IO_MS)
    }

    /// The factor that scales CPU time measured over the run to the
    /// nominal speed.
    pub fn cpu_factor(&self) -> f64 {
        NOMINAL_CPU_MS / self.kernel_ms()
    }

    /// The factor that scales waiting measured over the run.
    pub fn io_factor(&self) -> f64 {
        NOMINAL_IO_MS / self.probe_ms()
    }

    /// The CPU factor from the kernel samples nearest to `at`.
    pub fn cpu_factor_at(&self, at: Instant) -> f64 {
        median(&nearest(&self.cpu, at, 4)).map_or(self.cpu_factor(), |m| NOMINAL_CPU_MS / m)
    }

    /// A time that two busy threads drive, at the nominal speed: scaled
    /// by the two-copy kernel nearest to it, as if both copies ran as
    /// fast as one alone. Without two-copy samples, as [`scale`](Self::scale).
    pub fn scale_pair(&self, t: Timing) -> f64 {
        match median(&nearest(&self.pair, t.at, 4)) {
            Some(m) => t.wall_ms * NOMINAL_CPU_MS / m,
            None => self.scale(t),
        }
    }

    /// Median two-copy kernel time over the run, ms, if it was timed.
    pub fn pair_ms(&self) -> Option<f64> {
        let v: Vec<f64> = self.pair.iter().map(|s| s.1).collect();
        median(&v)
    }

    /// An operation's time at the nominal speeds, ms, scaled by the
    /// samples taken nearest to it.
    pub fn scale(&self, t: Timing) -> f64 {
        let cpu = self.cpu_factor_at(t.at);
        let io = mean(&nearest(&self.io, t.at, 16)).map_or(self.io_factor(), |m| NOMINAL_IO_MS / m);
        split(t, cpu, io)
    }
}

/// The `n` samples on each side of `at`. The CPU kernel is summarized
/// by their median; the `fsync` probe by their mean, because what
/// drifts is how often an `fsync` stalls, which a median does not see.
fn nearest(samples: &[(Instant, f64)], at: Instant, n: usize) -> Vec<f64> {
    let i = samples.partition_point(|s| s.0 <= at);
    samples[i.saturating_sub(n)..(i + n).min(samples.len())]
        .iter()
        .map(|s| s.1)
        .collect()
}

fn split(t: Timing, cpu_factor: f64, io_factor: f64) -> f64 {
    match t.cpu_ms {
        Some(cpu) => {
            let cpu = cpu.min(t.wall_ms);
            cpu * cpu_factor + (t.wall_ms - cpu) * io_factor
        }
        None => t.wall_ms * cpu_factor,
    }
}
