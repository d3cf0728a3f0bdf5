//! `res-perfbench`: the end-to-end and per-layer benchmark of the RES
//! triage stack. See `README.md` in this directory.
//!
//! ```text
//! res-perfbench --workload <corpus|long-suffix|serve> --seed <n> --seconds <s> --trace <0|1> [--work <dir>]
//! ```
//!
//! A run sets up its seeded inputs several times (reporting the median
//! set-up time), then runs whole passes over them until `--seconds`
//! have elapsed, checks every answer, and prints one JSON object as its
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` is the separate traced run that reports the
//! per-layer metrics.

mod calib;
mod checks;
mod figures;
mod inputs;
mod layers;
mod spans;
mod stats;
mod sys;
mod wl_corpus;
mod wl_long;
mod wl_serve;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use res_core::{HwVerdict, ResConfig};
use res_triage::{hw_verdict_for, TriageRequest};

use crate::calib::{Calib, Timer, Timing};
use crate::inputs::Item;
use crate::spans::Tracer;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The run's settings, as given on the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// This run's private scratch directory inside the checkout.
    pub work: PathBuf,
}

/// What the timed passes observed.
#[derive(Default)]
pub struct Samples {
    pub attempted: u64,
    pub failed: BTreeMap<&'static str, u64>,
    pub errors: Vec<String>,
    /// The workload's main operation.
    pub lat: Vec<Timing>,
    /// Operations on a program with no prior state.
    pub cold: Vec<Timing>,
    /// §3.2 hardware-filter pairs.
    pub hw: Vec<Timing>,
    pub cal: calib::Calib,
}

impl Samples {
    /// Takes a calibration sample when one is due (between operations
    /// of a single-threaded pass).
    pub fn tick(&mut self) {
        self.cal.tick();
    }

    pub fn fail(&mut self, kind: &'static str) {
        *self.failed.entry(kind).or_insert(0) += 1;
    }

    pub fn absorb(&mut self, other: Samples) {
        self.attempted += other.attempted;
        for (k, n) in other.failed {
            *self.failed.entry(k).or_insert(0) += n;
        }
        self.errors.extend(other.errors);
        self.lat.extend(other.lat);
        self.cold.extend(other.cold);
        self.hw.extend(other.hw);
        self.cal.absorb(other.cal);
    }
}

/// Times one §3.2 pair through `hw_verdict_for` and accounts for it:
/// two operations, the clean one checked (or counted as the named hang
/// misflag).
pub fn library_pair(
    item: &Item,
    pair: &[TriageRequest; 2],
    config: &ResConfig,
    tracer: &Tracer,
    op: u64,
    out: &mut Samples,
) -> Vec<HwVerdict> {
    let t = Timer::start();
    let verdicts: Vec<HwVerdict> = tracer.span("hwerr.pair", None, op, |_| {
        pair.iter().map(|r| hw_verdict_for(r, config)).collect()
    });
    out.hw.push(t.stop());
    out.attempted += 2;
    out.tick();
    match checks::clean_verdict(item.hangs(), &verdicts[0]) {
        Ok(true) => out.fail(checks::HANG_MISFLAG),
        Ok(false) => {}
        Err(e) => out.errors.push(format!("{}: {e}", item.class().name())),
    }
    verdicts
}

/// A benchmark workload: seeded set-up, whole passes, checks.
pub trait Workload: Sized {
    /// One set-up. `rep` numbers the set-ups of one run.
    fn setup(ctx: &Ctx, rep: usize, tracer: &Tracer) -> Result<Self, String>;
    /// `false` when operations span threads (their CPU time cannot be
    /// told apart from waiting).
    const SINGLE_THREADED: bool = true;
    /// Cold-operation samples taken during set-up (the daemon warm-up).
    fn setup_cold(&self) -> Vec<Timing> {
        Vec::new()
    }
    /// One whole pass over the corpus.
    fn pass(&mut self, tracer: &Tracer, out: &mut Samples) -> Result<(), String>;
    /// Ends the run and returns the directory of its store files.
    fn finish(&mut self) -> Result<PathBuf, String>;
    /// Checks the answers against independent references.
    fn check(&self, errors: &mut Vec<String>);
    /// The corpus and engine config, for the per-layer sweep.
    fn items(&self) -> &[Item];
    fn config(&self) -> &ResConfig;
    /// Measures the daemon-side layers (before [`finish`](Self::finish)).
    fn probe_serve(&mut self, ctx: &Ctx, tracer: &Tracer) -> Result<Vec<Metric>, String> {
        layers::probe_temp_daemon(ctx, self.items(), self.config(), tracer)
    }
    /// Releases a set-up that will not be measured.
    fn teardown(self) -> Result<(), String>;
}

/// Removes a directory tree; a missing one is fine.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

fn dir_kib(dir: &Path) -> f64 {
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    bytes as f64 / 1024.0
}

struct Outcome {
    attempted: u64,
    failed: BTreeMap<&'static str, u64>,
    errors: Vec<String>,
    /// Scaled to the nominal host speeds.
    metrics: Vec<Metric>,
    /// The same metrics as measured, unscaled.
    raw: Vec<Metric>,
    cal: Calib,
}

/// One timed pass of an end-to-end run.
struct PassWindow {
    /// Operations the pass attempted.
    dumps: f64,
    /// The pass's time, probes left out.
    window: Timing,
    /// The process's CPU time over the pass, all threads, ms.
    cpu_ms: f64,
}

fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.ok_or_else(|| format!("{what}: not enough samples"))
}

/// Scales the per-layer times (`ms`, `us`, `s`) and rates (`1/s`) to
/// the nominal CPU speed; sizes, counts and ratios are left alone.
fn normalize(metrics: &mut [Metric], factor: f64) {
    for m in metrics {
        match m.unit {
            "ms" | "us" | "s" => m.value *= factor,
            "1/s" => m.value /= factor,
            _ => {}
        }
    }
}

fn run_e2e<W: Workload>(ctx: &Ctx) -> Result<Outcome, String> {
    let off = Tracer::off();
    let mut cal = Calib::new(ctx.work.join("probe"), !W::SINGLE_THREADED);
    let timer = || -> Box<dyn Fn() -> Timing> {
        if W::SINGLE_THREADED {
            let t = Timer::start();
            Box::new(move || t.stop())
        } else {
            let t = Instant::now();
            Box::new(move || Timing::wall(t.elapsed().as_secs_f64() * 1e3))
        }
    };
    let mut setups = Vec::new();
    let mut setup_cold = Vec::new();
    // Where each group of latency, cold and hw-pair samples starts: a
    // group per set-up (cold samples of a daemon warm-up), then one per
    // pass. Every figure is a median over groups, so a burst of host
    // load that slows a few of them cannot move it.
    let mut cuts: [Vec<usize>; 3] = Default::default();
    let mut state: Option<W> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = state.take() {
            old.teardown()?;
        }
        cal.sample(3);
        let t = timer();
        let w = W::setup(ctx, rep, &off)?;
        setups.push(t());
        cuts[1].push(setup_cold.len());
        setup_cold.extend(w.setup_cold());
        state = Some(w);
    }
    let mut w = state.expect("at least one set-up");
    let mut s = Samples {
        cold: setup_cold,
        cal,
        ..Samples::default()
    };
    let mut windows: Vec<PassWindow> = Vec::new();
    let t0 = Instant::now();
    while windows.is_empty() || t0.elapsed().as_secs_f64() < ctx.seconds {
        s.cal.sample(3);
        for (c, len) in cuts.iter_mut().zip([s.lat.len(), s.cold.len(), s.hw.len()]) {
            c.push(len);
        }
        let (attempted, spent, spent_cpu) = (s.attempted, s.cal.spent_s(), s.cal.spent_cpu_s());
        let (t, cpu) = (Instant::now(), sys::cpu_seconds());
        w.pass(&off, &mut s)?;
        // The probes' own time is not the workload's.
        let wall_ms = (t.elapsed().as_secs_f64() - (s.cal.spent_s() - spent)) * 1e3;
        let cpu_ms = (sys::cpu_seconds() - cpu - (s.cal.spent_cpu_s() - spent_cpu)) * 1e3;
        windows.push(PassWindow {
            dumps: (s.attempted - attempted) as f64,
            window: Timing {
                wall_ms,
                cpu_ms: W::SINGLE_THREADED.then_some(cpu_ms),
                at: Instant::now(),
            },
            cpu_ms,
        });
    }
    s.cal.sample(3);
    if let Some(e) = s.cal.error() {
        return Err(e.to_string());
    }
    let store_dir = w.finish()?;
    w.check(&mut s.errors);
    println!(
        "{} passes in {:.2} s; {} latency, {} cold, {} hw-pair samples",
        windows.len(),
        t0.elapsed().as_secs_f64(),
        s.lat.len(),
        s.cold.len(),
        s.hw.len()
    );
    let cal = &s.cal;
    // Tails and throughput (`pair`) follow the operations that met
    // contention for the two cores; medians follow those that did not.
    let time = |t: Timing, scaled: bool, pair: bool| match (scaled, pair) {
        (false, _) => t.wall_ms,
        (true, false) => cal.scale(t),
        (true, true) => cal.scale_pair(t),
    };
    // A percentile of each group of samples of one kind, then their
    // median.
    let per_pass = |v: &[Timing], kind: usize, p: f64, scaled: bool, name: &str| {
        let mut cuts = cuts[kind].clone();
        cuts.push(v.len());
        let mut values = Vec::new();
        for g in cuts.windows(2).filter(|g| g[0] < g[1]) {
            let ms: Vec<f64> = v[g[0]..g[1]]
                .iter()
                .map(|t| time(*t, scaled, p > 50.0))
                .collect();
            values.push(need(stats::percentile(&ms, p), name)?);
        }
        need(stats::median(&values), name)
    };
    let metrics = |scaled: bool| -> Result<Vec<Metric>, String> {
        let over_passes = |f: &dyn Fn(&PassWindow) -> f64| {
            stats::median(&windows.iter().map(f).collect::<Vec<f64>>()).expect("one pass")
        };
        let setup: Vec<f64> = setups.iter().map(|t| time(*t, scaled, false)).collect();
        Ok(vec![
            Metric::new(
                "dumps_per_s",
                over_passes(&|pw| pw.dumps / time(pw.window, scaled, true) * 1e3),
                "1/s",
            ),
            Metric::new(
                "cpu_ms_per_dump",
                over_passes(&|pw| {
                    let f = if scaled {
                        cal.cpu_factor_at(pw.window.at)
                    } else {
                        1.0
                    };
                    pw.cpu_ms * f / pw.dumps
                }),
                "ms",
            ),
            Metric::new(
                "latency_p50_ms",
                per_pass(&s.lat, 0, 50.0, scaled, "latency_p50_ms")?,
                "ms",
            ),
            Metric::new(
                "latency_p90_ms",
                per_pass(&s.lat, 0, 90.0, scaled, "latency_p90_ms")?,
                "ms",
            ),
            Metric::new(
                "cold_p50_ms",
                per_pass(&s.cold, 1, 50.0, scaled, "cold_p50_ms")?,
                "ms",
            ),
            Metric::new(
                "hw_batch_p50_ms",
                per_pass(&s.hw, 2, 50.0, scaled, "hw_batch_p50_ms")?,
                "ms",
            ),
            Metric::new("store_kb", dir_kib(&store_dir), "KiB"),
            Metric::new(
                "setup_s",
                need(stats::median(&setup), "setup_s")? / 1e3,
                "s",
            ),
            Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MB"),
        ])
    };
    let raw = metrics(false)?;
    let metrics = metrics(true)?;
    Ok(Outcome {
        attempted: s.attempted,
        failed: s.failed,
        errors: s.errors,
        metrics,
        raw,
        cal: s.cal,
    })
}

fn run_traced<W: Workload>(ctx: &Ctx, spans_out: &Path) -> Result<Outcome, String> {
    let tracer = Tracer::on();
    let off = Tracer::off();
    let mut w = W::setup(ctx, 0, &tracer)?;
    let mut s = Samples::default();
    // Untraced and traced passes alternate; their difference is the
    // tracing overhead.
    let (mut untraced, mut traced) = (0.0, 0.0);
    let pass_tracer = Tracer::on();
    let t0 = Instant::now();
    while traced == 0.0 || t0.elapsed().as_secs_f64() < ctx.seconds {
        for (tr, total) in [(&off, &mut untraced), (&pass_tracer, &mut traced)] {
            s.cal.sample(3);
            let (t, spent) = (Instant::now(), s.cal.spent_s());
            w.pass(tr, &mut s)?;
            *total += t.elapsed().as_secs_f64() - (s.cal.spent_s() - spent);
        }
    }
    let mut metrics = vec![Metric::new(
        "tracing.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "%",
    )];
    s.cal.sample(3);
    metrics.extend(w.probe_serve(ctx, &tracer)?);
    s.cal.sample(3);
    let store_dir = w.finish()?;
    metrics.extend(layers::sweep(
        ctx,
        w.items(),
        w.config(),
        &store_dir,
        &tracer,
    )?);
    s.cal.sample(3);
    metrics.extend(layers::self_time(&tracer));
    let raw: Vec<Metric> = metrics
        .iter()
        .map(|m| Metric::new(m.name.clone(), m.value, m.unit))
        .collect();
    normalize(&mut metrics, s.cal.cpu_factor());
    w.check(&mut s.errors);
    let passes_out = spans_out.with_extension("passes.jsonl");
    for (t, path) in [(&tracer, spans_out), (&pass_tracer, passes_out.as_path())] {
        t.write_jsonl(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    Ok(Outcome {
        attempted: s.attempted,
        failed: s.failed,
        errors: s.errors,
        metrics,
        raw,
        cal: s.cal,
    })
}

struct Args {
    figure: Option<String>,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: PathBuf,
}

const USAGE: &str = "usage: res-perfbench --workload <corpus|long-suffix|serve> --seed <n> \
                     --seconds <s> --trace <0|1> [--work <dir>]\n       \
                     res-perfbench --figure <yield|depth|evictions> [--seed <n>] [--work <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut figure = None;
    let mut work = PathBuf::from(".work");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--figure" => figure = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--work" => work = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if figure.is_some() {
        return Ok(Args {
            figure,
            workload: String::new(),
            seed: seed.unwrap_or(1),
            seconds: 0,
            trace: false,
            work,
        });
    }
    Ok(Args {
        figure: None,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        work,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let label = args.figure.as_deref().unwrap_or(&args.workload);
    let run_dir = args.work.join(format!("{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("creating {}: {e}", run_dir.display());
        std::process::exit(2);
    }
    if let Some(name) = &args.figure {
        let result = figures::run(name, args.seed, &run_dir);
        let _ = std::fs::remove_dir_all(&run_dir);
        if let Err(e) = result {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        work: run_dir.clone(),
    };
    let spans_out = args.work.join(format!("spans-{}.jsonl", args.workload));
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let result = match (args.workload.as_str(), args.trace) {
        ("corpus", false) => run_e2e::<wl_corpus::Corpus>(&ctx),
        ("corpus", true) => run_traced::<wl_corpus::Corpus>(&ctx, &spans_out),
        ("long-suffix", false) => run_e2e::<wl_long::LongSuffix>(&ctx),
        ("long-suffix", true) => run_traced::<wl_long::LongSuffix>(&ctx, &spans_out),
        ("serve", false) => run_e2e::<wl_serve::Serve>(&ctx),
        ("serve", true) => run_traced::<wl_serve::Serve>(&ctx, &spans_out),
        (other, _) => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    for e in &out.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let failed: u64 = out.failed.values().sum();
    println!("attempted {} failed {failed}", out.attempted);
    for (kind, n) in &out.failed {
        println!("  failed {n}: {kind}");
    }
    let cal = &out.cal;
    println!(
        "cpu kernel {:.4} ms (nominal {}): cpu x{:.4}; fsync probe {:.4} ms (nominal {}): wait x{:.4}",
        cal.kernel_ms(),
        calib::NOMINAL_CPU_MS,
        cal.cpu_factor(),
        cal.probe_ms(),
        calib::NOMINAL_IO_MS,
        cal.io_factor()
    );
    let pair_factor = cal.pair_ms().map(|m| calib::NOMINAL_CPU_MS / m);
    if let (Some(m), Some(f)) = (cal.pair_ms(), pair_factor) {
        println!(
            "two-copy kernel {m:.4} ms (nominal {}): tails and throughput x{f:.4}",
            calib::NOMINAL_CPU_MS
        );
    }
    println!("  {:<28} {:>14} {:>14}", "metric", "scaled", "raw");
    for (m, r) in out.metrics.iter().zip(&out.raw) {
        println!(
            "  {:<28} {:>14.4} {:>14.4} {}",
            m.name, m.value, r.value, m.unit
        );
    }
    let json = |ms: &[Metric]| -> String {
        ms.iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect::<Vec<String>>()
            .join(", ")
    };
    // The unscaled figures and both factors, as JSON, on the line
    // before the result.
    println!(
        "{{\"raw\": {{{}}}, \"cpu_factor\": {}, \"pair_factor\": {}, \"io_factor\": {}}}",
        json(&out.raw),
        json_number(cal.cpu_factor()),
        json_number(pair_factor.unwrap_or(f64::NAN)),
        json_number(cal.io_factor())
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted,
        json(&out.metrics)
    );
}
