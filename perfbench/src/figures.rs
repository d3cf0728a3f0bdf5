//! The reference figures quoted in `README.md`, each reproduced by one
//! command: `python3 perfbench/run.py --figure <name> --seed <n>`.
//! Figures print raw wall-clock times (`yield` also scaled ones); they
//! are not gated.

use std::path::Path;
use std::time::Instant;

use res_core::{replay_suffix, ResConfig, ResEngine, SynthOptions};
use res_serve::{serve, ServeConfig, TriageClient};
use res_triage::{store_path_for, triage, TriageRequest};

use crate::calib::{Calib, Timer, Timing};
use crate::inputs::{self, Item};
use crate::spans::Tracer;
use crate::stats::median;
use crate::{wl_corpus, wl_long, wl_serve};

pub const NAMES: &str = "yield, depth, evictions";

pub fn run(name: &str, seed: u64, work: &Path) -> Result<(), String> {
    match name {
        "yield" => speculative_yield(seed, work),
        "depth" => depth(seed),
        "evictions" => evictions(seed, work),
        other => Err(format!("unknown figure {other:?}; figures: {NAMES}")),
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn p50(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

/// Cold and warm `corpus` reports, with speculative yield on (the
/// default) and off, in passes ordered ABBA ABBA, each from an empty
/// store directory. Each p50 is printed raw and at the nominal host
/// speeds (`calib.rs`), with the relative shift turning yield off gives
/// under each: a program change the scaling keeps reads the same shift
/// in both.
fn speculative_yield(seed: u64, work: &Path) -> Result<(), String> {
    let items = inputs::generate(&wl_corpus::SPEC, seed, &Tracer::off());
    let configs = [
        ("default", ResConfig::default()),
        (
            "speculative_yield(false)",
            ResConfig::builder().speculative_yield(false).build(),
        ),
    ];
    let mut cal = Calib::new(work.join("probe"), false);
    let mut times: [[Vec<Timing>; 2]; 2] = Default::default();
    for (n, c) in [0, 1, 1, 0, 0, 1, 1, 0].into_iter().enumerate() {
        cal.sample(3);
        let dir = work.join(format!("yield-{n}"));
        for item in items.iter().filter(|it| !it.hangs()) {
            let path = store_path_for(&dir, &item.gp.program);
            for (j, r) in item.reports.iter().enumerate() {
                let mut req = TriageRequest::new(item.gp.program.clone(), r.dump.clone());
                req.store = Some(path.to_string_lossy().into_owned());
                let t = Timer::start();
                triage(&req, &configs[c].1);
                times[c][(j > 0) as usize].push(t.stop());
                cal.tick();
            }
        }
        crate::remove_dir(&dir)?;
    }
    cal.sample(3);
    if let Some(e) = cal.error() {
        return Err(e.to_string());
    }
    // [config][cold, warm][raw, scaled]
    let p = |c: usize, k: usize| {
        let raw: Vec<f64> = times[c][k].iter().map(|t| t.wall_ms).collect();
        let scaled: Vec<f64> = times[c][k].iter().map(|t| cal.scale(*t)).collect();
        [p50(&raw), p50(&scaled)]
    };
    let p50s: Vec<[[f64; 2]; 2]> = (0..2).map(|c| [p(c, 0), p(c, 1)]).collect();
    for (c, (label, _)) in configs.iter().enumerate() {
        let [cold, warm] = p50s[c];
        println!(
            "{label:<26} cold p50 {:.3} ms raw, {:.3} scaled ({} reports); \
             warm p50 {:.3} ms raw, {:.3} scaled ({} reports)",
            cold[0],
            cold[1],
            times[c][0].len(),
            warm[0],
            warm[1],
            times[c][1].len()
        );
    }
    let shift = |k: usize, s: usize| (p50s[1][k][s] / p50s[0][k][s] - 1.0) * 100.0;
    println!(
        "yield off shifts cold p50 by {:+.1}% raw, {:+.1}% scaled; warm p50 by {:+.1}% raw, {:+.1}% scaled",
        shift(0, 0),
        shift(0, 1),
        shift(1, 0),
        shift(1, 1)
    );
    Ok(())
}

/// Search cost per node, solver Unknowns and replay as the depth budget
/// grows, on the `long-suffix` corpus.
fn depth(seed: u64) -> Result<(), String> {
    let items = inputs::generate(&wl_long::SPEC, seed, &Tracer::off());
    for depth in [12, 32, 64, 96] {
        let config = ResConfig::builder()
            .max_depth(depth)
            .max_suffixes(2)
            .build();
        let (mut total_ms, mut nodes, mut unknown) = (0.0, 0u64, 0u64);
        let (mut suffixes, mut replayed, mut dumps_ok) = (0u64, 0u64, 0usize);
        for item in &items {
            let dump = &item.reports[0].dump;
            let t = Instant::now();
            let r = ResEngine::new(&item.gp.program, config.clone())
                .synthesize_with(dump, SynthOptions::new());
            total_ms += ms(t);
            nodes += r.stats.nodes_expanded;
            unknown += r.stats.solver.unknown_incomplete;
            let ok: Vec<bool> = r
                .suffixes
                .iter()
                .map(|s| replay_suffix(&item.gp.program, dump, s).reproduced)
                .collect();
            suffixes += ok.len() as u64;
            replayed += ok.iter().filter(|&&b| b).count() as u64;
            dumps_ok += ok.contains(&true) as usize;
        }
        println!(
            "depth {depth:>3}: {:.3} ms/node over {nodes} nodes, {unknown} unknown_incomplete, \
             {replayed}/{suffixes} suffixes replay, {dumps_ok}/{} dumps have one that does",
            total_ms / nodes as f64,
            items.len()
        );
    }
    Ok(())
}

/// Three identical `serve` passes against a one-program hot store: each
/// client works through its own programs, so hot hits depend on how the
/// two clients' requests interleave.
fn evictions(seed: u64, work: &Path) -> Result<(), String> {
    let items: Vec<Item> = inputs::generate(&wl_serve::SPEC, seed, &Tracer::off());
    let ops = wl_serve::requests(&items);
    for run in 0..3 {
        let mut daemon = serve(ServeConfig {
            workers: 2,
            hot_cap: 1,
            store_dir: Some(work.join(format!("evictions-{run}"))),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("starting the daemon: {e}"))?;
        let mut clients = Vec::new();
        for _ in &ops {
            clients.push(
                TriageClient::connect(daemon.addr()).map_err(|e| format!("connecting: {e}"))?,
            );
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&ops)
                .map(|(c, ops)| s.spawn(|| wl_serve::drive(c, ops, &items, None, &Tracer::off())))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "client thread panicked".to_string())?
                        .map(drop)
                })
                .collect::<Result<Vec<()>, String>>()
        })?;
        let st = daemon.stats();
        println!(
            "run {run}: {} hot hits, {} misses, {} evictions",
            st.hot_hits, st.hot_misses, st.hot_evictions
        );
        drop(clients);
        daemon.stop();
    }
    Ok(())
}
