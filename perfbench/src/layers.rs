//! The per-layer half of the traced run: spans around calls into each
//! layer's public functions, on a sample of the workload's own inputs
//! (the first programs of each class) and under the workload's config.
//! Solver, block-execution and hypothesis-generation self time happen
//! inside `synthesize_with` and cannot be seen from here; the solver's
//! counters can.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use mvm_core::Coredump;
use mvm_symbolic::session::SolverSession;
use res_core::{KernelStats, ResConfig, ResEngine, SynthOptions};
use res_serve::wire::{read_frame, write_frame};
use res_serve::{
    serve, ServeConfig, StatsRequest, TriageClient, WireRequest, WireResponse, RESPONSE_TAG,
};
use res_store::SolverStore;
use res_trace::{Encoding, TraceFile};
use res_triage::{bucket_key_for, hw_verdict_for, store_path_for, triage, TriageRequest};
use res_workloads::gen::GenClass;
use res_workloads::run_to_failure;

use crate::inputs::{self, Item};
use crate::spans::Tracer;
use crate::stats::{mean, median};
use crate::{Ctx, Metric};

/// Store files the store layer is timed on, at most.
const STORE_FILES: usize = 16;

fn sample(items: &[Item]) -> impl Iterator<Item = (usize, &Item)> {
    items
        .iter()
        .enumerate()
        .filter(|(_, it)| it.variant.is_some())
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn med(v: &[f64], what: &str) -> Result<f64, String> {
    median(v).ok_or_else(|| format!("{what}: no samples"))
}

fn avg(v: &[f64], what: &str) -> Result<f64, String> {
    mean(v).ok_or_else(|| format!("{what}: no samples"))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Starts a daemon for a workload that has none (two workers, the
/// workload's config), probes it, and stops it.
pub fn probe_temp_daemon(
    ctx: &Ctx,
    items: &[Item],
    config: &ResConfig,
    tracer: &Tracer,
) -> Result<Vec<Metric>, String> {
    let mut daemon = serve(ServeConfig {
        workers: 2,
        hot_cap: items.len() + 8,
        store_dir: Some(ctx.work.join("probe-hot")),
        config: config.clone(),
        recent_cap: 256,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("starting the probe daemon: {e}"))?;
    let metrics = {
        let mut client = TriageClient::connect(daemon.addr())
            .map_err(|e| format!("connecting to the probe daemon: {e}"))?;
        serve_probe(&mut client, items, tracer)
    };
    daemon.stop();
    metrics
}

/// The wire, `mvm-json`, daemon and trace layers, measured on one
/// connection: a `Triage` request with a replay trace and a
/// `HwFilterBatch` pair per sampled program, then the daemon's own
/// account of them through `stats_query`. Hot hits and misses are those
/// of the probe alone, so they do not grow with how many passes ran
/// before it.
pub fn serve_probe(
    client: &mut TriageClient,
    items: &[Item],
    tracer: &Tracer,
) -> Result<Vec<Metric>, String> {
    let (mut req_bytes, mut resp_bytes, mut enc, mut dec, mut frame) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut t_enc, mut b_enc, mut t_dec, mut b_dec, mut t_kb, mut b_kb) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut rtt_us: BTreeMap<String, f64> = BTreeMap::new();
    let before = client
        .stats_query(&StatsRequest {
            histograms: false,
            recent: false,
        })
        .map_err(|e| format!("stats query failed: {e}"))?;
    for (k, item) in sample(items) {
        let k = k as u64;
        tracer.span("bench.probe", None, k, |root| -> Result<(), String> {
            let req = TriageRequest::new(item.gp.program.clone(), item.reports[0].dump.clone())
                .return_trace(true);
            let wire = WireRequest::Triage(req);
            let t = Instant::now();
            let text = tracer.span("json.encode", root, k, |_| mvm_json::to_string(&wire));
            enc.push(us(t));
            req_bytes.push(text.len() as f64);
            let t = Instant::now();
            let resp = tracer
                .span("serve.rtt", root, k, |_| client.call(&wire))
                .map_err(|e| format!("probe call failed: {e}"))?;
            let rtt = us(t);
            let text = mvm_json::to_string(&resp);
            resp_bytes.push(text.len() as f64);
            let t = Instant::now();
            let back: WireResponse = tracer
                .span("json.decode", root, k, |_| mvm_json::from_str(&text))
                .map_err(|e| format!("response does not decode: {}", e.message))?;
            dec.push(us(t));
            let t = Instant::now();
            tracer
                .span(
                    "wire.frame",
                    root,
                    k,
                    |_| -> std::io::Result<Option<String>> {
                        let mut buf = Vec::new();
                        write_frame(&mut buf, RESPONSE_TAG, &text)?;
                        read_frame(&mut buf.as_slice(), RESPONSE_TAG)
                    },
                )
                .map_err(|e| format!("frame round trip: {e}"))?;
            frame.push(us(t));
            let WireResponse::Triage(t) = back else {
                return Err(format!("probe got {back:?}"));
            };
            if let Some(id) = t.req_id {
                rtt_us.insert(id, rtt);
            }
            if let Some(trace) = t.trace {
                let tt = Instant::now();
                let tf = tracer
                    .span("trace.decode_text", root, k, |_| {
                        TraceFile::from_text_bytes(trace.as_bytes())
                    })
                    .map_err(|e| format!("trace does not decode: {e:?}"))?;
                t_dec.push(us(tt));
                let tt = Instant::now();
                let text = tracer.span("trace.encode_text", root, k, |_| tf.to_text_bytes());
                t_enc.push(us(tt));
                let tt = Instant::now();
                let bin = tracer.span("trace.encode_bin", root, k, |_| {
                    tf.to_bytes(Encoding::Binary)
                });
                b_enc.push(us(tt));
                let tt = Instant::now();
                tracer
                    .span("trace.decode_bin", root, k, |_| TraceFile::from_bytes(&bin))
                    .map_err(|e| format!("binary trace does not decode: {e:?}"))?;
                b_dec.push(us(tt));
                t_kb.push(text.len() as f64 / 1024.0);
                b_kb.push(bin.len() as f64 / 1024.0);
            }
            if let Some(pair) = item.pair() {
                let pair = WireRequest::HwFilterBatch(pair.into());
                tracer
                    .span("serve.rtt_batch", root, k, |_| client.call(&pair))
                    .map_err(|e| format!("probe batch failed: {e}"))?;
            }
            Ok(())
        })?;
    }
    let stats = client
        .stats_query(&StatsRequest {
            histograms: false,
            recent: true,
        })
        .map_err(|e| format!("stats query failed: {e}"))?;
    let (mut wait, mut synth, mut total, mut overhead) = (vec![], vec![], vec![], vec![]);
    for r in &stats.recent {
        if let Some(&client_us) = rtt_us.get(&r.req_id) {
            wait.push(r.queue_wait_us as f64);
            synth.push(r.synth_us as f64);
            total.push(r.total_us as f64);
            overhead.push(client_us - r.total_us as f64);
        }
    }
    Ok(vec![
        Metric::new(
            "json.request_kb",
            avg(&req_bytes, "json.request_kb")? / 1024.0,
            "KiB",
        ),
        Metric::new(
            "json.response_kb",
            avg(&resp_bytes, "json.response_kb")? / 1024.0,
            "KiB",
        ),
        Metric::new("json.encode_us", med(&enc, "json.encode_us")?, "us"),
        Metric::new("json.decode_us", med(&dec, "json.decode_us")?, "us"),
        Metric::new("wire.frame_us", med(&frame, "wire.frame_us")?, "us"),
        Metric::new(
            "serve.queue_wait_us",
            med(&wait, "serve.queue_wait_us")?,
            "us",
        ),
        Metric::new("serve.synth_us", med(&synth, "serve.synth_us")?, "us"),
        Metric::new("serve.rtt_us", med(&total, "serve.rtt_us")?, "us"),
        Metric::new(
            "serve.client_overhead_us",
            med(&overhead, "serve.client_overhead_us")?,
            "us",
        ),
        Metric::new(
            "serve.hot_hits",
            (stats.server.hot_hits - before.server.hot_hits) as f64,
            "count",
        ),
        Metric::new(
            "serve.hot_misses",
            (stats.server.hot_misses - before.server.hot_misses) as f64,
            "count",
        ),
        Metric::new(
            "trace.encode_text_us",
            med(&t_enc, "trace.encode_text_us")?,
            "us",
        ),
        Metric::new(
            "trace.encode_bin_us",
            med(&b_enc, "trace.encode_bin_us")?,
            "us",
        ),
        Metric::new(
            "trace.decode_text_us",
            med(&t_dec, "trace.decode_text_us")?,
            "us",
        ),
        Metric::new(
            "trace.decode_bin_us",
            med(&b_dec, "trace.decode_bin_us")?,
            "us",
        ),
        Metric::new("trace.text_kb", avg(&t_kb, "trace.text_kb")?, "KiB"),
        Metric::new("trace.bin_kb", avg(&b_kb, "trace.bin_kb")?, "KiB"),
    ])
}

/// Library-side layers on the sampled programs: machine, engine,
/// search and solver counters, triage, §3.2, and the store files in
/// `store_dir`.
pub fn sweep(
    ctx: &Ctx,
    items: &[Item],
    config: &ResConfig,
    store_dir: &Path,
    tracer: &Tracer,
) -> Result<Vec<Metric>, String> {
    let (mut steps, mut run_s) = (0u64, 0.0f64);
    let mut post_synth = vec![];
    let mut kernel: Vec<KernelStats> = vec![];
    let mut warm: Vec<KernelStats> = vec![];
    let (mut suffixes, mut replayed) = (0u64, 0u64);
    let sweep_store = ctx.work.join("sweep-store");
    for (k, item) in sample(items) {
        let k = k as u64;
        let program = &item.gp.program;
        let dump: &Coredump = &item.reports[0].dump;
        tracer.span("bench.item", None, k, |root| -> Result<(), String> {
            let t = Instant::now();
            let m = tracer
                .span("machine.run_to_failure", root, k, |_| {
                    run_to_failure(program, item.gp.truth.schedule_hint)
                })
                .ok_or("the schedule hint no longer fails")?;
            run_s += t.elapsed().as_secs_f64();
            steps += Coredump::capture(&m).steps;
            let clean = TriageRequest::new(program.clone(), dump.clone());
            if !item.hangs() {
                let engine = tracer.span("engine.new", root, k, |_| {
                    ResEngine::new(program, config.clone())
                });
                let t = Instant::now();
                let result = tracer.span("search.synthesize_with", root, k, |_| {
                    engine.synthesize_with(dump, SynthOptions::new())
                });
                let synth_ms = ms(t);
                for s in &result.suffixes {
                    suffixes += 1;
                    let rep = tracer.span("machine.replay_suffix", root, k, |_| {
                        res_core::replay_suffix(program, dump, s)
                    });
                    replayed += rep.reproduced as u64;
                }
                tracer.span("triage.bucket_key_for", root, k, |_| {
                    bucket_key_for(program, dump, &result.suffixes)
                });
                kernel.push(result.stats);
                let t = Instant::now();
                tracer.span("triage.triage", root, k, |_| triage(&clean, config));
                post_synth.push(ms(t) - synth_ms);
                // A cold then a warm store-backed triage: the warm one
                // shows what the store and its certificates save.
                let mut stored = clean.clone();
                stored.store = Some(
                    store_path_for(&sweep_store, program)
                        .to_string_lossy()
                        .into_owned(),
                );
                tracer.span("triage.triage_stored", root, k, |_| triage(&stored, config));
                let w = tracer.span("triage.triage_stored", root, k, |_| triage(&stored, config));
                warm.push(w.stats);
            }
            // The hang path is the Deadlock class's: lock-inversion
            // hangs get a one-step suffix and answer like clean faults.
            let name = if item.class() == GenClass::Deadlock {
                "hwerr.hang"
            } else {
                "hwerr.clean"
            };
            tracer.span(name, root, k, |_| hw_verdict_for(&clean, config));
            if let Some([_, corrupt]) = item.pair() {
                tracer.span("hwerr.corrupt", root, k, |_| {
                    hw_verdict_for(&corrupt, config)
                });
            }
            Ok(())
        })?;
    }
    if !items.iter().any(|it| it.class() == GenClass::Deadlock) {
        // A workload without hangs still measures the §3.2 hang path,
        // on one program of the fixed-seed hang class.
        let hang = inputs::generate(&inputs::HANG_SPEC, 0, &Tracer::off()).remove(0);
        let req = TriageRequest::new(hang.gp.program.clone(), hang.reports[0].dump.clone());
        tracer.span("hwerr.hang", None, 0, |_| hw_verdict_for(&req, config));
    }
    let store = store_layer(ctx, store_dir, tracer)?;

    let n = kernel.len() as f64;
    let sum = |f: &dyn Fn(&KernelStats) -> u64| kernel.iter().map(f).sum::<u64>();
    let nodes = sum(&|s| s.nodes_expanded);
    let synth_ms = tracer.durations_ms("search.synthesize_with");
    let queries = sum(&|s| s.solver.queries);
    let mut out = vec![
        Metric::new(
            "gen.generate_ms",
            med(&tracer.durations_ms("gen.generate"), "gen.generate_ms")?,
            "ms",
        ),
        Metric::new(
            "gen.collect_failures_ms",
            med(
                &tracer.durations_ms("gen.collect_failures"),
                "gen.collect_failures_ms",
            )?,
            "ms",
        ),
        Metric::new("machine.steps_per_s", steps as f64 / run_s, "1/s"),
        Metric::new(
            "machine.replay_ms",
            med(
                &tracer.durations_ms("machine.replay_suffix"),
                "machine.replay_ms",
            )?,
            "ms",
        ),
        Metric::new(
            "engine.new_ms",
            med(&tracer.durations_ms("engine.new"), "engine.new_ms")?,
            "ms",
        ),
        Metric::new("search.synth_ms", med(&synth_ms, "search.synth_ms")?, "ms"),
        Metric::new("search.nodes", nodes as f64 / n, "count"),
        Metric::new(
            "search.hypotheses",
            sum(&|s| s.hypotheses) as f64 / n,
            "count",
        ),
        Metric::new(
            "search.us_per_node",
            synth_ms.iter().sum::<f64>() * 1e3 / nodes as f64,
            "us",
        ),
        Metric::new("search.suffixes", suffixes as f64 / n, "count"),
        Metric::new("search.replayed_ratio", ratio(replayed, suffixes), "ratio"),
        Metric::new(
            "search.skipped_subtrees",
            warm.iter().map(|s| s.skipped_subtrees).sum::<u64>() as f64 / n,
            "count",
        ),
        Metric::new("solver.queries", queries as f64 / n, "count"),
        Metric::new(
            "solver.cache_hit_ratio",
            ratio(sum(&|s| s.solver.cache_hits), queries),
            "ratio",
        ),
        Metric::new(
            "solver.store_hits",
            warm.iter().map(|s| s.solver.store_hits).sum::<u64>() as f64 / n,
            "count",
        ),
        Metric::new(
            "solver.assignments",
            sum(&|s| s.solver.assignments) as f64 / n,
            "count",
        ),
        Metric::new(
            "solver.unknown",
            sum(&|s| s.solver.unknown_budget + s.solver.unknown_incomplete) as f64 / n,
            "count",
        ),
        Metric::new(
            "triage.bucket_key_ms",
            med(
                &tracer.durations_ms("triage.bucket_key_for"),
                "triage.bucket_key_ms",
            )?,
            "ms",
        ),
        Metric::new(
            "triage.post_synth_ms",
            med(&post_synth, "triage.post_synth_ms")?,
            "ms",
        ),
    ];
    out.extend(store);
    for (metric, span) in [
        ("hwerr.clean_ms", "hwerr.clean"),
        ("hwerr.corrupt_ms", "hwerr.corrupt"),
        ("hwerr.hang_ms", "hwerr.hang"),
    ] {
        out.push(Metric::new(
            metric,
            med(&tracer.durations_ms(span), metric)?,
            "ms",
        ));
    }
    Ok(out)
}

/// `SolverStore::open`, `absorb_into` and `commit`, timed on copies of
/// the run's store files. The commit writes a copy's entries into a new
/// file, as a first commit of that much state would.
fn store_layer(ctx: &Ctx, store_dir: &Path, tracer: &Tracer) -> Result<Vec<Metric>, String> {
    let mut files: Vec<_> = std::fs::read_dir(store_dir)
        .map_err(|e| format!("reading {}: {e}", store_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "resstore"))
        .collect();
    files.sort();
    files.truncate(STORE_FILES);
    let copies = ctx.work.join("store-copies");
    std::fs::create_dir_all(&copies).map_err(|e| format!("creating {}: {e}", copies.display()))?;
    let (mut entries, mut kb) = (vec![], vec![]);
    for (k, file) in files.iter().enumerate() {
        let k = k as u64;
        let copy = copies.join(format!("{k}.resstore"));
        let bytes =
            std::fs::copy(file, &copy).map_err(|e| format!("copying {}: {e}", file.display()))?;
        let fp = SolverStore::peek_fingerprint(&copy).ok_or("store file has no fingerprint")?;
        tracer.span("bench.store", None, k, |root| -> Result<(), String> {
            let store = tracer.span("store.open", root, k, |_| SolverStore::open(&copy, fp));
            let session = SolverSession::new();
            tracer.span("store.absorb_into", root, k, |_| {
                store.absorb_into(&session)
            });
            let mut fresh = SolverStore::open(copies.join(format!("{k}.fresh.resstore")), fp);
            fresh.merge(&store.to_portable());
            tracer
                .span("store.commit", root, k, |_| fresh.commit())
                .map_err(|e| format!("commit failed: {e}"))?;
            entries.push(store.len() as f64);
            Ok(())
        })?;
        kb.push(bytes as f64 / 1024.0);
    }
    Ok(vec![
        Metric::new(
            "store.open_ms",
            med(&tracer.durations_ms("store.open"), "store.open_ms")?,
            "ms",
        ),
        Metric::new(
            "store.absorb_ms",
            med(&tracer.durations_ms("store.absorb_into"), "store.absorb_ms")?,
            "ms",
        ),
        Metric::new(
            "store.commit_ms",
            med(&tracer.durations_ms("store.commit"), "store.commit_ms")?,
            "ms",
        ),
        Metric::new("store.entries", avg(&entries, "store.entries")?, "count"),
        Metric::new("store.file_kb", avg(&kb, "store.file_kb")?, "KiB"),
    ])
}

/// The layers self time is reported for, in the order printed.
const SELF_LAYERS: [&str; 12] = [
    "gen", "machine", "engine", "search", "triage", "store", "hwerr", "json", "wire", "serve",
    "trace", "bench",
];

/// Each layer's share of the traced run's self time (set-up, probe and
/// sweep spans), in percent. `bench` is the benchmark's own time
/// between layer calls.
pub fn self_time(tracer: &Tracer) -> Vec<Metric> {
    let by_layer = tracer.self_ms_by_layer();
    let total: f64 = by_layer.values().sum();
    SELF_LAYERS
        .iter()
        .map(|l| {
            let v = by_layer.get(*l).copied().unwrap_or(0.0);
            Metric::new(format!("self.{l}_pct"), v / total * 100.0, "%")
        })
        .collect()
}
