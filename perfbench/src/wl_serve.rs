//! `serve`: the `res-serve` daemon under two closed-loop clients.
//!
//! The daemon runs in this process with two workers and a hot store
//! large enough for the whole working set, so eviction order cannot
//! depend on how the clients interleave. Each client owns half of the
//! programs and sends, per program, a `Triage` request per report
//! (every fourth asks for a replay trace) and, for the first programs
//! of each class, a `HwFilterBatch` pair: a clean report plus a
//! hardware variant of another report. An untimed warm-up pass fills
//! the hot store; its time counts in `setup_s`, and its first request
//! per program is the cold sample.

use std::path::PathBuf;
use std::time::Instant;

use res_core::{HwVerdict, ResConfig};
use res_serve::{serve, ServeConfig, ServerHandle, TriageClient, WireRequest, WireResponse};
use res_triage::{hw_verdict_for, triage, TriageRequest, TriageResponse};
use res_workloads::gen::GenClass;

use crate::calib::Timing;
use crate::checks;
use crate::inputs::{self, Item, Spec};
use crate::spans::Tracer;
use crate::{layers, Ctx, Metric, Samples, Workload};

pub(crate) const SPEC: Spec = Spec {
    classes: &GenClass::ALL,
    per_class: 12,
    reports: 4,
    size: 100,
    pairs_per_class: 3,
};

/// Client connections, one thread each.
const CLIENTS: usize = 2;
/// Daemon worker threads.
const WORKERS: usize = 2;

#[derive(Clone, Copy)]
enum Kind {
    Triage { report: usize },
    Pair,
}

pub(crate) struct Op {
    item: usize,
    kind: Kind,
    wire: WireRequest,
}

#[derive(Clone, PartialEq)]
pub(crate) enum Answer {
    /// Identity currency and replay trace of a triage answer.
    Triage(String, Option<String>),
    Pair(Vec<HwVerdict>),
}

pub struct Serve {
    work: PathBuf,
    items: Vec<Item>,
    config: ResConfig,
    daemon: Option<ServerHandle>,
    clients: Vec<TriageClient>,
    /// Per client, its operations in order.
    ops: Vec<Vec<Op>>,
    /// Per client, the warm-up (first) answer of each operation.
    answers: Vec<Vec<Answer>>,
    /// Full warm-up triage answers, for the checks.
    responses: Vec<Vec<Option<TriageResponse>>>,
    cold: Vec<Timing>,
    setup_errors: Vec<String>,
}

pub(crate) fn requests(items: &[Item]) -> Vec<Vec<Op>> {
    let mut ops: Vec<Vec<Op>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    let mut triages = 0usize;
    for (i, item) in items.iter().enumerate() {
        let list = &mut ops[i % CLIENTS];
        for (j, r) in item.reports.iter().enumerate() {
            triages += 1;
            let req = TriageRequest::new(item.gp.program.clone(), r.dump.clone())
                .return_trace(triages.is_multiple_of(4));
            list.push(Op {
                item: i,
                kind: Kind::Triage { report: j },
                wire: WireRequest::Triage(req),
            });
        }
        if let Some(pair) = item.pair() {
            list.push(Op {
                item: i,
                kind: Kind::Pair,
                wire: WireRequest::HwFilterBatch(pair.into()),
            });
        }
    }
    ops
}

/// What one client saw in one pass.
#[derive(Default)]
pub(crate) struct Drive {
    samples: Samples,
    answers: Vec<Answer>,
    responses: Vec<Option<TriageResponse>>,
}

/// Runs one client's operations in order (a closed loop). On the
/// warm-up pass (`first` is `None`) the answers are kept; afterwards
/// each answer must equal the warm-up one.
pub(crate) fn drive(
    client: &mut TriageClient,
    ops: &[Op],
    items: &[Item],
    first: Option<&[Answer]>,
    tracer: &Tracer,
) -> Result<Drive, String> {
    let mut d = Drive::default();
    let out = &mut d.samples;
    for (k, op) in ops.iter().enumerate() {
        let item = &items[op.item];
        let t = Instant::now();
        let resp = tracer
            .span("serve.call", None, k as u64, |_| client.call(&op.wire))
            .map_err(|e| format!("daemon call failed: {e}"))?;
        let timing = Timing::wall(t.elapsed().as_secs_f64() * 1e3);
        let answer = match (op.kind, resp) {
            (Kind::Triage { report }, WireResponse::Triage(t)) => {
                out.attempted += 1;
                if !t.deadlock {
                    match first {
                        None if report == 0 => out.cold.push(timing),
                        None => {}
                        Some(_) => out.lat.push(timing),
                    }
                }
                let a = Answer::Triage(checks::identity(&t), t.trace.clone());
                if first.is_none() {
                    d.responses.push(Some(t));
                }
                a
            }
            (Kind::Pair, WireResponse::HwFilterBatch(vs)) => {
                out.attempted += vs.len() as u64;
                if first.is_some() {
                    out.hw.push(timing);
                }
                match vs.first().map(|v| checks::clean_verdict(item.hangs(), v)) {
                    Some(Ok(true)) => out.fail(checks::HANG_MISFLAG),
                    Some(Ok(false)) => {}
                    Some(Err(e)) => out.errors.push(format!("{}: {e}", item.class().name())),
                    None => out.errors.push("empty HwFilterBatch answer".into()),
                }
                if first.is_none() {
                    d.responses.push(None);
                }
                Answer::Pair(vs)
            }
            (_, other) => return Err(format!("unexpected daemon answer: {other:?}")),
        };
        match first {
            None => d.answers.push(answer),
            Some(f) if f[k] != answer => out.errors.push(format!(
                "{}: served answer changed after warm-up",
                item.class().name()
            )),
            Some(_) => {}
        }
    }
    Ok(d)
}

impl Serve {
    /// One pass of both clients, each on its own thread.
    fn run_clients(&mut self, warm_up: bool, tracer: &Tracer) -> Result<Vec<Drive>, String> {
        let items = &self.items;
        let answers = &self.answers;
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.ops)
                .enumerate()
                .map(|(c, (client, ops))| {
                    let first = (!warm_up).then(|| answers[c].as_slice());
                    s.spawn(move || drive(client, ops, items, first, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
                .collect()
        })
    }

    fn stop(&mut self) {
        // Open connections block the daemon's shutdown join.
        self.clients.clear();
        if let Some(mut d) = self.daemon.take() {
            d.stop();
        }
    }
}

impl Workload for Serve {
    fn setup(ctx: &Ctx, rep: usize, tracer: &Tracer) -> Result<Self, String> {
        let items = inputs::generate(&SPEC, ctx.seed, tracer);
        for item in &items {
            for r in &item.reports {
                checks::fault_class(item.class(), r.fault_class)?;
            }
        }
        let work = ctx.work.join(format!("serve-{rep}"));
        let config = ResConfig::default();
        let daemon = tracer
            .time("serve.start", || {
                serve(ServeConfig {
                    workers: WORKERS,
                    hot_cap: items.len() + 8,
                    store_dir: Some(work.join("hot")),
                    config: config.clone(),
                    recent_cap: 256,
                    ..ServeConfig::default()
                })
            })
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let clients = (0..CLIENTS)
            .map(|_| TriageClient::connect(daemon.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connecting: {e}"))?;
        let ops = requests(&items);
        let mut w = Serve {
            work,
            items,
            config,
            daemon: Some(daemon),
            clients,
            ops,
            answers: Vec::new(),
            responses: Vec::new(),
            cold: Vec::new(),
            setup_errors: Vec::new(),
        };
        for d in w.run_clients(true, tracer)? {
            w.cold.extend(d.samples.cold);
            w.setup_errors.extend(d.samples.errors);
            w.answers.push(d.answers);
            w.responses.push(d.responses);
        }
        Ok(w)
    }

    const SINGLE_THREADED: bool = false;

    fn setup_cold(&self) -> Vec<Timing> {
        self.cold.clone()
    }

    fn pass(&mut self, tracer: &Tracer, out: &mut Samples) -> Result<(), String> {
        for d in self.run_clients(false, tracer)? {
            out.absorb(d.samples);
        }
        Ok(())
    }

    fn probe_serve(&mut self, _ctx: &Ctx, tracer: &Tracer) -> Result<Vec<Metric>, String> {
        layers::serve_probe(&mut self.clients[0], &self.items, tracer)
    }

    fn finish(&mut self) -> Result<PathBuf, String> {
        self.stop();
        Ok(self.work.join("hot"))
    }

    fn check(&self, errors: &mut Vec<String>) {
        errors.extend(self.setup_errors.iter().cloned());
        for (c, ops) in self.ops.iter().enumerate() {
            for (k, op) in ops.iter().enumerate() {
                let item = &self.items[op.item];
                let class = item.class();
                let results = match (&op.wire, &self.responses[c][k], &self.answers[c][k]) {
                    (WireRequest::Triage(req), Some(served), _) => {
                        let direct = triage(req, &self.config);
                        let mut r = vec![
                            checks::same_answer("served vs direct", served, &direct),
                            checks::root_cause(class, &served.bucket_key),
                        ];
                        if served.trace != direct.trace {
                            r.push(Err("served trace differs from the direct one".into()));
                        }
                        if let Some(text) = &served.trace {
                            r.push(checks::trace_verifies(&req.program, text));
                        }
                        r
                    }
                    (WireRequest::HwFilterBatch(reqs), None, Answer::Pair(served)) => {
                        let direct: Vec<HwVerdict> = reqs
                            .iter()
                            .map(|r| hw_verdict_for(r, &self.config))
                            .collect();
                        if *served == direct {
                            vec![]
                        } else {
                            vec![Err(format!(
                                "served §3.2 verdicts {served:?} differ from direct {direct:?}"
                            ))]
                        }
                    }
                    _ => vec![Err("answer kind does not match the request".into())],
                };
                for e in results.into_iter().filter_map(Result::err) {
                    errors.push(format!("{} program {}: {e}", class.name(), op.item));
                }
            }
        }
    }

    fn items(&self) -> &[Item] {
        &self.items
    }

    fn config(&self) -> &ResConfig {
        &self.config
    }

    fn teardown(mut self) -> Result<(), String> {
        self.stop();
        crate::remove_dir(&self.work)
    }
}
