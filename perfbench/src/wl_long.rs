//! `long-suffix`: the paper's "long history" request. Each dump gets a
//! fresh engine and one `ResEngine::synthesize_with` under a deep
//! budget, with no store and one thread, so search, block execution and
//! the solver take almost all the time. The seven classes whose
//! failures are faults (not hangs) run; the suffix cap keeps every
//! class a minority of the run. The first program of each class also
//! gets a §3.2 pair under the same deep config.

use std::path::PathBuf;

use res_core::{ExecutionSuffix, HwVerdict, ResConfig, ResEngine, SynthOptions};
use res_triage::{store_path_for, TriageRequest};

use crate::calib::Timer;
use crate::checks;
use crate::inputs::{self, Item, Spec, NON_HANG};
use crate::spans::Tracer;
use crate::{library_pair, Ctx, Samples, Workload};

pub(crate) const SPEC: Spec = Spec {
    classes: &NON_HANG,
    per_class: 18,
    reports: 2,
    size: 300,
    pairs_per_class: 3,
};

/// Above about depth 66 the solver starts answering
/// `unknown_incomplete` and suffixes cut at the depth limit stop
/// replaying; 64 is the deepest budget whose answers all check.
pub const MAX_DEPTH: usize = 64;
const MAX_SUFFIXES: usize = 2;

pub fn config() -> ResConfig {
    ResConfig::builder()
        .max_depth(MAX_DEPTH)
        .max_suffixes(MAX_SUFFIXES)
        .build()
}

pub struct LongSuffix {
    work: PathBuf,
    items: Vec<Item>,
    config: ResConfig,
    pairs: Vec<Option<[TriageRequest; 2]>>,
    first: bool,
    /// First-pass suffixes, per item.
    suffixes: Vec<Vec<ExecutionSuffix>>,
    verdicts: Vec<Option<Vec<HwVerdict>>>,
}

fn rendered(suffixes: &[ExecutionSuffix]) -> Vec<String> {
    suffixes.iter().map(|s| format!("{s:?}")).collect()
}

impl Workload for LongSuffix {
    fn setup(ctx: &Ctx, rep: usize, tracer: &Tracer) -> Result<Self, String> {
        let items = inputs::generate(&SPEC, ctx.seed, tracer);
        for item in &items {
            checks::fault_class(item.class(), item.reports[0].fault_class)?;
        }
        let pairs = items.iter().map(Item::pair).collect();
        Ok(LongSuffix {
            work: ctx.work.join(format!("long-{rep}")),
            items,
            config: config(),
            pairs,
            first: true,
            suffixes: Vec::new(),
            verdicts: Vec::new(),
        })
    }

    fn pass(&mut self, tracer: &Tracer, out: &mut Samples) -> Result<(), String> {
        let first = std::mem::replace(&mut self.first, false);
        for (i, item) in self.items.iter().enumerate() {
            // Request ids: the synthesis, then the item's §3.2 pair.
            let op = 2 * i as u64;
            let dump = &item.reports[0].dump;
            let t = Timer::start();
            let result = tracer.span("search.request", None, op, |parent| {
                let engine = tracer.span("engine.new", parent, op, |_| {
                    ResEngine::new(&item.gp.program, self.config.clone())
                });
                let t = Timer::start();
                let result = tracer.span("search.synthesize_with", parent, op, |_| {
                    engine.synthesize_with(dump, SynthOptions::new())
                });
                out.lat.push(t.stop());
                result
            });
            // Every synthesis here starts from an empty engine: the
            // whole operation, construction included, is the cold one.
            out.cold.push(t.stop());
            out.attempted += 1;
            out.tick();
            if first {
                self.suffixes.push(result.suffixes);
            } else if rendered(&result.suffixes) != rendered(&self.suffixes[i]) {
                out.errors.push(format!(
                    "{}: suffixes changed between passes",
                    item.class().name()
                ));
            }
            let verdicts = self.pairs[i]
                .as_ref()
                .map(|pair| library_pair(item, pair, &self.config, tracer, op + 1, out));
            if first {
                self.verdicts.push(verdicts);
            } else if verdicts != self.verdicts[i] {
                out.errors.push(format!(
                    "{}: §3.2 verdicts changed between passes",
                    item.class().name()
                ));
            }
        }
        Ok(())
    }

    /// Writes, untimed, the store files one store-backed pass of these
    /// syntheses persists: what `store_kb` and the store layer measure.
    fn finish(&mut self) -> Result<PathBuf, String> {
        let dir = self.work.join("store");
        for item in &self.items {
            let path = store_path_for(&dir, &item.gp.program);
            ResEngine::new(&item.gp.program, self.config.clone())
                .synthesize_with(&item.reports[0].dump, SynthOptions::new().cache_path(path));
        }
        Ok(dir)
    }

    fn check(&self, errors: &mut Vec<String>) {
        for (i, item) in self.items.iter().enumerate() {
            let sfx = &self.suffixes[i];
            let results = [
                checks::replays(&item.gp.program, &item.reports[0].dump, sfx),
                checks::within_depth(sfx, MAX_DEPTH),
            ];
            for e in results.into_iter().filter_map(Result::err) {
                errors.push(format!("{} program {i}: {e}", item.class().name()));
            }
        }
    }

    fn items(&self) -> &[Item] {
        &self.items
    }

    fn config(&self) -> &ResConfig {
        &self.config
    }

    fn teardown(self) -> Result<(), String> {
        crate::remove_dir(&self.work)
    }
}
