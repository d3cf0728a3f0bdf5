//! `corpus`: the §3.1 crash-report stream through the library.
//!
//! Each program sends its reports in a row through
//! `res_triage::triage`, each with the program's store file. The first
//! report finds no store (cold); the rest open, absorb and commit it
//! (warm). Every pass starts from an empty store directory, so each
//! pass repeats the same cold and warm operations. The first programs
//! of each class also get a §3.2 pair: `hw_verdict_for` on a clean
//! report and on a hardware variant of another report.

use std::path::PathBuf;

use res_core::{HwVerdict, ResConfig, ResEngine, SynthOptions};
use res_triage::{store_path_for, triage, TriageRequest, TriageResponse};
use res_workloads::gen::GenClass;

use crate::calib::Timer;
use crate::checks;
use crate::inputs::{self, Item, Spec};
use crate::spans::Tracer;
use crate::{library_pair, Ctx, Samples, Workload};

pub(crate) const SPEC: Spec = Spec {
    classes: &GenClass::ALL,
    per_class: 20,
    reports: 4,
    size: 100,
    pairs_per_class: 4,
};

pub struct Corpus {
    work: PathBuf,
    items: Vec<Item>,
    config: ResConfig,
    /// Per item, one request per report (the store path is set per pass).
    reqs: Vec<Vec<TriageRequest>>,
    /// Per item with a variant: the clean and the corrupt request.
    pairs: Vec<Option<[TriageRequest; 2]>>,
    passes: usize,
    /// First-pass answers, per item and report.
    answers: Vec<Vec<TriageResponse>>,
    /// First-pass §3.2 verdicts, per item with a pair.
    verdicts: Vec<Option<Vec<HwVerdict>>>,
}

impl Workload for Corpus {
    fn setup(ctx: &Ctx, rep: usize, tracer: &Tracer) -> Result<Self, String> {
        let items = inputs::generate(&SPEC, ctx.seed, tracer);
        for item in &items {
            for r in &item.reports {
                checks::fault_class(item.class(), r.fault_class)?;
            }
        }
        let reqs = items
            .iter()
            .map(|it| {
                it.reports
                    .iter()
                    .map(|r| TriageRequest::new(it.gp.program.clone(), r.dump.clone()))
                    .collect()
            })
            .collect();
        let pairs = items.iter().map(Item::pair).collect();
        Ok(Corpus {
            work: ctx.work.join(format!("corpus-{rep}")),
            items,
            config: ResConfig::default(),
            reqs,
            pairs,
            passes: 0,
            answers: Vec::new(),
            verdicts: Vec::new(),
        })
    }

    fn pass(&mut self, tracer: &Tracer, out: &mut Samples) -> Result<(), String> {
        let dir = self.work.join(format!("pass-{}", self.passes));
        let first = self.passes == 0;
        self.passes += 1;
        let mut op = 0u64;
        for (i, item) in self.items.iter().enumerate() {
            let path = store_path_for(&dir, &item.gp.program)
                .to_string_lossy()
                .into_owned();
            let mut answers = Vec::new();
            for (j, req) in self.reqs[i].iter_mut().enumerate() {
                req.store = Some(path.clone());
                let t = Timer::start();
                let resp = tracer.span("triage.triage", None, op, |_| triage(req, &self.config));
                let timing = t.stop();
                op += 1;
                out.attempted += 1;
                out.tick();
                // Hangs are answered from the blocked-site set in
                // microseconds; they stay out of the percentiles.
                if !resp.deadlock {
                    if j == 0 {
                        out.cold.push(timing);
                    } else {
                        out.lat.push(timing);
                    }
                }
                if first {
                    answers.push(resp);
                } else if checks::identity(&resp) != checks::identity(&self.answers[i][j]) {
                    out.errors.push(format!(
                        "{} report {j}: answer changed between passes",
                        item.class().name()
                    ));
                }
            }
            if first {
                self.answers.push(answers);
            }
            let verdicts = self.pairs[i]
                .as_ref()
                .map(|pair| library_pair(item, pair, &self.config, tracer, op, out));
            op += 1;
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

    fn finish(&mut self) -> Result<PathBuf, String> {
        Ok(self.work.join(format!("pass-{}", self.passes - 1)))
    }

    fn check(&self, errors: &mut Vec<String>) {
        for (i, item) in self.items.iter().enumerate() {
            let class = item.class();
            let answers = &self.answers[i];
            let keys: Vec<String> = answers.iter().map(|a| a.bucket_key.clone()).collect();
            let mut results = vec![checks::one_bucket(&keys)];
            for (r, warm) in item.reports.iter().zip(answers) {
                results.push(checks::root_cause(class, &warm.bucket_key));
                if item.hangs() {
                    if !warm.deadlock {
                        results.push(Err("hang dump not answered as a hang".into()));
                    }
                    continue;
                }
                // A store-less triage of the same dump is the reference
                // the stored answers must equal byte for byte.
                let plain = triage(
                    &TriageRequest::new(item.gp.program.clone(), r.dump.clone()),
                    &self.config,
                );
                results.push(checks::same_answer("stored vs store-less", warm, &plain));
                let direct = ResEngine::new(&item.gp.program, self.config.clone())
                    .synthesize_with(&r.dump, SynthOptions::new());
                results.push(checks::reports_suffixes(warm, &direct.suffixes));
                results.push(checks::replays(&item.gp.program, &r.dump, &direct.suffixes));
            }
            for e in results.into_iter().filter_map(Result::err) {
                errors.push(format!("{} program {i}: {e}", class.name()));
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
