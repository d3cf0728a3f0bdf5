//! The seeded corpus every workload runs over: generated programs, the
//! failures they die with, and §3.2 hardware variants.

use mvm_core::{Coredump, HwFlavor};
use res_triage::TriageRequest;
use res_workloads::gen::{self, GenClass, GenFailure, GeneratedProgram};

use crate::spans::Tracer;

/// Master seed of the `Deadlock` class. Every clean dump of that class
/// meets the `hw_verdict_for` hang misflag, the one failure the runs
/// keep and count. A kept failure must fall on the same inputs in every
/// run, whatever `--seed`, so these programs come from this fixed seed
/// rather than relying on every seed failing alike (all 60 scanned do).
pub const HANG_SEED: u64 = 0x4841_4e47;

/// The seven classes whose failures are faults, not hangs.
pub const NON_HANG: [GenClass; 7] = [
    GenClass::DataRace,
    GenClass::UseAfterFree,
    GenClass::DoubleFree,
    GenClass::DivByZero,
    GenClass::AssertViolation,
    GenClass::TaintedOverflow,
    GenClass::LocalOverflow,
];

/// What to generate.
pub struct Spec {
    /// Classes, interleaved round-robin in the stream.
    pub classes: &'static [GenClass],
    /// Programs per class.
    pub per_class: usize,
    /// Failures collected per program (at least 2: the hardware
    /// variant corrupts the second).
    pub reports: usize,
    /// Generator churn scale: the prefix loop before the bug grows with
    /// it, so the executions get longer while the suffixes do not.
    pub size: u32,
    /// Programs per class (the first ones) that get a hardware variant
    /// and take part in §3.2 pairs.
    pub pairs_per_class: usize,
}

/// One program of the hang class, for workloads that have none.
pub const HANG_SPEC: Spec = Spec {
    classes: &[GenClass::Deadlock],
    per_class: 1,
    reports: 2,
    size: 1,
    pairs_per_class: 0,
};

/// One generated program with its failures.
pub struct Item {
    pub gp: GeneratedProgram,
    pub reports: Vec<GenFailure>,
    /// A `RegCorrupt` hardware variant of `reports[1]`, for items that
    /// take part in §3.2 pairs.
    pub variant: Option<Coredump>,
}

impl Item {
    pub fn class(&self) -> GenClass {
        self.gp.spec.class
    }

    /// `true` when the program's failures are hangs (no faulting
    /// suffix; triage answers from the blocked-site set).
    pub fn hangs(&self) -> bool {
        self.reports[0].fault_class == "deadlock"
    }

    /// The §3.2 pair, for items that take part: a clean report and the
    /// hardware variant of another report of the same program.
    pub fn pair(&self) -> Option<[TriageRequest; 2]> {
        let v = self.variant.as_ref()?;
        Some([
            TriageRequest::new(self.gp.program.clone(), self.reports[0].dump.clone()),
            TriageRequest::new(self.gp.program.clone(), v.clone()),
        ])
    }
}

fn master_seed(seed: u64, class: GenClass) -> u64 {
    if class == GenClass::Deadlock {
        HANG_SEED
    } else {
        seed
    }
}

/// Generates the corpus for `seed`: program `i` of every class, then
/// program `i + 1`, so classes interleave the way reports from a fleet
/// would.
pub fn generate(spec: &Spec, seed: u64, tracer: &Tracer) -> Vec<Item> {
    assert!(
        spec.reports >= 2,
        "a hardware variant needs a second report"
    );
    let specs: Vec<Vec<gen::GenSpec>> = spec
        .classes
        .iter()
        .map(|&c| gen::corpus_specs(&[c], spec.per_class, master_seed(seed, c), spec.size))
        .collect();
    let mut items = Vec::with_capacity(spec.classes.len() * spec.per_class);
    for i in 0..spec.per_class {
        for class_specs in &specs {
            let gs = class_specs[i];
            let gp = tracer.time("gen.generate", || gen::generate(gs));
            let reports = tracer.time("gen.collect_failures", || {
                gen::collect_failures(&gp, spec.reports)
            });
            let variant = (i < spec.pairs_per_class).then(|| {
                tracer.time("gen.hardware_variant", || {
                    gen::hardware_variant(&gp, &reports[1], HwFlavor::RegCorrupt).0
                })
            });
            items.push(Item {
                gp,
                reports,
                variant,
            });
        }
    }
    items
}
