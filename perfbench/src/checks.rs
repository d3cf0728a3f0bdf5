//! Correctness checks. Each compares an answer against an independent
//! computation (concrete replay, a store-less or direct library call)
//! or against a property the method must have (generator ground truth,
//! one bucket per program, the depth bound). Each returns `Err` with a
//! description instead of panicking, so a run reports every violation.

use mvm_core::Coredump;
use mvm_isa::Program;
use res_core::{replay_suffix, ExecutionSuffix, HwVerdict};
use res_obs::Recorder;
use res_trace::{verify_trace, TraceFile};
use res_triage::TriageResponse;
use res_workloads::gen::GenClass;

/// The one failure the benchmark keeps: `hw_verdict_for` has no hang
/// short-circuit, unlike `triage`, so a clean hang dump goes through
/// the §3.2 relaxation sweep and comes back `HardwareSuspected`.
pub const HANG_MISFLAG: &str =
    "hang misflag: hw_verdict_for has no hang short-circuit (crates/triage/src/api.rs:377)";

/// The machine fault classes the generator's class allows.
pub fn fault_class(class: GenClass, fault: &str) -> Result<(), String> {
    if class.expected_fault_classes().contains(&fault) {
        Ok(())
    } else {
        Err(format!(
            "{} program died with {fault}, outside {:?}",
            class.name(),
            class.expected_fault_classes()
        ))
    }
}

/// The bucket-key prefix (root-cause kind) the planted class must
/// produce. Hangs are keyed by their blocked-site set.
fn root_cause_prefix(class: GenClass) -> &'static str {
    match class {
        GenClass::DataRace => "race:",
        GenClass::UseAfterFree => "uaf:",
        GenClass::DoubleFree => "dfree:",
        GenClass::Deadlock | GenClass::LockInversion => "deadlock:",
        GenClass::DivByZero => "divzero:",
        GenClass::AssertViolation => "assert:",
        GenClass::TaintedOverflow | GenClass::LocalOverflow => "overflow:",
    }
}

/// The answer's root-cause kind matches the planted class.
pub fn root_cause(class: GenClass, bucket_key: &str) -> Result<(), String> {
    let want = root_cause_prefix(class);
    if bucket_key.starts_with(want) {
        Ok(())
    } else {
        Err(format!(
            "{} dump bucketed as {bucket_key:?}, want a {want} key",
            class.name()
        ))
    }
}

/// Every report of one program lands in one bucket.
pub fn one_bucket(keys: &[String]) -> Result<(), String> {
    match keys.iter().find(|k| *k != &keys[0]) {
        None => Ok(()),
        Some(other) => Err(format!(
            "reports of one program split into buckets {:?} and {other:?}",
            keys[0]
        )),
    }
}

/// At least one suffix reproduces the dump under concrete replay.
pub fn replays(
    program: &Program,
    dump: &Coredump,
    suffixes: &[ExecutionSuffix],
) -> Result<(), String> {
    if suffixes
        .iter()
        .any(|s| replay_suffix(program, dump, s).reproduced)
    {
        Ok(())
    } else {
        Err(format!(
            "none of {} suffixes reproduces the {} dump",
            suffixes.len(),
            dump.fault.class()
        ))
    }
}

/// No suffix is longer than the search depth allows.
pub fn within_depth(suffixes: &[ExecutionSuffix], max_depth: usize) -> Result<(), String> {
    match suffixes.iter().find(|s| s.len() > max_depth) {
        None => Ok(()),
        Some(s) => Err(format!(
            "suffix of {} steps exceeds max_depth {max_depth}",
            s.len()
        )),
    }
}

/// The answer reports exactly these suffixes, byte for byte.
pub fn reports_suffixes(resp: &TriageResponse, suffixes: &[ExecutionSuffix]) -> Result<(), String> {
    let want: Vec<String> = suffixes.iter().map(|s| format!("{s:?}")).collect();
    let got: Vec<&String> = resp.suffixes.iter().map(|s| &s.bytes).collect();
    if got.len() == want.len() && got.iter().zip(&want).all(|(g, w)| *g == w) {
        Ok(())
    } else {
        Err(format!(
            "answer reports {} suffixes that differ from the {} synthesized directly",
            got.len(),
            want.len()
        ))
    }
}

/// The identity currency of a triage answer: verdict, hang flag,
/// bucket key and suffix summaries. Accounting (stats, store report,
/// request id) is excluded.
pub fn identity(resp: &TriageResponse) -> String {
    format!(
        "{:?}|{}|{}|{:?}",
        resp.verdict, resp.deadlock, resp.bucket_key, resp.suffixes
    )
}

/// `got` carries the same answer as the reference `want`.
pub fn same_answer(what: &str, got: &TriageResponse, want: &TriageResponse) -> Result<(), String> {
    if identity(got) == identity(want) {
        Ok(())
    } else {
        Err(format!(
            "{what}: answer differs from the reference (bucket {:?} vs {:?}, {} vs {} suffixes)",
            got.bucket_key,
            want.bucket_key,
            got.suffixes.len(),
            want.suffixes.len()
        ))
    }
}

/// A returned replay trace decodes and re-executes as recorded.
pub fn trace_verifies(program: &Program, text: &str) -> Result<(), String> {
    let trace = TraceFile::from_text_bytes(text.as_bytes())
        .map_err(|e| format!("returned trace does not decode: {e:?}"))?;
    let outcome = verify_trace(program, &trace, &Recorder::disabled());
    if outcome.pass {
        Ok(())
    } else {
        Err(format!(
            "returned trace fails verification: {:?}",
            outcome.divergence
        ))
    }
}

/// Classifies a §3.2 verdict on a clean (uncorrupted) dump. A clean
/// dump is a software bug; `Ok(true)` marks the named hang misflag,
/// counted as a failed operation rather than a wrong answer.
pub fn clean_verdict(hangs: bool, v: &HwVerdict) -> Result<bool, String> {
    match v {
        HwVerdict::SoftwareBug => Ok(false),
        _ if hangs => Ok(true),
        other => Err(format!(
            "clean non-hang dump judged {other:?}, want SoftwareBug"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use res_core::{HwKind, ResConfig, ResEngine};
    use res_triage::{triage, TriageRequest};
    use res_workloads::gen::{collect_failures, generate, GenSpec};

    fn failure(class: GenClass) -> (Program, Coredump) {
        let gp = generate(GenSpec::new(class, 5));
        let f = collect_failures(&gp, 1).remove(0);
        (gp.program, f.dump)
    }

    #[test]
    fn a_tampered_suffix_is_rejected() {
        let (program, dump) = failure(GenClass::DivByZero);
        let result = ResEngine::new(&program, ResConfig::default()).synthesize(&dump);
        assert!(replays(&program, &dump, &result.suffixes).is_ok());
        let mut tampered = result.suffixes.clone();
        for s in &mut tampered {
            s.steps.pop();
        }
        assert!(replays(&program, &dump, &tampered).is_err());
        assert!(replays(&program, &dump, &[]).is_err());
    }

    #[test]
    fn a_suffix_beyond_the_depth_bound_is_rejected() {
        let (program, dump) = failure(GenClass::AssertViolation);
        let result = ResEngine::new(&program, ResConfig::default()).synthesize(&dump);
        let longest = result.suffixes.iter().map(|s| s.len()).max().unwrap();
        assert!(within_depth(&result.suffixes, longest).is_ok());
        assert!(within_depth(&result.suffixes, longest - 1).is_err());
    }

    #[test]
    fn a_mismatched_root_cause_kind_is_rejected() {
        assert!(root_cause(GenClass::DivByZero, "divzero:f0:b3:i2").is_ok());
        assert!(root_cause(GenClass::DivByZero, "race:f0:b2:i1:f1:b2:i1").is_err());
        assert!(root_cause(GenClass::DataRace, "unexplained:SIGFPE|main").is_err());
        assert!(fault_class(GenClass::DoubleFree, "double-free").is_ok());
        assert!(fault_class(GenClass::DoubleFree, "use-after-free").is_err());
        assert!(one_bucket(&["a".into(), "a".into()]).is_ok());
        assert!(one_bucket(&["a".into(), "b".into()]).is_err());
    }

    #[test]
    fn a_served_answer_that_differs_from_the_direct_one_is_rejected() {
        let (program, dump) = failure(GenClass::UseAfterFree);
        let config = ResConfig::default();
        let direct = triage(&TriageRequest::new(program.clone(), dump.clone()), &config);
        let mut served = direct.clone();
        served.req_id = Some("c1.0".into());
        served.stats = Default::default();
        assert!(same_answer("served", &served, &direct).is_ok());
        served.bucket_key.push('x');
        assert!(same_answer("served", &served, &direct).is_err());
        let mut served = direct.clone();
        served.suffixes[0].replayed = !served.suffixes[0].replayed;
        assert!(same_answer("served", &served, &direct).is_err());

        let result = ResEngine::new(&program, config).synthesize(&dump);
        assert!(reports_suffixes(&direct, &result.suffixes).is_ok());
        assert!(reports_suffixes(&direct, &[]).is_err());
    }

    #[test]
    fn a_flipped_verdict_is_rejected() {
        let hw = HwVerdict::HardwareSuspected {
            kind: HwKind::Unlocalized,
            proven: true,
        };
        assert_eq!(clean_verdict(false, &HwVerdict::SoftwareBug), Ok(false));
        assert!(clean_verdict(false, &hw).is_err());
        assert!(clean_verdict(false, &HwVerdict::Inconclusive).is_err());
        // The named hang misflag is counted, not rejected.
        assert_eq!(clean_verdict(true, &hw), Ok(true));
        assert_eq!(clean_verdict(true, &HwVerdict::SoftwareBug), Ok(false));
    }

    #[test]
    fn a_damaged_trace_is_rejected() {
        let (program, dump) = failure(GenClass::DivByZero);
        let req = TriageRequest::new(program.clone(), dump).return_trace(true);
        let text = triage(&req, &ResConfig::default())
            .trace
            .expect("a reproduced suffix yields a trace");
        assert!(trace_verifies(&program, &text).is_ok());
        let cut = &text[..text.len() / 2];
        assert!(trace_verifies(&program, cut).is_err());
        let other = failure(GenClass::AssertViolation).0;
        assert!(trace_verifies(&other, &text).is_err());
    }
}
