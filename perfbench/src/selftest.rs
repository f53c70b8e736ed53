//! The benchmark's self-test at the `tiny` preset: both drivers the
//! benchmark times must reproduce `Study::run` exactly, so what it
//! measures is the program's real pipeline.

use search_seizure::Study;

use crate::study;
use crate::Workload;

/// Runs the self-test; `Err` names the first disagreement. Every
/// workload's tiny plan is the same study, so one pass covers them all.
pub fn run() -> Result<(), String> {
    let cfg = &Workload::StudySmall.plan(7, 1, true).cfgs[0];
    let reference = Study::new(cfg.clone())
        .run()
        .map_err(|e| format!("Study::run: {e}"))?;
    let fingerprint = reference.run_fingerprint();
    let headline = format!("{:?}", reference.manifest.headline);
    let (untraced, _) = study::untraced(cfg, 2, |_| ())?;
    let traced = study::traced(cfg)?;
    let drivers = [
        ("untraced resume", &untraced.outcome),
        ("traced stage-by-stage", &traced.outcome),
    ];
    for (driver, outcome) in drivers {
        if outcome.fingerprint != fingerprint {
            return Err(format!(
                "{driver} run_fingerprint {:016x} != Study::run {fingerprint:016x}",
                outcome.fingerprint
            ));
        }
        if outcome.headline != headline {
            return Err(format!(
                "{driver} headline differs from Study::run\n  {}\n  {headline}",
                outcome.headline
            ));
        }
    }
    if !(untraced.checkpoint_restores && traced.checkpoint_restores) {
        return Err("checkpoint round trip lost state".into());
    }
    eprintln!("[perfbench] self-test: both drivers match Study::run ({fingerprint:016x})");
    Ok(())
}
