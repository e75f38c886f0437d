//! Churn storms through the always-on service under the standard
//! chaos corpus: seeded worker panics and execution delays must not
//! cost the service a single session or byte —
//! exact accounting, zero loss, zero double-accounting, and outputs
//! bit-identical to the batch path.
//!
//! Seeds come from `PROPTEST_SEED` when set (CI's randomized pass) so
//! the storms re-randomize per run; every assertion message carries
//! the case seed for replay.

use fcr_sim::config::SimConfig;
use fcr_sim::{Scenario, Scheme};
use fcr_testkit::faults::{install_quiet_hook, standard_cases};
use fcr_testkit::seeds::case_seed;
use fcr_testkit::serve_storm::verify_serve_under_faults;
use fcr_testkit::CI_SEED;

fn base_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(CI_SEED)
}

#[test]
fn churn_storms_preserve_accounting_and_bit_identity() {
    install_quiet_hook();
    let cfg = SimConfig {
        gops: 4,
        deadline: 4,
        num_channels: 4,
        ..SimConfig::default()
    };
    let scenario = Scenario::single_fbs(&cfg);
    let sessions = 6u64;
    let seed = case_seed("serve-churn", base_seed());

    let mut names = Vec::new();
    for case in standard_cases(seed) {
        let v = verify_serve_under_faults(&case, &cfg, &scenario, Scheme::Proposed, seed, sessions);
        assert!(
            v.report.total_injected() > 0,
            "case {} fired no faults",
            case.name
        );
        assert_eq!(
            v.admitted,
            v.completed + v.retired,
            "case {}: admissions not conserved",
            case.name
        );
        assert!(
            v.admitted > sessions,
            "case {}: churn must re-admit replacements ({} admitted)",
            case.name,
            v.admitted
        );
        assert_eq!(
            v.outputs_verified, v.completed,
            "case {}: every completed session must be verified",
            case.name
        );
        assert!(
            v.outputs_verified > 0,
            "case {}: storm completed nothing — nothing was verified",
            case.name
        );
        names.push(v.case_name);
    }
    assert_eq!(names, vec!["panic-storm", "delay-storm", "mixed-chaos"]);
}
