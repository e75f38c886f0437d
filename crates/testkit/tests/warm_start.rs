//! Warm-start properties (DESIGN §15).
//!
//! The massive-N path reuses work across slots: the dual solve resumes
//! the previous slot's prices λ and step-schedule position τ. That
//! shortcut may not change *what* is computed — warm solves must land
//! where cold solves land on every perturbed channel state the
//! generator emits.

use fcr_core::dual::DualSolver;
use fcr_sim::massive::{generate_problem, perturb_problem, MassiveConfig, MassiveDriver};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Warm-started and cold-started dual solves agree within dual
    /// tolerance on perturbed channel states: after anchoring a
    /// lineage on slot 0, the perturbed slot 1 solved warm must match
    /// a from-scratch cold solve of the *same* slot problem — same
    /// feasibility, same objective up to the `O(s)`-truncation slack
    /// the polish pass leaves — while never iterating longer.
    #[test]
    fn warm_and_cold_dual_solves_agree_on_perturbed_states(
        seed in 0u64..512,
        num_fbss in 4usize..20,
        magnitude in 1e-5f64..3e-3,
    ) {
        let cfg = MassiveConfig {
            num_fbss,
            cluster_size: 3,
            ..MassiveConfig::default()
        };
        let slot0 = generate_problem(&cfg, seed);
        let mut driver = MassiveDriver::new(cfg);
        driver.solve_slot_serial(&slot0);

        let slot1 = perturb_problem(&slot0, seed ^ 0x5eed, magnitude);
        let warm = driver.solve_slot_serial(&slot1);
        prop_assert_eq!(
            (driver.state().cold_solves(), driver.state().warm_solves()),
            (1, 1)
        );

        let slot_problem = slot1.problem_for(&warm.assignment);
        let cold = DualSolver::new(cfg.dual_for(num_fbss)).solve(&slot_problem);

        prop_assert!(slot_problem.is_feasible(warm.solution.allocation(), 1e-6));
        let scale = cold.objective().abs().max(1.0);
        prop_assert!(
            (warm.solution.objective() - cold.objective()).abs() <= 1e-4 * scale,
            "warm objective {} vs cold {} at N={} magnitude={}",
            warm.solution.objective(),
            cold.objective(),
            num_fbss,
            magnitude
        );
        prop_assert!(
            warm.solution.iterations() <= cold.iterations(),
            "warm start iterated longer ({} vs {}) than cold",
            warm.solution.iterations(),
            cold.iterations()
        );
    }
}
