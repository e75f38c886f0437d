//! Experiment drivers: one function per figure of Hu & Mao
//! (ICDCS 2011), each returning the printed table as a `String` so the
//! binary, the integration tests, and the benches share one
//! implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use fcr_core::dual::{DualConfig, DualSolver, StepSchedule};
use fcr_sim::config::SimConfig;
use fcr_sim::engine::sample_slot_problem;
use fcr_sim::metrics::SchemeSummary;
use fcr_sim::scenario::Scenario;
use fcr_sim::scheme::Scheme;
use fcr_sim::session::SimSession;
use fcr_spectrum::sensing::FIG6B_OPERATING_POINTS;
use fcr_stats::rng::SeedSequence;
use fcr_stats::series::{render_csv, render_table, Series};
use std::fmt::Write as _;

/// Common knobs of all experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentOpts {
    /// Simulation runs per point (the paper uses 10).
    pub runs: u64,
    /// GOPs per run.
    pub gops: u32,
    /// Master seed.
    pub seed: u64,
    /// Render sweep figures as CSV instead of an aligned table.
    pub csv: bool,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        Self {
            runs: 10,
            gops: 20,
            seed: 20110620, // ICDCS 2011 started June 20, 2011.
            csv: false,
        }
    }
}

impl ExperimentOpts {
    fn base_config(&self) -> SimConfig {
        SimConfig {
            gops: self.gops,
            ..SimConfig::default()
        }
    }

    fn render(&self, x_label: &str, series: &[Series]) -> String {
        if self.csv {
            render_csv(x_label, series)
        } else {
            render_table(x_label, series)
        }
    }

    /// One [`SimSession`] per sweep: the template carries the run
    /// count and seed; scenario/config are superseded point by point.
    fn sweep(&self, points: &[(f64, SimConfig, Scenario)], schemes: &[Scheme]) -> Vec<Series> {
        let (_, cfg, scenario) = points.first().expect("at least one sweep point");
        SimSession::new(scenario.clone())
            .config(*cfg)
            .runs(self.runs)
            .seed(self.seed)
            .sweep(points, schemes)
    }
}

/// Fig. 3 — single FBS: per-user Y-PSNR of Bus/Mobile/Harbor under the
/// three schemes.
pub fn fig3(opts: &ExperimentOpts) -> String {
    let cfg = opts.base_config();
    let scenario = Scenario::single_fbs(&cfg);
    let session = SimSession::new(scenario)
        .config(cfg)
        .runs(opts.runs)
        .seed(opts.seed);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 3 — Single FBS: received video quality for the three CR users"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>24} {:>24} {:>24}",
        "User", "Proposed scheme", "Heuristic 1", "Heuristic 2"
    );
    let summaries: Vec<SchemeSummary> = Scheme::PAPER_TRIO
        .iter()
        .map(|s| session.run(*s).summary())
        .collect();
    let names = ["1 (Bus)", "2 (Mobile)", "3 (Harbor)"];
    for (j, name) in names.iter().enumerate() {
        let _ = write!(out, "{name:>10}");
        for s in &summaries {
            let ci = &s.per_user[j];
            let _ = write!(out, " {:>15.2} ± {:>5.2}", ci.mean(), ci.half_width());
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:>10}", "mean");
    for s in &summaries {
        let _ = write!(
            out,
            " {:>15.2} ± {:>5.2}",
            s.overall.mean(),
            s.overall.half_width()
        );
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:>10}", "Jain");
    for s in &summaries {
        let _ = write!(out, " {:>23.4}", s.jain);
    }
    let _ = writeln!(out);
    out
}

/// Fig. 4(a) — convergence of the dual variables λ0(τ), λ1(τ) on a
/// representative single-FBS slot problem (Table I with a constant
/// step, as in the paper).
pub fn fig4a(opts: &ExperimentOpts) -> String {
    let cfg = opts.base_config();
    let scenario = Scenario::single_fbs(&cfg);
    let problem = sample_slot_problem(&scenario, &cfg, &SeedSequence::new(opts.seed));
    let solver = DualSolver::new(DualConfig {
        step: StepSchedule::Constant(2e-4),
        max_iterations: 800,
        tolerance: 1e-16,
        initial_lambda: 0.1,
        record_trace: true,
    });
    let solution = solver.solve(&problem);

    let mut out = String::new();
    let _ = writeln!(out, "Fig. 4(a) — Convergence of the two dual variables");
    let _ = writeln!(out, "{:>10} {:>12} {:>12}", "iter", "lambda0", "lambda1");
    for (tau, l) in solution.trace().iter().enumerate() {
        if tau % 50 == 0 || tau + 1 == solution.trace().len() {
            let _ = writeln!(out, "{tau:>10} {:>12.6} {:>12.6}", l[0], l[1]);
        }
    }
    let _ = writeln!(
        out,
        "converged: {} after {} iterations (objective {:.6})",
        solution.converged(),
        solution.iterations(),
        solution.objective()
    );
    out
}

/// Fig. 4(b) — Y-PSNR vs. number of licensed channels `M ∈ {4..12}`,
/// single FBS.
pub fn fig4b(opts: &ExperimentOpts) -> String {
    let base = opts.base_config();
    let points: Vec<(f64, SimConfig, Scenario)> = [4usize, 6, 8, 10, 12]
        .iter()
        .map(|m| {
            let cfg = SimConfig {
                num_channels: *m,
                ..base
            };
            (*m as f64, cfg, Scenario::single_fbs(&cfg))
        })
        .collect();
    let series = opts.sweep(&points, &Scheme::PAPER_TRIO);
    format!(
        "Fig. 4(b) — Video quality vs. number of channels (single FBS)\n{}",
        opts.render("M", &series)
    )
}

/// Fig. 4(c) — Y-PSNR vs. channel utilization `η ∈ {0.3..0.7}`, single
/// FBS.
pub fn fig4c(opts: &ExperimentOpts) -> String {
    let series = utilization_sweep(opts, false);
    format!(
        "Fig. 4(c) — Video quality vs. channel utilization (single FBS)\n{}",
        opts.render("eta", &series)
    )
}

/// Fig. 6(a) — interfering FBSs: Y-PSNR vs. utilization, with the
/// upper-bound series.
pub fn fig6a(opts: &ExperimentOpts) -> String {
    let series = utilization_sweep(opts, true);
    format!(
        "Fig. 6(a) — Video quality vs. channel utilization (interfering FBSs)\n{}",
        opts.render("eta", &series)
    )
}

/// Fig. 6(b) — interfering FBSs: Y-PSNR vs. the sensing-error pairs
/// {(ε, δ)} of Section V-B.
pub fn fig6b(opts: &ExperimentOpts) -> String {
    let base = opts.base_config();
    let points: Vec<(f64, SimConfig, Scenario)> = FIG6B_OPERATING_POINTS
        .iter()
        .map(|(eps, delta)| {
            let cfg = base.with_sensing_errors(*eps, *delta);
            (*eps, cfg, Scenario::interfering_fig5(&cfg))
        })
        .collect();
    let series = opts.sweep(&points, &Scheme::WITH_BOUND);
    format!(
        "Fig. 6(b) — Video quality vs. sensing error (x = false-alarm ε; δ paired as in the paper)\n{}",
        opts.render("epsilon", &series)
    )
}

/// Fig. 6(c) — interfering FBSs: Y-PSNR vs. common-channel bandwidth
/// `B0 ∈ {0.1..0.5}` Mbps with `B1 = 0.3`.
pub fn fig6c(opts: &ExperimentOpts) -> String {
    let base = opts.base_config();
    let points: Vec<(f64, SimConfig, Scenario)> = [0.1, 0.2, 0.3, 0.4, 0.5]
        .iter()
        .map(|b0| {
            let cfg = SimConfig { b0: *b0, ..base };
            (*b0, cfg, Scenario::interfering_fig5(&cfg))
        })
        .collect();
    let series = opts.sweep(&points, &Scheme::WITH_BOUND);
    format!(
        "Fig. 6(c) — Video quality vs. common channel bandwidth (interfering FBSs)\n{}",
        opts.render("B0 (Mbps)", &series)
    )
}

/// Ablation table (not a paper figure): quantifies the design choices
/// DESIGN.md calls out — solver, sensing prior, access rule, and
/// channel-allocation layer — on the baseline scenarios.
pub fn ablation(opts: &ExperimentOpts) -> String {
    use fcr_core::exhaustive::ExhaustiveAllocator;
    use fcr_core::greedy::GreedyAllocator;
    use fcr_core::interfering::{coloring_assignment, round_robin_assignment, InterferingProblem};
    use fcr_core::waterfill::WaterfillingSolver;
    use fcr_sim::config::{AccessMode, PriorMode, SensingStrategy};
    use fcr_sim::engine::{run, TraceMode};
    use fcr_sim::metrics::RunResult;

    let mut out = String::new();
    let base = opts.base_config();
    let scenario = Scenario::single_fbs(&base);
    let seeds = SeedSequence::new(opts.seed);

    let summarize = |cfg: &SimConfig| -> (f64, f64, f64) {
        let results: Vec<RunResult> = (0..opts.runs)
            .map(|r| run(&scenario, cfg, Scheme::Proposed, &seeds, r, TraceMode::Off).result)
            .collect();
        let mean = results.iter().map(RunResult::mean_psnr).sum::<f64>() / results.len() as f64;
        let coll = results.iter().map(|r| r.collision_rate).sum::<f64>() / results.len() as f64;
        let g = results
            .iter()
            .map(|r| r.mean_expected_available)
            .sum::<f64>()
            / results.len() as f64;
        (mean, coll, g)
    };

    let _ = writeln!(out, "Ablations (proposed scheme, single-FBS baseline)");
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>12} {:>8}",
        "variant", "Y-PSNR", "collisions", "mean G"
    );
    let rows: [(&str, SimConfig); 5] = [
        ("stationary prior + eq.(7) access", base),
        (
            "belief-tracking prior",
            SimConfig {
                prior_mode: PriorMode::BeliefTracking,
                ..base
            },
        ),
        (
            "hard-threshold access",
            SimConfig {
                access_mode: AccessMode::Threshold,
                ..base
            },
        ),
        (
            "first-observation G_t",
            SimConfig {
                first_observation_only: true,
                ..base
            },
        ),
        (
            "tracking + uncertainty sensing",
            SimConfig {
                prior_mode: PriorMode::BeliefTracking,
                sensing_strategy: SensingStrategy::UncertaintyFirst,
                ..base
            },
        ),
    ];
    for (name, cfg) in rows {
        let (psnr, coll, g) = summarize(&cfg);
        let _ = writeln!(out, "{name:<34} {psnr:>10.3} {coll:>12.4} {g:>8.3}");
    }

    // Channel-allocation layer on a representative interfering slot.
    let interfering = Scenario::interfering_fig5(&base);
    let slot = {
        let p = fcr_sim::engine::sample_slot_problem(&interfering, &base, &seeds);
        // Rebuild as an interfering problem with representative weights.
        InterferingProblem::new(
            p.users().to_vec(),
            interfering.graph.clone(),
            vec![0.9, 0.8, 0.75, 0.7],
        )
        .expect("valid instance")
    };
    let solver = WaterfillingSolver::new();
    let greedy = GreedyAllocator::new().allocate(&slot);
    let optimal = ExhaustiveAllocator::new().allocate(&slot);
    let rr = round_robin_assignment(slot.graph(), slot.num_channels());
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Channel allocation on a representative interfering slot:"
    );
    let _ = writeln!(out, "{:<34} {:>12}", "allocator", "objective Q");
    let _ = writeln!(
        out,
        "{:<34} {:>12.6}",
        "greedy (Table III)",
        greedy.q_value()
    );
    let _ = writeln!(
        out,
        "{:<34} {:>12.6}",
        "exhaustive optimum",
        optimal.q_value()
    );
    let _ = writeln!(
        out,
        "{:<34} {:>12.6}",
        "round-robin split",
        slot.q_value(&rr, &solver)
    );
    let coloring = coloring_assignment(slot.graph(), slot.num_channels());
    let _ = writeln!(
        out,
        "{:<34} {:>12.6}",
        "coloring split",
        slot.q_value(&coloring, &solver)
    );
    let _ = writeln!(
        out,
        "{:<34} {:>12.6}",
        "eq.(23) upper bound",
        greedy.upper_bound()
    );
    out
}

/// Scaling study (not a paper figure): runtime and bound tightness of
/// the Table III greedy as the network grows, exercising the paper's
/// `O(N²M²)` complexity claim on random interference graphs.
pub fn scale(opts: &ExperimentOpts) -> String {
    use fcr_core::greedy::GreedyAllocator;
    use fcr_core::interfering::InterferingProblem;
    use fcr_core::problem::UserState;
    use fcr_net::interference::InterferenceGraph;
    use fcr_net::node::FbsId;
    use rand::RngExt;
    use std::time::Instant;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Greedy channel allocation scaling (random graphs, edge prob 0.4, 2 users/FBS)"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>4} {:>7} {:>8} {:>10} {:>12} {:>12}",
        "N", "M", "pairs", "steps", "D_max", "gain/eq23", "ms/alloc"
    );
    let seeds = SeedSequence::new(opts.seed);
    for n in [2usize, 4, 6, 8] {
        let m = 6usize;
        let mut rng = seeds.stream("scale", n as u64);
        // Random interference graph.
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.random_bool(0.4) {
                    edges.push((FbsId(i), FbsId(j)));
                }
            }
        }
        let graph = InterferenceGraph::new(n, &edges);
        let users: Vec<UserState> = (0..2 * n)
            .map(|k| {
                UserState::new(
                    rng.random_range(26.0..34.0),
                    FbsId(k % n),
                    0.72,
                    0.72,
                    rng.random_range(0.3..0.9),
                    rng.random_range(0.5..0.95),
                )
                .expect("valid state")
            })
            .collect();
        let weights: Vec<f64> = (0..m).map(|_| rng.random_range(0.4..0.95)).collect();
        let problem =
            InterferingProblem::new(users, graph.clone(), weights).expect("valid instance");

        let started = Instant::now();
        let outcome = GreedyAllocator::new().allocate(&problem);
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        let ratio = if outcome.upper_bound_gain() > 0.0 {
            outcome.gain() / outcome.upper_bound_gain()
        } else {
            1.0
        };
        let _ = writeln!(
            out,
            "{:>4} {:>4} {:>7} {:>8} {:>10} {:>12.4} {:>12.2}",
            n,
            m,
            n * m,
            outcome.steps().len(),
            graph.max_degree(),
            ratio,
            elapsed_ms
        );
    }
    let _ = writeln!(
        out,
        "gain/eq23 >= 1/(1+D_max) is Theorem 2's guarantee; ms/alloc grows with\n\
         the O(N^2 M^2) candidate evaluations of Table III."
    );
    out
}

/// Packet-level validation (not a paper figure): re-runs the Fig. 3
/// comparison with NAL-unit-granular delivery and prints fluid vs.
/// packet Y-PSNR per scheme — quantifying what eq. (9)'s fluid
/// abstraction hides (unit quantization, retransmissions, base-layer
/// outages) and checking that the scheme ordering survives.
pub fn packet(opts: &ExperimentOpts) -> String {
    use fcr_sim::engine::{run, TraceMode};
    use fcr_sim::packet_engine::run_packet_level;

    let cfg = opts.base_config();
    let scenario = Scenario::single_fbs(&cfg);
    let seeds = SeedSequence::new(opts.seed);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Packet-level validation (single FBS, proposed scenario)"
    );
    let _ = writeln!(
        out,
        "{:<18} {:>14} {:>15} {:>7}",
        "Scheme", "fluid Y-PSNR", "packet Y-PSNR", "gap"
    );
    for scheme in Scheme::PAPER_TRIO {
        let fluid = (0..opts.runs)
            .map(|r| {
                run(&scenario, &cfg, scheme, &seeds, r, TraceMode::Off)
                    .result
                    .mean_psnr()
            })
            .sum::<f64>()
            / opts.runs as f64;
        let pkt = (0..opts.runs)
            .map(|r| run_packet_level(&scenario, &cfg, scheme, &seeds, r).mean_psnr())
            .sum::<f64>()
            / opts.runs as f64;
        let _ = writeln!(
            out,
            "{:<18} {:>14.2} {:>15.2} {:>7.2}",
            scheme.name(),
            fluid,
            pkt,
            fluid - pkt
        );
    }
    let detail = run_packet_level(&scenario, &cfg, Scheme::Proposed, &seeds, 0);
    let _ = writeln!(
        out,
        "proposed run 0: {} units delivered, {} expired, {} retransmissions, {} base-layer outages",
        detail.delivered_units,
        detail.expired_units,
        detail.retransmissions,
        detail.base_layer_losses
    );
    out
}

/// Shared η sweep for Figs. 4(c) and 6(a).
fn utilization_sweep(opts: &ExperimentOpts, interfering: bool) -> Vec<Series> {
    let base = opts.base_config();
    let schemes: &[Scheme] = if interfering {
        &Scheme::WITH_BOUND
    } else {
        &Scheme::PAPER_TRIO
    };
    let points: Vec<(f64, SimConfig, Scenario)> = [0.3, 0.4, 0.5, 0.6, 0.7]
        .iter()
        .map(|eta| {
            let cfg = base.with_utilization(*eta);
            let scenario = if interfering {
                Scenario::interfering_fig5(&cfg)
            } else {
                Scenario::single_fbs(&cfg)
            };
            (*eta, cfg, scenario)
        })
        .collect();
    opts.sweep(&points, schemes)
}

/// Scenario-pack driver: runs every `(scheme, run)` of a declarative
/// pack in batch and prints the per-scheme summary, then (for churn
/// packs) the deterministic churn schedule digest. Everything printed
/// is a pure function of the pack — suitable for archiving.
pub fn scenario_report(pack: &fcr_scenario::Pack) -> String {
    use fcr_scenario::ChurnEventKind;

    let mut out = String::new();
    let topology = pack.topology();
    let _ = writeln!(out, "Scenario pack `{}` (seed {})", pack.name, pack.seed);
    let _ = writeln!(out, "  {}", pack.description);
    let _ = writeln!(
        out,
        "  topology: {} FBSs, {} CR users; traffic: {:?} x{} run(s)",
        topology.num_fbss(),
        topology.num_users(),
        pack.traffic.sequences,
        pack.runs,
    );

    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>8} {:>12}",
        "Scheme", "mean Y-PSNR", "Jain", "collisions"
    );
    for scheme in &pack.schemes {
        let result = pack.session().run(*scheme);
        let results = result.results();
        let psnr = results.iter().map(|r| r.mean_psnr()).sum::<f64>() / results.len().max(1) as f64;
        let jain = results.iter().filter_map(|r| r.jain_index()).sum::<f64>()
            / results.len().max(1) as f64;
        let coll =
            results.iter().map(|r| r.collision_rate).sum::<f64>() / results.len().max(1) as f64;
        let _ = writeln!(
            out,
            "{:<18} {:>12.2} {:>8.4} {:>12.4}",
            scheme.name(),
            psnr,
            jain,
            coll
        );
    }

    if pack.churn.is_some() {
        let schedule = fcr_scenario::ChurnSchedule::generate(pack);
        let mut arrive = 0u64;
        let mut retire = 0u64;
        let mut ho = [0u64; 3];
        for event in &schedule.events {
            match event.kind {
                ChurnEventKind::Arrive { .. } => arrive += 1,
                ChurnEventKind::Retire => retire += 1,
                ChurnEventKind::Handover { kind, .. } => {
                    ho[match kind {
                        fcr_serve::HandoverKind::FbsToFbs => 0,
                        fcr_serve::HandoverKind::FbsToMbs => 1,
                        fcr_serve::HandoverKind::MbsToFbs => 2,
                    }] += 1
                }
            }
        }
        let _ = writeln!(
            out,
            "churn schedule: {} sessions; {arrive} arrivals, {retire} retires, \
             handovers fbs->fbs {} fbs->mbs {} mbs->fbs {}",
            schedule.sessions, ho[0], ho[1], ho[2]
        );
        if !schedule.pu_windows.windows().is_empty() {
            let _ = writeln!(
                out,
                "pu bursts: {:?} (utilization boost {})",
                schedule.pu_windows.windows(),
                pack.churn
                    .and_then(|c| c.pu_bursts.map(|b| b.utilization_boost))
                    .unwrap_or(0.0)
            );
        }
    }
    out
}

/// Live churn replay of a pack against a real [`fcr_serve::Service`]
/// on a private two-worker pool. The conservation aggregates printed
/// here are exact; the completed/retired *split* depends on pool
/// timing, so only their sum is shown.
pub fn scenario_churn_report(pack: &fcr_scenario::Pack) -> String {
    use fcr_runtime::{Runtime, RuntimeConfig};
    use fcr_serve::{ServeConfig, Service};
    use std::sync::Arc;

    let mut out = String::new();
    let Some(churn) = pack.churn else {
        let _ = writeln!(out, "pack `{}` has no churn section", pack.name);
        return out;
    };
    let service = Service::new(
        ServeConfig {
            mbs_budget: churn.mbs_budget,
            max_sessions: churn.max_sessions as usize,
            hold_for_playout: true,
            ..ServeConfig::default()
        },
        Arc::new(Runtime::with_config(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        })),
    );
    let report = fcr_scenario::ChurnDriver::run(pack, &service);
    let snapshot = service.snapshot();
    let _ = writeln!(
        out,
        "live churn replay: {} arrivals = {} admitted + {} rejected",
        report.arrivals, report.admitted, report.rejected_admissions
    );
    let _ = writeln!(
        out,
        "  handovers: {} attempted = {} completed + {} rejected ({} on inactive sessions)",
        report.handovers_attempted,
        report.handovers_completed,
        report.handovers_rejected,
        report.handovers_inactive
    );
    let _ = writeln!(
        out,
        "  terminal: {} = completed + retired + shed; ledger {} (identity held on every step)",
        snapshot.completed + snapshot.retired + snapshot.shed,
        snapshot.mbs_in_use
    );
    assert_eq!(
        snapshot.admitted,
        snapshot.completed + snapshot.retired + snapshot.shed,
        "conservation violated"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentOpts {
        ExperimentOpts {
            runs: 2,
            gops: 2,
            seed: 7,
            csv: false,
        }
    }

    #[test]
    fn fig3_prints_all_rows() {
        let out = fig3(&tiny());
        for needle in ["Bus", "Mobile", "Harbor", "mean", "Jain", "Proposed scheme"] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }

    #[test]
    fn fig4a_prints_a_trace() {
        let out = fig4a(&tiny());
        assert!(out.contains("lambda0"));
        assert!(out.contains("converged:"));
        assert!(out.lines().count() > 5);
    }

    #[test]
    fn sweeps_have_five_points() {
        let out = fig4b(&tiny());
        // Header + 5 data rows + title.
        assert_eq!(out.lines().count(), 7, "got:\n{out}");
    }

    #[test]
    fn csv_mode_emits_csv_for_sweeps() {
        let opts = ExperimentOpts {
            csv: true,
            ..tiny()
        };
        let out = fig4b(&opts);
        assert!(
            out.contains("M,Proposed scheme mean,Proposed scheme ci95"),
            "{out}"
        );
        assert!(out.contains(','));
    }

    #[test]
    fn packet_validation_prints_all_schemes() {
        let out = packet(&tiny());
        for needle in [
            "Proposed scheme",
            "Heuristic 1",
            "Heuristic 2",
            "base-layer",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }

    #[test]
    fn scale_study_prints_all_sizes() {
        let out = scale(&tiny());
        for n in ["   2", "   4", "   6", "   8"] {
            assert!(out.contains(n), "missing N={n} row in:\n{out}");
        }
        assert!(out.contains("gain/eq23"));
    }

    #[test]
    fn ablation_table_covers_all_variants() {
        let out = ablation(&tiny());
        for needle in [
            "belief-tracking",
            "hard-threshold",
            "first-observation",
            "greedy (Table III)",
            "exhaustive optimum",
            "round-robin",
            "eq.(23)",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }

    #[test]
    fn fig6_experiments_include_the_bound() {
        let out = fig6c(&tiny());
        assert!(out.contains("Upper bound"));
        assert!(out.contains("Proposed scheme"));
    }

    #[test]
    fn scenario_report_covers_schemes_and_churn() {
        let pack = fcr_scenario::shipped::named("mobility_churn").expect("shipped pack");
        let out = scenario_report(&pack);
        for needle in ["mobility_churn", "Scheme", "churn schedule", "handovers"] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
        // Pure function of the pack: two renders agree byte-for-byte.
        assert_eq!(out, scenario_report(&pack));

        let live = scenario_churn_report(&pack);
        assert!(live.contains("live churn replay"), "got:\n{live}");
        assert!(live.contains("identity held"), "got:\n{live}");
    }
}
