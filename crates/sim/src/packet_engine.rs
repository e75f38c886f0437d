//! Packet-level simulation mode: NAL-unit-granular delivery.
//!
//! The main engine treats video as a fluid — eq. (9) converts received
//! *rate* directly into PSNR, matching the paper's formulation. This
//! module re-runs the same slot pipeline at packet granularity:
//! every GOP is packetized into significance-ordered NAL units
//! (Section III-E's "transmitted in the decreasing order of their
//! significances, with retransmissions if necessary; overdue packets
//! will be discarded"), each slot's allocation buys a bit budget, units
//! are delivered or lost one by one, and a GOP's Y-PSNR is exactly the
//! sum of the quality its *delivered* units carry.
//!
//! Comparing [`run_packet_level`] against [`crate::engine::run`]
//! (`experiments packet` and the integration tests) quantifies
//! what the fluid abstraction hides: quantization to unit boundaries,
//! retransmission overhead, and base-layer-loss outages.
//!
//! # Plan / window / stitch
//!
//! Like the fluid engine, the packet engine is split into the serial
//! spectrum prologue (`crate::engine::plan_spectrum`, run on a
//! *normalized* config because the packet mode hardcodes the paper's
//! baseline spectrum pipeline), a GOP-aligned window stage
//! (`run_packet_window`) whose fading/loss draws come from per-GOP
//! substreams ([`fcr_spectrum::streams::gop_streams`]), and a stitcher
//! (`stitch_packet`) that merges window outputs in GOP order.
//! Transmission queues drain completely at every GOP deadline (overdue
//! units are discarded), so windows are independent given the plan and
//! any GOP-aligned partition is bit-identical to serial execution.

use crate::config::SimConfig;
use crate::engine::{plan_spectrum, realized_channels, SpectrumPlan};
use crate::scenario::Scenario;
use crate::scheme::{decide_slot, Scheme};
use fcr_core::allocation::Mode;
use fcr_core::problem::UserState;
use fcr_spectrum::streams::gop_streams;
use fcr_stats::rng::SeedSequence;
use fcr_video::packet::{Packetizer, TransmissionQueue};
use rand::rngs::StdRng;
use rand::RngExt;

/// Results of one packet-level run.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketRunResult {
    /// Mean Y-PSNR per user over completed GOPs, computed from the
    /// quality of actually-delivered NAL units (a GOP whose base layer
    /// is lost scores the concealment floor).
    pub per_user_psnr: Vec<f64>,
    /// Total NAL units delivered across users.
    pub delivered_units: u64,
    /// Total units discarded at GOP deadlines.
    pub expired_units: u64,
    /// Total failed attempts (retransmissions).
    pub retransmissions: u64,
    /// GOPs whose base layer never arrived (outage events).
    pub base_layer_losses: u64,
}

impl PacketRunResult {
    /// Mean Y-PSNR over all users.
    pub fn mean_psnr(&self) -> f64 {
        if self.per_user_psnr.is_empty() {
            return 0.0;
        }
        self.per_user_psnr.iter().sum::<f64>() / self.per_user_psnr.len() as f64
    }
}

/// Y-PSNR attributed to a GOP whose base layer was never delivered:
/// the decoder conceals with the previous GOP, which for these models
/// we score at a flat floor well below every base layer.
pub const CONCEALMENT_FLOOR_DB: f64 = 20.0;

/// Enhancement rungs per GOP by scalability flavour: MGS is NAL-unit
/// grained; FGS is (nearly) bit-grained, modeled as a much finer
/// ladder.
fn rungs_for(scalability: fcr_video::sequences::Scalability) -> u16 {
    match scalability {
        fcr_video::sequences::Scalability::Mgs => 16,
        fcr_video::sequences::Scalability::Fgs => 64,
    }
}

/// The spectrum configuration the packet engine actually runs: it
/// predates the ablation switches and hardcodes the paper's baseline
/// pipeline (stationary priors, probabilistic access, round-robin user
/// sensing, all observations fused). Normalizing the config here lets
/// it share `crate::engine::plan_spectrum` draw for draw.
fn normalized(cfg: &SimConfig) -> SimConfig {
    SimConfig {
        prior_mode: crate::config::PriorMode::Stationary,
        access_mode: crate::config::AccessMode::Probabilistic,
        sensing_strategy: crate::config::SensingStrategy::RoundRobin,
        first_observation_only: false,
        ..*cfg
    }
}

/// The serial spectrum prologue of one packet run. Callers that shard
/// a run compute this once and share it across windows.
pub(crate) fn plan_packet(
    scenario: &Scenario,
    cfg: &SimConfig,
    run_seeds: &SeedSequence,
) -> SpectrumPlan {
    plan_spectrum(scenario, &normalized(cfg), run_seeds)
}

/// The output of one GOP-aligned packet window: per-GOP scores plus
/// integer delivery statistics (integers sum associatively, so window
/// partitioning cannot perturb the stitched totals).
#[derive(Debug, Clone)]
pub(crate) struct PacketWindowOutput {
    /// First GOP (inclusive) this window covered.
    pub gop_start: u32,
    /// Completed-GOP PSNRs, `[user][gop - gop_start]`.
    pub gop_psnr: Vec<Vec<f64>>,
    /// NAL units delivered within the window.
    pub delivered_units: u64,
    /// Units discarded at the window's GOP deadlines.
    pub expired_units: u64,
    /// Failed attempts within the window.
    pub retransmissions: u64,
    /// GOPs in the window whose base layer never arrived.
    pub base_layer_losses: u64,
}

/// Runs packetized transmission for the GOP-aligned window
/// `[gop_start, gop_start + gop_count)` against a shared spectrum
/// plan. Queues start empty (they also *end* empty at every GOP
/// deadline — overdue units are discarded), and fading/loss draws come
/// from per-GOP substreams, so the output is independent of how the
/// run was partitioned into windows.
pub(crate) fn run_packet_window(
    scenario: &Scenario,
    cfg: &SimConfig,
    scheme: Scheme,
    run_seeds: &SeedSequence,
    plan: &SpectrumPlan,
    gop_start: u32,
    gop_count: u32,
) -> PacketWindowOutput {
    // Per-user packetizers and (empty) queues.
    let packetizers: Vec<Packetizer> = scenario
        .users
        .iter()
        .map(|u| {
            Packetizer::new(
                u.sequence.model_for(cfg.scalability),
                fcr_video::gop::GopConfig::new(u.sequence.gop().frames(), cfg.deadline)
                    .expect("deadline > 0"),
                u.sequence.full_rate(),
                rungs_for(cfg.scalability),
            )
            .expect("preset packetizer valid")
        })
        .collect();
    let mut queues: Vec<TransmissionQueue> = scenario
        .users
        .iter()
        .map(|_| TransmissionQueue::new())
        .collect();
    // Quality delivered toward the *current* GOP of each user.
    let mut gop_quality = vec![0.0_f64; scenario.num_users()];
    let mut base_delivered = vec![false; scenario.num_users()];
    let mut gop_psnr: Vec<Vec<f64>> =
        vec![Vec::with_capacity(gop_count as usize); scenario.num_users()];
    let mut base_layer_losses = 0u64;

    // Seconds of media per slot: a GOP (frames/30 s) spans T slots.
    let slot_seconds: Vec<f64> = scenario
        .users
        .iter()
        .map(|u| f64::from(u.sequence.gop().frames()) / 30.0 / f64::from(cfg.deadline))
        .collect();

    let t = u64::from(cfg.deadline);
    for gop in gop_start..gop_start + gop_count {
        let mut streams = gop_streams(run_seeds, u64::from(gop));
        for slot_in_gop in 0..t {
            let slot = u64::from(gop) * t + slot_in_gop;
            // New GOP boundary: enqueue this GOP's units.
            if slot_in_gop == 0 {
                for (j, q) in queues.iter_mut().enumerate() {
                    q.enqueue_gop(packetizers[j].packetize(u64::from(gop), slot));
                }
            }
            let sp = &plan.slots[slot as usize];

            // Link qualities + allocation (identical to the fluid
            // engine's window stage).
            let link_qualities: Vec<(f64, f64)> = scenario
                .users
                .iter()
                .map(|u| {
                    (
                        u.mbs_link
                            .draw_slot(&mut streams.fading)
                            .success_probability(),
                        u.fbs_link
                            .draw_slot(&mut streams.fading)
                            .success_probability(),
                    )
                })
                .collect();
            let user_states: Vec<UserState> = scenario
                .users
                .iter()
                .enumerate()
                .map(|(j, u)| {
                    let model = u.sequence.model_for(cfg.scalability);
                    // The allocator's W tracks the quality delivered so
                    // far this GOP on top of the concealment floor.
                    let w = CONCEALMENT_FLOOR_DB + gop_quality[j];
                    UserState::new(
                        w,
                        u.fbs,
                        model.slot_increment(cfg.b0_rate(), cfg.deadline).db(),
                        model.slot_increment(cfg.b1_rate(), cfg.deadline).db(),
                        link_qualities[j].0,
                        link_qualities[j].1,
                    )
                    .expect("engine-built state valid")
                })
                .collect();
            let weights: Vec<f64> = sp.available.iter().map(|(_, w)| *w).collect();
            let decision = decide_slot(
                scheme,
                &user_states,
                &scenario.graph,
                &weights,
                sp.expected_available,
            );

            // Realized idle channels per FBS, from the shared plan.
            let realized = realized_channels(scenario, sp, &decision.assignment);

            // Transmission: spend each user's bit budget on queued
            // units. Unit delivery and GOP scoring are the packet
            // engine's "video credit" phase.
            let video_span = fcr_telemetry::Span::enter(fcr_telemetry::Phase::VideoCredit);
            for (j, u) in scenario.users.iter().enumerate() {
                let a = decision.allocation.user(j);
                if a.rho() <= 0.0 {
                    continue;
                }
                let (success_p, rate_mbps) = match a.mode {
                    Mode::Mbs => (link_qualities[j].0, a.rho_mbs * cfg.b0),
                    Mode::Fbs => (link_qualities[j].1, a.rho_fbs * realized[u.fbs.0] * cfg.b1),
                };
                let mut budget_bits = rate_mbps * 1e6 * slot_seconds[j];
                while let Some(head) = queues[j].head().copied() {
                    // Charge at least one bit per attempt so a
                    // pathological zero-size unit cannot spin the loop
                    // forever.
                    let cost = (head.size_bits.max(1)) as f64;
                    if budget_bits < cost {
                        break;
                    }
                    budget_bits -= cost;
                    let ok = success_bernoulli(&mut streams.loss, success_p);
                    if queues[j].attempt(ok).is_some() {
                        if head.is_base_layer() {
                            base_delivered[j] = true;
                        }
                        gop_quality[j] += head.psnr_gain.db();
                    }
                }
            }

            // GOP deadline: score and reset. Overdue units are expired
            // here, so queues are empty at every window boundary.
            if slot_in_gop + 1 == t {
                for j in 0..scenario.num_users() {
                    let psnr = if base_delivered[j] {
                        gop_quality[j]
                    } else {
                        base_layer_losses += 1;
                        CONCEALMENT_FLOOR_DB
                    };
                    gop_psnr[j].push(psnr);
                    gop_quality[j] = 0.0;
                    base_delivered[j] = false;
                    queues[j].expire(slot + 1);
                }
            }
            drop(video_span);
        }
    }

    let stats = queues.iter().map(TransmissionQueue::stats);
    let (mut delivered, mut expired, mut retrans) = (0, 0, 0);
    for s in stats {
        delivered += s.delivered;
        expired += s.expired;
        retrans += s.retransmissions;
    }
    PacketWindowOutput {
        gop_start,
        gop_psnr,
        delivered_units: delivered,
        expired_units: expired,
        retransmissions: retrans,
        base_layer_losses,
    }
}

/// Merges packet window outputs (any GOP-aligned partition of the run)
/// into the final [`PacketRunResult`]. Per-user PSNRs are accumulated
/// one GOP at a time in GOP order — the same float summation order for
/// every partition — and the delivery statistics are integer sums.
pub(crate) fn stitch_packet(
    mut windows: Vec<PacketWindowOutput>,
    num_users: usize,
) -> PacketRunResult {
    windows.sort_by_key(|w| w.gop_start);
    let mut per_user_sum = vec![0.0_f64; num_users];
    let mut per_user_gops = vec![0u64; num_users];
    let (mut delivered, mut expired, mut retrans, mut base_losses) = (0u64, 0u64, 0u64, 0u64);
    for w in windows {
        for (j, history) in w.gop_psnr.iter().enumerate() {
            for db in history {
                per_user_sum[j] += db;
            }
            per_user_gops[j] += history.len() as u64;
        }
        delivered += w.delivered_units;
        expired += w.expired_units;
        retrans += w.retransmissions;
        base_losses += w.base_layer_losses;
    }
    let per_user_psnr = per_user_sum
        .iter()
        .zip(&per_user_gops)
        .map(|(sum, n)| if *n == 0 { 0.0 } else { sum / *n as f64 })
        .collect();
    PacketRunResult {
        per_user_psnr,
        delivered_units: delivered,
        expired_units: expired,
        retransmissions: retrans,
        base_layer_losses: base_losses,
    }
}

/// Runs one packet-level simulation. Sensing, fusion, access, fading,
/// and the allocation scheme are identical to the fluid engine; only
/// the transmission phase differs (bit budgets and unit-by-unit
/// delivery instead of fractional PSNR credits).
///
/// This is the serial reference for sharded packet execution: a
/// sharded run is the same `plan_packet` → `run_packet_window` →
/// `stitch_packet` pipeline with more than one window.
///
/// # Panics
///
/// Panics on invalid configuration (see [`crate::engine::run`]).
pub fn run_packet_level(
    scenario: &Scenario,
    cfg: &SimConfig,
    scheme: Scheme,
    seeds: &SeedSequence,
    run_index: u64,
) -> PacketRunResult {
    let run_seeds = seeds.child("packet-run", run_index);
    let plan = plan_packet(scenario, cfg, &run_seeds);
    let window = run_packet_window(scenario, cfg, scheme, &run_seeds, &plan, 0, cfg.gops);
    stitch_packet(vec![window], scenario.num_users())
}

fn success_bernoulli(rng: &mut StdRng, p: f64) -> bool {
    rng.random_bool(p.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, TraceMode};

    fn cfg(gops: u32) -> SimConfig {
        SimConfig {
            gops,
            ..SimConfig::default()
        }
    }

    #[test]
    fn packet_run_is_deterministic_and_sane() {
        let cfg = cfg(5);
        let scenario = Scenario::single_fbs(&cfg);
        let seeds = SeedSequence::new(5);
        let a = run_packet_level(&scenario, &cfg, Scheme::Proposed, &seeds, 0);
        let b = run_packet_level(&scenario, &cfg, Scheme::Proposed, &seeds, 0);
        assert_eq!(a, b);
        assert_eq!(a.per_user_psnr.len(), 3);
        for (j, p) in a.per_user_psnr.iter().enumerate() {
            let cap = scenario.users[j].sequence.max_psnr().db();
            assert!(
                (CONCEALMENT_FLOOR_DB..=cap + 1e-9).contains(p),
                "user {j}: {p} outside [{CONCEALMENT_FLOOR_DB}, {cap}]"
            );
        }
        assert!(a.delivered_units > 0, "something must get through");
    }

    #[test]
    fn unit_accounting_balances() {
        let cfg = cfg(5);
        let scenario = Scenario::single_fbs(&cfg);
        let r = run_packet_level(&scenario, &cfg, Scheme::Proposed, &SeedSequence::new(6), 0);
        // Every packetized unit is delivered, expired, or still queued
        // (the last GOP expires at the final boundary, so queues are
        // empty); total = gops × (rungs + 1) × users.
        let total = u64::from(cfg.gops) * u64::from(rungs_for(cfg.scalability) + 1) * 3;
        assert_eq!(r.delivered_units + r.expired_units, total);
    }

    #[test]
    fn gop_windows_stitch_bit_identical_to_serial() {
        // The packet-engine core of the sharding guarantee: any
        // GOP-aligned partition stitches to byte-for-byte the serial
        // PacketRunResult.
        let cfg = cfg(5);
        let scenario = Scenario::single_fbs(&cfg);
        let seeds = SeedSequence::new(41);
        let serial = run_packet_level(&scenario, &cfg, Scheme::Proposed, &seeds, 0);
        let run_seeds = seeds.child("packet-run", 0);
        let plan = plan_packet(&scenario, &cfg, &run_seeds);
        for window_gops in [1u32, 2, 3] {
            let mut windows = Vec::new();
            let mut start = 0;
            while start < cfg.gops {
                let count = window_gops.min(cfg.gops - start);
                windows.push(run_packet_window(
                    &scenario,
                    &cfg,
                    Scheme::Proposed,
                    &run_seeds,
                    &plan,
                    start,
                    count,
                ));
                start += count;
            }
            let stitched = stitch_packet(windows, scenario.num_users());
            assert_eq!(serial, stitched, "window size {window_gops}");
        }
    }

    #[test]
    fn packet_psnr_tracks_the_fluid_model() {
        // The fluid abstraction should be within a couple of dB of the
        // packet-level ground truth on the baseline scenario.
        let cfg = cfg(10);
        let scenario = Scenario::single_fbs(&cfg);
        let seeds = SeedSequence::new(7);
        let mean_fluid = (0..3)
            .map(|r| {
                run(&scenario, &cfg, Scheme::Proposed, &seeds, r, TraceMode::Off)
                    .result
                    .mean_psnr()
            })
            .sum::<f64>()
            / 3.0;
        let mean_packet = (0..3)
            .map(|r| run_packet_level(&scenario, &cfg, Scheme::Proposed, &seeds, r).mean_psnr())
            .sum::<f64>()
            / 3.0;
        let gap = (mean_fluid - mean_packet).abs();
        assert!(
            gap < 4.0,
            "fluid {mean_fluid} vs packet {mean_packet}: gap {gap} dB too large"
        );
    }

    #[test]
    fn scheme_ordering_survives_packetization() {
        let cfg = cfg(10);
        let scenario = Scenario::single_fbs(&cfg);
        let seeds = SeedSequence::new(8);
        let mean = |scheme| {
            (0..3)
                .map(|r| run_packet_level(&scenario, &cfg, scheme, &seeds, r).mean_psnr())
                .sum::<f64>()
                / 3.0
        };
        let proposed = mean(Scheme::Proposed);
        let h1 = mean(Scheme::Heuristic1);
        assert!(
            proposed > h1 - 0.2,
            "packetization should preserve the ordering: {proposed} vs {h1}"
        );
    }

    #[test]
    fn starved_links_lose_base_layers() {
        // Nearly-dead links: most GOPs never deliver the base layer and
        // score the concealment floor.
        let cfg = SimConfig {
            gops: 5,
            mean_sinr_mbs: 0.5,
            mean_sinr_fbs: 0.5,
            ..SimConfig::default()
        };
        let scenario = Scenario::single_fbs(&cfg);
        let r = run_packet_level(&scenario, &cfg, Scheme::Proposed, &SeedSequence::new(9), 0);
        assert!(
            r.base_layer_losses > 0,
            "terrible links must lose base layers"
        );
        assert!(r.mean_psnr() < 30.0);
    }
}
