//! Session churn: the deterministic schedule a pack's arrival,
//! holding, mobility, and primary-user processes imply, plus the live
//! driver that replays it against an `fcr-serve` [`Service`].
//!
//! The split matters for conformance. [`ChurnSchedule::generate`] is a
//! **pure function of the pack** — golden traces render it byte-stably
//! and property suites interrogate it without ever starting a worker
//! pool. [`ChurnDriver::run`] then replays the same schedule against a
//! live service, where outcomes (admissions, handover completions)
//! additionally depend on the budget — but every transition still runs
//! under the service's extended accounting identity, asserted
//! internally on each admit/handover/retire/step.

use crate::arrivals::{rate_at, sample_poisson, PuBurstWindows};
use crate::mobility::MobilityModel;
use crate::pack::Pack;
use fcr_net::node::FbsId;
use fcr_serve::{AdmitOutcome, HandoverKind, HandoverOutcome, Service, SessionId, SessionSpec};
use fcr_sim::Scenario;
use fcr_stats::rng::SeedSequence;
use rand::RngExt;
use std::collections::HashMap;
use std::sync::Arc;

/// What happens to one session at one slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnEventKind {
    /// The session arrives and requests admission.
    Arrive {
        /// Whether a primary-user burst is active at the arrival slot
        /// (the session then models boosted channel utilization).
        during_pu_burst: bool,
    },
    /// The session's walker changed serving cell.
    Handover {
        /// The serve-side transition kind.
        kind: HandoverKind,
        /// Previous serving femtocell (`None` = MBS).
        from: Option<FbsId>,
        /// New serving femtocell (`None` = MBS).
        to: Option<FbsId>,
        /// Multiplier on the session's base demand for the new cell
        /// (1 for macro transitions — the driver derives the macro
        /// demand from the link budget instead).
        demand_factor: f64,
    },
    /// The session's holding time expires.
    Retire,
}

/// One scheduled churn event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// Slot the event fires at.
    pub slot: u64,
    /// The session it applies to (arrival order, from 0).
    pub ordinal: u64,
    /// What happens.
    pub kind: ChurnEventKind,
}

/// The full deterministic churn schedule of a pack.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSchedule {
    /// All events, slot-ordered; within a slot: retires, then
    /// arrivals, then handovers, each in ascending ordinal order.
    pub events: Vec<ChurnEvent>,
    /// Arrivals drawn at each slot (length = the churn horizon).
    pub arrivals_per_slot: Vec<u64>,
    /// The pack's primary-user burst windows.
    pub pu_windows: PuBurstWindows,
    /// Total sessions over the horizon.
    pub sessions: u64,
}

impl ChurnSchedule {
    /// Generates the schedule implied by `pack` — a pure function of
    /// the pack (same pack, same bytes, forever). Packs without a
    /// `churn` section get an empty schedule.
    pub fn generate(pack: &Pack) -> ChurnSchedule {
        let Some(churn) = pack.churn else {
            return ChurnSchedule {
                events: Vec::new(),
                arrivals_per_slot: Vec::new(),
                pu_windows: PuBurstWindows::none(),
                sessions: 0,
            };
        };
        let seq = SeedSequence::new(pack.seed);
        let pu_windows = match &churn.pu_bursts {
            Some(spec) => PuBurstWindows::generate(spec, churn.slots, pack.seed),
            None => PuBurstWindows::none(),
        };
        let mobility = pack
            .mobility
            .map(|spec| MobilityModel::new(pack.topology(), spec));
        let mut arrival_rng = seq.stream("arrivals", 0);
        let mut hold_rng = seq.stream("hold", 0);
        let mut factor_rng = seq.stream("handover_factor", 0);

        let mut events = Vec::new();
        let mut arrivals_per_slot = Vec::with_capacity(churn.slots as usize);
        // (ordinal, retire_slot, walker) for live sessions.
        let mut active: Vec<(u64, u64, Option<crate::mobility::Walker>)> = Vec::new();
        let mut next_ordinal = 0u64;
        for slot in 0..churn.slots {
            // 1. Retirements due this slot (holding time expired).
            active.retain_mut(|(ordinal, retire_slot, _)| {
                if *retire_slot == slot {
                    events.push(ChurnEvent {
                        slot,
                        ordinal: *ordinal,
                        kind: ChurnEventKind::Retire,
                    });
                    false
                } else {
                    true
                }
            });
            // 2. Arrivals.
            let count = sample_poisson(&mut arrival_rng, rate_at(&churn.arrivals, slot));
            arrivals_per_slot.push(count);
            for _ in 0..count {
                let ordinal = next_ordinal;
                next_ordinal += 1;
                events.push(ChurnEvent {
                    slot,
                    ordinal,
                    kind: ChurnEventKind::Arrive {
                        during_pu_burst: pu_windows.active(slot),
                    },
                });
                // Geometric holding time with the configured mean,
                // at least one slot.
                let u: f64 = hold_rng.random::<f64>().max(1e-12);
                let p = (1.0 / churn.mean_hold_slots.max(1.0)).clamp(1e-9, 1.0);
                let hold = (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u64;
                let walker = mobility.as_ref().map(|m| m.spawn(pack.seed, ordinal));
                active.push((ordinal, slot + hold, walker));
            }
            // 3. Walks and the handovers they trigger.
            if let Some(model) = &mobility {
                for (ordinal, _, walker) in active.iter_mut() {
                    let Some(w) = walker else { continue };
                    if let Some(h) = model.step(w) {
                        let kind = h.kind();
                        let demand_factor = if kind == HandoverKind::FbsToFbs {
                            // A different femtocell serves a slightly
                            // different link: scale the claim ±15%.
                            0.85 + 0.3 * factor_rng.random::<f64>()
                        } else {
                            1.0
                        };
                        events.push(ChurnEvent {
                            slot,
                            ordinal: *ordinal,
                            kind: ChurnEventKind::Handover {
                                kind,
                                from: h.from,
                                to: h.to,
                                demand_factor,
                            },
                        });
                    }
                }
            }
        }
        // Close out sessions still holding at the horizon so every
        // arrival has exactly one matching retire.
        for (ordinal, _, _) in active {
            events.push(ChurnEvent {
                slot: churn.slots,
                ordinal,
                kind: ChurnEventKind::Retire,
            });
        }
        ChurnSchedule {
            events,
            arrivals_per_slot,
            pu_windows,
            sessions: next_ordinal,
        }
    }
}

/// Outcome counters from replaying a schedule against a live service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// Sessions that arrived.
    pub arrivals: u64,
    /// Sessions the budget admitted.
    pub admitted: u64,
    /// Sessions the budget (or watermark) rejected.
    pub rejected_admissions: u64,
    /// Handover events issued to the service.
    pub handovers_attempted: u64,
    /// Handovers the service completed.
    pub handovers_completed: u64,
    /// Handovers the service rejected (over budget or wrong cell).
    pub handovers_rejected: u64,
    /// Handover events skipped because the session had already
    /// completed or was never admitted.
    pub handovers_inactive: u64,
    /// Sessions retired by holding-time expiry.
    pub retired: u64,
    /// Sessions that ran to completion under the service.
    pub completed: u64,
}

/// Replays a pack's churn schedule against a live [`Service`].
#[derive(Debug)]
pub struct ChurnDriver;

impl ChurnDriver {
    /// The session spec for `ordinal` under `pack`, with channel
    /// utilization boosted if the session arrives inside a
    /// primary-user burst (clamped to what the Markov chain's `p10`
    /// can express).
    pub fn spec_for(
        pack: &Pack,
        scenario: &Arc<Scenario>,
        ordinal: u64,
        during_pu_burst: bool,
    ) -> SessionSpec {
        let mut spec = pack.session_spec(scenario, ordinal);
        if during_pu_burst {
            if let Some(boost) = pack
                .churn
                .and_then(|c| c.pu_bursts)
                .map(|b| b.utilization_boost)
            {
                let cfg = spec.config;
                let eta0 = cfg.p01 / (cfg.p01 + cfg.p10);
                // p01 = η·p10/(1−η) must stay ≤ 1 ⇒ η ≤ 1/(1+p10).
                let eta_max = 1.0 / (1.0 + cfg.p10) - 1e-6;
                let eta = (eta0 + boost).min(eta_max);
                if eta > eta0 {
                    spec.config = cfg.with_utilization(eta);
                }
            }
        }
        spec
    }

    /// The demand a handover re-requests: macro fallback re-estimates
    /// the claim over the *macro* link budget; femto-to-femto scales
    /// the base claim by the scheduled factor.
    pub fn handover_demand(
        pack: &Pack,
        scenario: &Arc<Scenario>,
        ordinal: u64,
        kind: HandoverKind,
        demand_factor: f64,
    ) -> f64 {
        let spec = pack.session_spec(scenario, ordinal);
        match kind {
            HandoverKind::FbsToMbs => {
                // Served by the MBS: the femto link no longer exists;
                // every user's share prices at the macro SINR.
                let mut macro_spec = spec;
                macro_spec.config.mean_sinr_fbs = macro_spec.config.mean_sinr_mbs;
                Service::estimate_demand(&macro_spec)
            }
            HandoverKind::FbsToFbs => Service::estimate_demand(&spec) * demand_factor,
            HandoverKind::MbsToFbs => Service::estimate_demand(&spec),
        }
    }

    /// Replays `pack`'s schedule against `service`: admissions,
    /// handovers, retirements, one [`Service::step`] per slot, then a
    /// drain and a quiesce. The replay runs in lockstep: after each
    /// step, the drain's included, it waits for the windows the step
    /// dispatched ([`Service::wait_for_windows`]), so a handover finds
    /// its session active or not, and the report's counts and the
    /// service's step count come out, the same on any pool. The
    /// service's extended accounting identity is asserted internally
    /// on every one of these transitions. Completed sessions' outputs
    /// stay buffered for [`Service::take_completed`].
    pub fn run(pack: &Pack, service: &Service) -> ChurnReport {
        let completed_before = service.snapshot().completed;
        let schedule = ChurnSchedule::generate(pack);
        let scenario = Arc::new(pack.scenario());
        let mut report = ChurnReport::default();
        let mut ids: HashMap<u64, SessionId> = HashMap::new();
        let slots = pack.churn.map(|c| c.slots).unwrap_or(0);
        let mut cursor = 0usize;
        for slot in 0..=slots {
            while cursor < schedule.events.len() && schedule.events[cursor].slot == slot {
                let event = schedule.events[cursor];
                cursor += 1;
                match event.kind {
                    ChurnEventKind::Arrive { during_pu_burst } => {
                        report.arrivals += 1;
                        let spec = Self::spec_for(pack, &scenario, event.ordinal, during_pu_burst);
                        match service.admit(spec) {
                            AdmitOutcome::Admitted(id) => {
                                report.admitted += 1;
                                ids.insert(event.ordinal, id);
                            }
                            AdmitOutcome::Rejected(_) => report.rejected_admissions += 1,
                        }
                    }
                    ChurnEventKind::Handover {
                        kind,
                        demand_factor,
                        ..
                    } => {
                        let Some(&id) = ids.get(&event.ordinal) else {
                            report.handovers_inactive += 1;
                            continue;
                        };
                        let demand = Self::handover_demand(
                            pack,
                            &scenario,
                            event.ordinal,
                            kind,
                            demand_factor,
                        );
                        report.handovers_attempted += 1;
                        match service.handover(id, demand, kind) {
                            HandoverOutcome::Completed { .. } => report.handovers_completed += 1,
                            HandoverOutcome::Rejected(_) => report.handovers_rejected += 1,
                            HandoverOutcome::NotActive => {
                                report.handovers_attempted -= 1;
                                report.handovers_inactive += 1;
                            }
                        }
                    }
                    ChurnEventKind::Retire => {
                        if let Some(id) = ids.remove(&event.ordinal) {
                            if service.retire(id) {
                                report.retired += 1;
                            }
                        }
                    }
                }
            }
            service.step();
            service.wait_for_windows();
        }
        // Drain in lockstep too, until no window is queued or running;
        // the quiesce then only steps through sessions held for their
        // playout, and fails loudly on a stuck one.
        while service.step().pending > 0 {
            service.wait_for_windows();
        }
        service.quiesce();
        report.completed = service.snapshot().completed - completed_before;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{ArrivalSpec, ChurnSpec, MobilitySpec, PuBurstSpec, TopologySpec};

    fn churn_pack() -> Pack {
        let mut pack = Pack::generate(3);
        pack.topology = TopologySpec::PaperFig5 { users_per_fbs: 2 };
        pack.mobility = Some(MobilitySpec {
            step_m: 6.0,
            hysteresis_m: 2.0,
        });
        pack.churn = Some(ChurnSpec {
            slots: 30,
            arrivals: ArrivalSpec::Poisson { rate_per_slot: 0.8 },
            mean_hold_slots: 10.0,
            mbs_budget: 4.0,
            max_sessions: 32,
            pu_bursts: Some(PuBurstSpec {
                bursts: 2,
                mean_duration_slots: 5.0,
                utilization_boost: 0.1,
            }),
        });
        pack.validate().expect("valid churn pack");
        pack
    }

    #[test]
    fn schedules_are_pure_functions_of_the_pack() {
        let pack = churn_pack();
        let a = ChurnSchedule::generate(&pack);
        let b = ChurnSchedule::generate(&pack);
        assert_eq!(a, b);
        assert!(a.sessions > 0, "rate 0.8 over 30 slots must arrive someone");
        let mut other = pack.clone();
        other.seed ^= 1;
        assert_ne!(ChurnSchedule::generate(&other), a);
    }

    #[test]
    fn every_arrival_has_exactly_one_retire_after_it() {
        let pack = churn_pack();
        let schedule = ChurnSchedule::generate(&pack);
        let mut arrive: HashMap<u64, u64> = HashMap::new();
        let mut retire: HashMap<u64, u64> = HashMap::new();
        for e in &schedule.events {
            match e.kind {
                ChurnEventKind::Arrive { .. } => {
                    assert!(arrive.insert(e.ordinal, e.slot).is_none(), "double arrival");
                }
                ChurnEventKind::Retire => {
                    assert!(retire.insert(e.ordinal, e.slot).is_none(), "double retire");
                }
                ChurnEventKind::Handover { .. } => {}
            }
        }
        assert_eq!(arrive.len() as u64, schedule.sessions);
        assert_eq!(retire.len(), arrive.len(), "sessions conserved");
        for (ordinal, at) in &arrive {
            assert!(retire[ordinal] > *at, "retire strictly after arrival");
        }
    }

    #[test]
    fn handovers_only_fire_while_their_session_lives() {
        let pack = churn_pack();
        let schedule = ChurnSchedule::generate(&pack);
        let mut arrive: HashMap<u64, u64> = HashMap::new();
        let mut retire: HashMap<u64, u64> = HashMap::new();
        for e in &schedule.events {
            match e.kind {
                ChurnEventKind::Arrive { .. } => drop(arrive.insert(e.ordinal, e.slot)),
                ChurnEventKind::Retire => drop(retire.insert(e.ordinal, e.slot)),
                ChurnEventKind::Handover { .. } => {}
            }
        }
        let mut saw_handover = false;
        for e in &schedule.events {
            match e.kind {
                ChurnEventKind::Arrive { .. } | ChurnEventKind::Retire => {}
                ChurnEventKind::Handover {
                    kind,
                    from,
                    to,
                    demand_factor,
                } => {
                    saw_handover = true;
                    assert!(e.slot >= arrive[&e.ordinal], "handover before arrival");
                    assert!(e.slot < retire[&e.ordinal], "handover after retire");
                    match kind {
                        HandoverKind::FbsToFbs => {
                            assert!(from.is_some() && to.is_some());
                            assert!((0.85..=1.15).contains(&demand_factor));
                        }
                        HandoverKind::FbsToMbs => {
                            assert!(from.is_some() && to.is_none());
                            assert_eq!(demand_factor, 1.0);
                        }
                        HandoverKind::MbsToFbs => {
                            assert!(from.is_none() && to.is_some());
                            assert_eq!(demand_factor, 1.0);
                        }
                    }
                }
            }
        }
        assert!(
            saw_handover,
            "a 6 m walk in 28 m fig-5 cells over 30 slots must hand over"
        );
    }

    #[test]
    fn events_are_slot_ordered_with_retires_before_arrivals() {
        let pack = churn_pack();
        let schedule = ChurnSchedule::generate(&pack);
        let rank = |k: &ChurnEventKind| match k {
            ChurnEventKind::Retire => 0,
            ChurnEventKind::Arrive { .. } => 1,
            ChurnEventKind::Handover { .. } => 2,
        };
        for pair in schedule.events.windows(2) {
            assert!(
                (pair[0].slot, rank(&pair[0].kind)) <= (pair[1].slot, rank(&pair[1].kind)),
                "events out of order: {pair:?}"
            );
        }
    }

    #[test]
    fn pu_burst_arrivals_model_boosted_utilization() {
        let pack = churn_pack();
        let scenario = Arc::new(pack.scenario());
        let plain = ChurnDriver::spec_for(&pack, &scenario, 0, false);
        let boosted = ChurnDriver::spec_for(&pack, &scenario, 0, true);
        let eta = |c: &fcr_sim::SimConfig| c.p01 / (c.p01 + c.p10);
        assert!(
            eta(&boosted.config) > eta(&plain.config),
            "burst admission must see higher utilization"
        );
        assert_eq!(plain.seed, boosted.seed, "the boost never touches seeding");
    }

    #[test]
    fn macro_fallback_demand_prices_at_the_macro_link() {
        let pack = churn_pack();
        let scenario = Arc::new(pack.scenario());
        let base = Service::estimate_demand(&pack.session_spec(&scenario, 0));
        let macro_demand =
            ChurnDriver::handover_demand(&pack, &scenario, 0, HandoverKind::FbsToMbs, 1.0);
        assert!(
            macro_demand >= base,
            "macro link is never better than femto here: {macro_demand} < {base}"
        );
        let scaled = ChurnDriver::handover_demand(&pack, &scenario, 0, HandoverKind::FbsToFbs, 0.9);
        assert!((scaled - base * 0.9).abs() < 1e-12);
    }
}
