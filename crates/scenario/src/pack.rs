//! The scenario-pack schema: parse, validate, render, generate.
//!
//! A pack is one JSON document describing everything a workload needs:
//! topology, channel/sensing statistics, traffic mix, schemes, seeds,
//! and optionally a mobility model and a churn process.
//! Parsing uses the workspace's no-serde recursive-descent reader
//! ([`fcr_telemetry::json::Json`]); every parse or validation failure
//! is a [`PackError`] naming the dotted path of the offending field.
//!
//! [`Pack::to_json`] is the *canonical* rendering: 2-space indent,
//! fields in schema order, shortest round-trip float formatting. Every
//! shipped pack under `scenarios/` is stored in canonical form, so
//! `parse → to_json` reproduces the file byte for byte — the same
//! discipline the golden traces follow.

use crate::error::PackError;
use fcr_sim::config::{AccessMode, PriorMode, SensingStrategy, SimConfig};
use fcr_sim::Scheme;
use fcr_stats::rng::SeedSequence;
use fcr_telemetry::json::Json;
use fcr_video::sequences::Scalability;
use fcr_video::sequences::Sequence;
use rand::RngExt;

/// Current pack schema version; bumped on breaking schema changes.
pub const PACK_SCHEMA_VERSION: u32 = 1;

/// Largest integer a pack file can carry exactly (JSON numbers are
/// doubles): seeds above this cannot round-trip and are rejected.
pub const JSON_SAFE_MAX: u64 = (1 << 53) - 1;

/// The deployment geometry a pack simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// Scenario A: one FBS, `users` CR users, hand-set link SINRs —
    /// bit-identical to [`fcr_sim::Scenario::single_fbs_with_users`].
    SingleFbs {
        /// Number of CR users on the FBS.
        users: u64,
    },
    /// The paper's Fig. 1 network (4 FBSs, only 2–3 overlap),
    /// bit-identical to [`fcr_sim::Scenario::fig1`] at 3 users/FBS
    /// with the paper trio.
    PaperFig1 {
        /// Users per FBS.
        users_per_fbs: u64,
    },
    /// The paper's Fig. 5 path graph (3 FBSs, 1–2 and 2–3 overlap),
    /// bit-identical to [`fcr_sim::Scenario::interfering_fig5`].
    PaperFig5 {
        /// Users per FBS.
        users_per_fbs: u64,
    },
    /// Seeded uniform deployment in a square (geometric SINRs via the
    /// radio link budget). The placement derives from the pack seed.
    Random {
        /// Number of femtocells.
        fbss: u64,
        /// Users placed inside each femtocell's disk.
        users_per_fbs: u64,
        /// Side of the deployment square in meters.
        side: f64,
        /// Coverage radius of every femtocell in meters.
        coverage: f64,
    },
    /// Fully explicit geometry: MBS position, femtocell disks, user
    /// positions (geometric SINRs via the radio link budget).
    Geometric {
        /// MBS position `[x, y]` in meters.
        mbs: (f64, f64),
        /// The femtocell disks.
        fbss: Vec<GeoFbs>,
        /// User positions `[x, y]` in meters.
        users: Vec<(f64, f64)>,
    },
}

/// One explicit femtocell disk in a [`TopologySpec::Geometric`] pack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoFbs {
    /// Center `[x, y]` in meters.
    pub pos: (f64, f64),
    /// Coverage radius in meters.
    pub radius: f64,
}

/// Per-field overrides of [`SimConfig::default`]; only fields present
/// in the pack are overridden, and only present fields render.
#[derive(Debug, Clone, Default, PartialEq)]
#[allow(missing_docs)]
pub struct ChannelSpec {
    pub num_channels: Option<u64>,
    pub p01: Option<f64>,
    pub p10: Option<f64>,
    pub gamma: Option<f64>,
    pub epsilon: Option<f64>,
    pub delta: Option<f64>,
    pub b0: Option<f64>,
    pub b1: Option<f64>,
    pub deadline: Option<u64>,
    pub gops: Option<u64>,
    pub mean_sinr_mbs: Option<f64>,
    pub mean_sinr_fbs: Option<f64>,
    pub sinr_threshold: Option<f64>,
    pub shadowing_sigma_db: Option<f64>,
    pub first_observation_only: Option<bool>,
    pub prior_mode: Option<PriorMode>,
    pub access_mode: Option<AccessMode>,
    pub sensing_strategy: Option<SensingStrategy>,
    pub scalability: Option<Scalability>,
    pub nakagami_m: Option<f64>,
}

impl ChannelSpec {
    /// The pack's [`SimConfig`]: defaults with this spec's overrides
    /// applied. Sharding policy is *not* part of the pack — it is an
    /// execution choice, and results are bit-identical under every
    /// policy anyway.
    pub fn apply(&self) -> SimConfig {
        let mut cfg = SimConfig::default();
        if let Some(v) = self.num_channels {
            cfg.num_channels = v as usize;
        }
        if let Some(v) = self.p01 {
            cfg.p01 = v;
        }
        if let Some(v) = self.p10 {
            cfg.p10 = v;
        }
        if let Some(v) = self.gamma {
            cfg.gamma = v;
        }
        if let Some(v) = self.epsilon {
            cfg.epsilon = v;
        }
        if let Some(v) = self.delta {
            cfg.delta = v;
        }
        if let Some(v) = self.b0 {
            cfg.b0 = v;
        }
        if let Some(v) = self.b1 {
            cfg.b1 = v;
        }
        if let Some(v) = self.deadline {
            cfg.deadline = v as u32;
        }
        if let Some(v) = self.gops {
            cfg.gops = v as u32;
        }
        if let Some(v) = self.mean_sinr_mbs {
            cfg.mean_sinr_mbs = v;
        }
        if let Some(v) = self.mean_sinr_fbs {
            cfg.mean_sinr_fbs = v;
        }
        if let Some(v) = self.sinr_threshold {
            cfg.sinr_threshold = v;
        }
        if let Some(v) = self.shadowing_sigma_db {
            cfg.shadowing_sigma_db = v;
        }
        if let Some(v) = self.first_observation_only {
            cfg.first_observation_only = v;
        }
        if let Some(v) = self.prior_mode {
            cfg.prior_mode = v;
        }
        if let Some(v) = self.access_mode {
            cfg.access_mode = v;
        }
        if let Some(v) = self.sensing_strategy {
            cfg.sensing_strategy = v;
        }
        if let Some(v) = self.scalability {
            cfg.scalability = v;
        }
        if let Some(v) = self.nakagami_m {
            cfg.nakagami_m = v;
        }
        cfg
    }
}

/// The traffic mix: which sequences stream, and how much serve-side
/// work each session carries.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Video sequences, cycled over users (per FBS for the uniform
    /// topologies, globally for geometric ones).
    pub sequences: Vec<Sequence>,
    /// Required base runs per served session (≥ 1).
    pub base_runs: u64,
    /// Droppable enhancement runs per served session.
    pub enhancement_runs: u64,
}

/// The mobility model: users walk a seeded random path; serving-cell
/// changes become handovers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilitySpec {
    /// Walk step per slot in meters.
    pub step_m: f64,
    /// Handover hysteresis in meters: a femto-served user stays on its
    /// cell until it exits the coverage radius *plus* this margin, and
    /// a macro-served user re-enters femto service only once inside
    /// the radius *minus* it — the standard ping-pong suppression.
    pub hysteresis_m: f64,
}

/// The session arrival process driving churn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Memoryless arrivals at a constant rate.
    Poisson {
        /// Mean arrivals per slot.
        rate_per_slot: f64,
    },
    /// A sinusoidal diurnal load curve between `base_rate` and
    /// `peak_rate` with the given period.
    Diurnal {
        /// Off-peak mean arrivals per slot.
        base_rate: f64,
        /// Peak mean arrivals per slot.
        peak_rate: f64,
        /// Full day length in slots.
        period_slots: u64,
    },
    /// Constant base load with one flash-crowd burst.
    FlashCrowd {
        /// Mean arrivals per slot outside the burst.
        base_rate: f64,
        /// Mean arrivals per slot during the burst.
        burst_rate: f64,
        /// Slot the burst starts at.
        burst_start: u64,
        /// Burst length in slots.
        burst_slots: u64,
    },
}

/// Correlated primary-user bursts: windows of elevated licensed-channel
/// utilization. Sessions admitted during a burst carry the boosted
/// utilization in their channel model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PuBurstSpec {
    /// Number of bursts over the churn horizon (placed by the seed).
    pub bursts: u64,
    /// Mean burst duration in slots (geometric).
    pub mean_duration_slots: f64,
    /// Additive utilization boost `Δη` during a burst, clamped so the
    /// boosted utilization stays below 1.
    pub utilization_boost: f64,
}

/// The session-churn process a pack drives through `fcr-serve`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Churn horizon in slots.
    pub slots: u64,
    /// The arrival process.
    pub arrivals: ArrivalSpec,
    /// Mean session holding time in slots (geometric); sessions still
    /// active when it expires are retired.
    pub mean_hold_slots: f64,
    /// The eq.-(12) MBS admission budget.
    pub mbs_budget: f64,
    /// Concurrency watermark.
    pub max_sessions: u64,
    /// Optional correlated primary-user bursts.
    pub pu_bursts: Option<PuBurstSpec>,
}

/// One parsed scenario pack. See the module docs for the format and
/// `docs/scenario_format.md` for every field.
#[derive(Debug, Clone, PartialEq)]
pub struct Pack {
    /// Pack name (used for golden-trace file names; `[a-z0-9_]+`).
    pub name: String,
    /// Human description.
    pub description: String,
    /// Master seed every derived stream forks from.
    pub seed: u64,
    /// Simulation runs per scheme for the batch path.
    pub runs: u64,
    /// Schemes the batch path scores.
    pub schemes: Vec<Scheme>,
    /// The deployment geometry.
    pub topology: TopologySpec,
    /// Channel/sensing overrides over [`SimConfig::default`].
    pub channel: ChannelSpec,
    /// The traffic mix.
    pub traffic: TrafficSpec,
    /// Optional mobility/handover model.
    pub mobility: Option<MobilitySpec>,
    /// Optional churn process.
    pub churn: Option<ChurnSpec>,
}

// ---------------------------------------------------------------------
// Token maps (canonical lowercase spellings used in pack files).
// ---------------------------------------------------------------------

fn sequence_token(s: Sequence) -> &'static str {
    match s {
        Sequence::Bus => "bus",
        Sequence::Mobile => "mobile",
        Sequence::Harbor => "harbor",
        Sequence::Foreman => "foreman",
        Sequence::Coastguard => "coastguard",
        Sequence::News => "news",
    }
}

fn sequence_from(tok: &str, path: &str) -> Result<Sequence, PackError> {
    Sequence::ALL
        .iter()
        .copied()
        .find(|s| sequence_token(*s) == tok)
        .ok_or_else(|| {
            PackError::at(
                path,
                format!("unknown sequence {tok:?} (expected one of bus, mobile, harbor, foreman, coastguard, news)"),
            )
        })
}

fn scheme_token(s: Scheme) -> &'static str {
    match s {
        Scheme::Proposed => "proposed",
        Scheme::Heuristic1 => "heuristic1",
        Scheme::Heuristic2 => "heuristic2",
        Scheme::UpperBound => "upper_bound",
    }
}

fn scheme_from(tok: &str, path: &str) -> Result<Scheme, PackError> {
    Scheme::WITH_BOUND
        .iter()
        .copied()
        .find(|s| scheme_token(*s) == tok)
        .ok_or_else(|| {
            PackError::at(
                path,
                format!("unknown scheme {tok:?} (expected one of proposed, heuristic1, heuristic2, upper_bound)"),
            )
        })
}

fn enum_from<T: Copy>(
    tok: &str,
    table: &[(&str, T)],
    what: &str,
    path: &str,
) -> Result<T, PackError> {
    table
        .iter()
        .find(|(name, _)| *name == tok)
        .map(|(_, v)| *v)
        .ok_or_else(|| {
            let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            PackError::at(
                path,
                format!(
                    "unknown {what} {tok:?} (expected one of {})",
                    names.join(", ")
                ),
            )
        })
}

const PRIOR_MODES: &[(&str, PriorMode)] = &[
    ("stationary", PriorMode::Stationary),
    ("belief_tracking", PriorMode::BeliefTracking),
];
const ACCESS_MODES: &[(&str, AccessMode)] = &[
    ("probabilistic", AccessMode::Probabilistic),
    ("threshold", AccessMode::Threshold),
];
const SENSING_STRATEGIES: &[(&str, SensingStrategy)] = &[
    ("round_robin", SensingStrategy::RoundRobin),
    ("uncertainty_first", SensingStrategy::UncertaintyFirst),
];
const SCALABILITIES: &[(&str, Scalability)] =
    &[("mgs", Scalability::Mgs), ("fgs", Scalability::Fgs)];

fn token_of<T: Copy + PartialEq>(v: T, table: &[(&'static str, T)]) -> &'static str {
    table
        .iter()
        .find(|(_, t)| *t == v)
        .map(|(n, _)| *n)
        .expect("every enum variant has a token")
}

// ---------------------------------------------------------------------
// Path-tracked readers over the generic Json tree.
// ---------------------------------------------------------------------

fn as_obj<'a>(v: &'a Json, path: &str) -> Result<&'a [(String, Json)], PackError> {
    v.fields()
        .ok_or_else(|| PackError::at(path, "expected an object"))
}

fn as_arr<'a>(v: &'a Json, path: &str) -> Result<&'a [Json], PackError> {
    v.items()
        .ok_or_else(|| PackError::at(path, "expected an array"))
}

fn as_str<'a>(v: &'a Json, path: &str) -> Result<&'a str, PackError> {
    v.as_str()
        .ok_or_else(|| PackError::at(path, "expected a string"))
}

fn as_f64(v: &Json, path: &str) -> Result<f64, PackError> {
    v.as_f64()
        .ok_or_else(|| PackError::at(path, "expected a number"))
}

fn as_u64(v: &Json, path: &str) -> Result<u64, PackError> {
    v.as_u64()
        .ok_or_else(|| PackError::at(path, "expected a non-negative integer"))
}

fn as_bool(v: &Json, path: &str) -> Result<bool, PackError> {
    v.as_bool()
        .ok_or_else(|| PackError::at(path, "expected true or false"))
}

fn req<'a>(fields: &'a [(String, Json)], key: &str, path: &str) -> Result<&'a Json, PackError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| PackError::at(join(path, key), "missing required field"))
}

fn opt<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn reject_unknown(
    fields: &[(String, Json)],
    allowed: &[&str],
    path: &str,
) -> Result<(), PackError> {
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return Err(PackError::at(
                join(path, k),
                format!("unknown field (expected one of {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn point(v: &Json, path: &str) -> Result<(f64, f64), PackError> {
    let items = as_arr(v, path)?;
    if items.len() != 2 {
        return Err(PackError::at(path, "expected a [x, y] pair"));
    }
    Ok((
        as_f64(&items[0], &format!("{path}[0]"))?,
        as_f64(&items[1], &format!("{path}[1]"))?,
    ))
}

// ---------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------

impl Pack {
    /// Parses and validates a pack document. Every failure names the
    /// offending field path.
    pub fn from_json(text: &str) -> Result<Pack, PackError> {
        let doc = Json::parse(text).map_err(|e| PackError::at("", format!("invalid JSON: {e}")))?;
        let pack = Self::from_value(&doc)?;
        pack.validate()?;
        Ok(pack)
    }

    /// Parses the pack structure without semantic validation (used by
    /// [`Pack::from_json`]; exposed for error-path tests).
    pub fn from_value(doc: &Json) -> Result<Pack, PackError> {
        let fields = as_obj(doc, "")?;
        if opt(fields, "faults").is_some() {
            return Err(PackError::at(
                "faults",
                "the faults section was removed: no pack runs under a fault plan; \
                 delete the section (fault injection lives in fcr-testkit)",
            ));
        }
        reject_unknown(
            fields,
            &[
                "schema_version",
                "name",
                "description",
                "seed",
                "runs",
                "schemes",
                "topology",
                "channel",
                "traffic",
                "mobility",
                "churn",
            ],
            "",
        )?;
        let version = as_u64(req(fields, "schema_version", "")?, "schema_version")?;
        if version != u64::from(PACK_SCHEMA_VERSION) {
            return Err(PackError::at(
                "schema_version",
                format!(
                    "unsupported schema version {version} (this build reads {PACK_SCHEMA_VERSION})"
                ),
            ));
        }
        let name = as_str(req(fields, "name", "")?, "name")?.to_string();
        let description = as_str(req(fields, "description", "")?, "description")?.to_string();
        let seed = as_u64(req(fields, "seed", "")?, "seed")?;
        let runs = as_u64(req(fields, "runs", "")?, "runs")?;
        let schemes = as_arr(req(fields, "schemes", "")?, "schemes")?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let p = format!("schemes[{i}]");
                scheme_from(as_str(v, &p)?, &p)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let topology = parse_topology(req(fields, "topology", "")?)?;
        let channel = parse_channel(req(fields, "channel", "")?)?;
        let traffic = parse_traffic(req(fields, "traffic", "")?)?;
        let mobility = opt(fields, "mobility").map(parse_mobility).transpose()?;
        let churn = opt(fields, "churn").map(parse_churn).transpose()?;
        Ok(Pack {
            name,
            description,
            seed,
            runs,
            schemes,
            topology,
            channel,
            traffic,
            mobility,
            churn,
        })
    }
}

fn parse_topology(v: &Json) -> Result<TopologySpec, PackError> {
    let p = "topology";
    let fields = as_obj(v, p)?;
    let kind = as_str(req(fields, "kind", p)?, "topology.kind")?;
    match kind {
        "single_fbs" => {
            reject_unknown(fields, &["kind", "users"], p)?;
            Ok(TopologySpec::SingleFbs {
                users: as_u64(req(fields, "users", p)?, "topology.users")?,
            })
        }
        "paper_fig1" => {
            reject_unknown(fields, &["kind", "users_per_fbs"], p)?;
            Ok(TopologySpec::PaperFig1 {
                users_per_fbs: as_u64(req(fields, "users_per_fbs", p)?, "topology.users_per_fbs")?,
            })
        }
        "paper_fig5" => {
            reject_unknown(fields, &["kind", "users_per_fbs"], p)?;
            Ok(TopologySpec::PaperFig5 {
                users_per_fbs: as_u64(req(fields, "users_per_fbs", p)?, "topology.users_per_fbs")?,
            })
        }
        "random" => {
            reject_unknown(
                fields,
                &["kind", "fbss", "users_per_fbs", "side", "coverage"],
                p,
            )?;
            Ok(TopologySpec::Random {
                fbss: as_u64(req(fields, "fbss", p)?, "topology.fbss")?,
                users_per_fbs: as_u64(req(fields, "users_per_fbs", p)?, "topology.users_per_fbs")?,
                side: as_f64(req(fields, "side", p)?, "topology.side")?,
                coverage: as_f64(req(fields, "coverage", p)?, "topology.coverage")?,
            })
        }
        "geometric" => {
            reject_unknown(fields, &["kind", "mbs", "fbss", "users"], p)?;
            let mbs = point(req(fields, "mbs", p)?, "topology.mbs")?;
            let fbss = as_arr(req(fields, "fbss", p)?, "topology.fbss")?
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let fp = format!("topology.fbss[{i}]");
                    let ff = as_obj(f, &fp)?;
                    reject_unknown(ff, &["pos", "radius"], &fp)?;
                    Ok(GeoFbs {
                        pos: point(req(ff, "pos", &fp)?, &format!("{fp}.pos"))?,
                        radius: as_f64(req(ff, "radius", &fp)?, &format!("{fp}.radius"))?,
                    })
                })
                .collect::<Result<Vec<_>, PackError>>()?;
            let users = as_arr(req(fields, "users", p)?, "topology.users")?
                .iter()
                .enumerate()
                .map(|(i, u)| point(u, &format!("topology.users[{i}]")))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TopologySpec::Geometric { mbs, fbss, users })
        }
        other => Err(PackError::at(
            "topology.kind",
            format!("unknown topology kind {other:?} (expected one of single_fbs, paper_fig1, paper_fig5, random, geometric)"),
        )),
    }
}

fn parse_channel(v: &Json) -> Result<ChannelSpec, PackError> {
    let p = "channel";
    let fields = as_obj(v, p)?;
    reject_unknown(
        fields,
        &[
            "num_channels",
            "p01",
            "p10",
            "gamma",
            "epsilon",
            "delta",
            "b0",
            "b1",
            "deadline",
            "gops",
            "mean_sinr_mbs",
            "mean_sinr_fbs",
            "sinr_threshold",
            "shadowing_sigma_db",
            "first_observation_only",
            "prior_mode",
            "access_mode",
            "sensing_strategy",
            "scalability",
            "nakagami_m",
        ],
        p,
    )?;
    let f = |key: &str| -> Result<Option<f64>, PackError> {
        opt(fields, key)
            .map(|v| as_f64(v, &join(p, key)))
            .transpose()
    };
    let u = |key: &str| -> Result<Option<u64>, PackError> {
        opt(fields, key)
            .map(|v| as_u64(v, &join(p, key)))
            .transpose()
    };
    Ok(ChannelSpec {
        num_channels: u("num_channels")?,
        p01: f("p01")?,
        p10: f("p10")?,
        gamma: f("gamma")?,
        epsilon: f("epsilon")?,
        delta: f("delta")?,
        b0: f("b0")?,
        b1: f("b1")?,
        deadline: u("deadline")?,
        gops: u("gops")?,
        mean_sinr_mbs: f("mean_sinr_mbs")?,
        mean_sinr_fbs: f("mean_sinr_fbs")?,
        sinr_threshold: f("sinr_threshold")?,
        shadowing_sigma_db: f("shadowing_sigma_db")?,
        first_observation_only: opt(fields, "first_observation_only")
            .map(|v| as_bool(v, "channel.first_observation_only"))
            .transpose()?,
        prior_mode: opt(fields, "prior_mode")
            .map(|v| {
                enum_from(
                    as_str(v, "channel.prior_mode")?,
                    PRIOR_MODES,
                    "prior mode",
                    "channel.prior_mode",
                )
            })
            .transpose()?,
        access_mode: opt(fields, "access_mode")
            .map(|v| {
                enum_from(
                    as_str(v, "channel.access_mode")?,
                    ACCESS_MODES,
                    "access mode",
                    "channel.access_mode",
                )
            })
            .transpose()?,
        sensing_strategy: opt(fields, "sensing_strategy")
            .map(|v| {
                enum_from(
                    as_str(v, "channel.sensing_strategy")?,
                    SENSING_STRATEGIES,
                    "sensing strategy",
                    "channel.sensing_strategy",
                )
            })
            .transpose()?,
        scalability: opt(fields, "scalability")
            .map(|v| {
                enum_from(
                    as_str(v, "channel.scalability")?,
                    SCALABILITIES,
                    "scalability",
                    "channel.scalability",
                )
            })
            .transpose()?,
        nakagami_m: f("nakagami_m")?,
    })
}

fn parse_traffic(v: &Json) -> Result<TrafficSpec, PackError> {
    let p = "traffic";
    let fields = as_obj(v, p)?;
    reject_unknown(fields, &["sequences", "base_runs", "enhancement_runs"], p)?;
    let sequences = as_arr(req(fields, "sequences", p)?, "traffic.sequences")?
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let sp = format!("traffic.sequences[{i}]");
            sequence_from(as_str(s, &sp)?, &sp)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TrafficSpec {
        sequences,
        base_runs: as_u64(req(fields, "base_runs", p)?, "traffic.base_runs")?,
        enhancement_runs: as_u64(
            req(fields, "enhancement_runs", p)?,
            "traffic.enhancement_runs",
        )?,
    })
}

fn parse_mobility(v: &Json) -> Result<MobilitySpec, PackError> {
    let p = "mobility";
    let fields = as_obj(v, p)?;
    reject_unknown(fields, &["step_m", "hysteresis_m"], p)?;
    Ok(MobilitySpec {
        step_m: as_f64(req(fields, "step_m", p)?, "mobility.step_m")?,
        hysteresis_m: as_f64(req(fields, "hysteresis_m", p)?, "mobility.hysteresis_m")?,
    })
}

fn parse_arrivals(v: &Json) -> Result<ArrivalSpec, PackError> {
    let p = "churn.arrivals";
    let fields = as_obj(v, p)?;
    let kind = as_str(req(fields, "kind", p)?, "churn.arrivals.kind")?;
    match kind {
        "poisson" => {
            reject_unknown(fields, &["kind", "rate_per_slot"], p)?;
            Ok(ArrivalSpec::Poisson {
                rate_per_slot: as_f64(
                    req(fields, "rate_per_slot", p)?,
                    "churn.arrivals.rate_per_slot",
                )?,
            })
        }
        "diurnal" => {
            reject_unknown(
                fields,
                &["kind", "base_rate", "peak_rate", "period_slots"],
                p,
            )?;
            Ok(ArrivalSpec::Diurnal {
                base_rate: as_f64(req(fields, "base_rate", p)?, "churn.arrivals.base_rate")?,
                peak_rate: as_f64(req(fields, "peak_rate", p)?, "churn.arrivals.peak_rate")?,
                period_slots: as_u64(
                    req(fields, "period_slots", p)?,
                    "churn.arrivals.period_slots",
                )?,
            })
        }
        "flash_crowd" => {
            reject_unknown(
                fields,
                &[
                    "kind",
                    "base_rate",
                    "burst_rate",
                    "burst_start",
                    "burst_slots",
                ],
                p,
            )?;
            Ok(ArrivalSpec::FlashCrowd {
                base_rate: as_f64(req(fields, "base_rate", p)?, "churn.arrivals.base_rate")?,
                burst_rate: as_f64(req(fields, "burst_rate", p)?, "churn.arrivals.burst_rate")?,
                burst_start: as_u64(req(fields, "burst_start", p)?, "churn.arrivals.burst_start")?,
                burst_slots: as_u64(req(fields, "burst_slots", p)?, "churn.arrivals.burst_slots")?,
            })
        }
        other => Err(PackError::at(
            "churn.arrivals.kind",
            format!(
                "unknown arrival kind {other:?} (expected one of poisson, diurnal, flash_crowd)"
            ),
        )),
    }
}

fn parse_churn(v: &Json) -> Result<ChurnSpec, PackError> {
    let p = "churn";
    let fields = as_obj(v, p)?;
    reject_unknown(
        fields,
        &[
            "slots",
            "arrivals",
            "mean_hold_slots",
            "mbs_budget",
            "max_sessions",
            "pu_bursts",
        ],
        p,
    )?;
    let pu_bursts = opt(fields, "pu_bursts")
        .map(|b| {
            let bp = "churn.pu_bursts";
            let bf = as_obj(b, bp)?;
            reject_unknown(
                bf,
                &["bursts", "mean_duration_slots", "utilization_boost"],
                bp,
            )?;
            Ok::<_, PackError>(PuBurstSpec {
                bursts: as_u64(req(bf, "bursts", bp)?, "churn.pu_bursts.bursts")?,
                mean_duration_slots: as_f64(
                    req(bf, "mean_duration_slots", bp)?,
                    "churn.pu_bursts.mean_duration_slots",
                )?,
                utilization_boost: as_f64(
                    req(bf, "utilization_boost", bp)?,
                    "churn.pu_bursts.utilization_boost",
                )?,
            })
        })
        .transpose()?;
    Ok(ChurnSpec {
        slots: as_u64(req(fields, "slots", p)?, "churn.slots")?,
        arrivals: parse_arrivals(req(fields, "arrivals", p)?)?,
        mean_hold_slots: as_f64(req(fields, "mean_hold_slots", p)?, "churn.mean_hold_slots")?,
        mbs_budget: as_f64(req(fields, "mbs_budget", p)?, "churn.mbs_budget")?,
        max_sessions: as_u64(req(fields, "max_sessions", p)?, "churn.max_sessions")?,
        pu_bursts,
    })
}

// ---------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------

impl Pack {
    /// Semantic validation beyond structure: counts are positive,
    /// rates are finite and non-negative, and the channel overrides
    /// produce a [`SimConfig`] that passes its own `validate`.
    pub fn validate(&self) -> Result<(), PackError> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return Err(PackError::at(
                "name",
                "must be non-empty [a-z0-9_]+ (it names golden-trace files)",
            ));
        }
        if self.seed > JSON_SAFE_MAX {
            return Err(PackError::at(
                "seed",
                "must fit a JSON-safe integer (at most 2^53 - 1) to round-trip exactly",
            ));
        }
        if self.runs == 0 {
            return Err(PackError::at("runs", "must be at least 1"));
        }
        if self.schemes.is_empty() {
            return Err(PackError::at("schemes", "must name at least one scheme"));
        }
        match &self.topology {
            TopologySpec::SingleFbs { users } => {
                if *users == 0 {
                    return Err(PackError::at("topology.users", "must be at least 1"));
                }
            }
            TopologySpec::PaperFig1 { users_per_fbs }
            | TopologySpec::PaperFig5 { users_per_fbs } => {
                if *users_per_fbs == 0 {
                    return Err(PackError::at(
                        "topology.users_per_fbs",
                        "must be at least 1",
                    ));
                }
            }
            TopologySpec::Random {
                fbss,
                users_per_fbs,
                side,
                coverage,
            } => {
                if *fbss == 0 {
                    return Err(PackError::at("topology.fbss", "must be at least 1"));
                }
                if *users_per_fbs == 0 {
                    return Err(PackError::at(
                        "topology.users_per_fbs",
                        "must be at least 1",
                    ));
                }
                if !(side.is_finite() && *side > 0.0) {
                    return Err(PackError::at("topology.side", "must be a positive number"));
                }
                if !(coverage.is_finite() && *coverage > 0.0) {
                    return Err(PackError::at(
                        "topology.coverage",
                        "must be a positive number",
                    ));
                }
            }
            TopologySpec::Geometric { fbss, users, .. } => {
                if fbss.is_empty() {
                    return Err(PackError::at("topology.fbss", "must list at least one FBS"));
                }
                if users.is_empty() {
                    return Err(PackError::at(
                        "topology.users",
                        "must list at least one user",
                    ));
                }
                for (i, f) in fbss.iter().enumerate() {
                    if !(f.radius.is_finite() && f.radius > 0.0) {
                        return Err(PackError::at(
                            format!("topology.fbss[{i}].radius"),
                            "must be a positive number",
                        ));
                    }
                }
            }
        }
        let cfg = self.channel.apply();
        if let Err(problems) = cfg.validate() {
            return Err(PackError::at(
                "channel",
                format!(
                    "overrides produce an invalid SimConfig: {}",
                    problems.join("; ")
                ),
            ));
        }
        if self.traffic.sequences.is_empty() {
            return Err(PackError::at(
                "traffic.sequences",
                "must list at least one sequence",
            ));
        }
        if self.traffic.base_runs == 0 {
            return Err(PackError::at("traffic.base_runs", "must be at least 1"));
        }
        if let Some(m) = &self.mobility {
            if !(m.step_m.is_finite() && m.step_m > 0.0) {
                return Err(PackError::at(
                    "mobility.step_m",
                    "must be a positive number",
                ));
            }
            if !(m.hysteresis_m.is_finite() && m.hysteresis_m >= 0.0) {
                return Err(PackError::at(
                    "mobility.hysteresis_m",
                    "must be a non-negative number",
                ));
            }
        }
        if let Some(c) = &self.churn {
            if c.slots == 0 {
                return Err(PackError::at("churn.slots", "must be at least 1"));
            }
            if !(c.mean_hold_slots.is_finite() && c.mean_hold_slots > 0.0) {
                return Err(PackError::at(
                    "churn.mean_hold_slots",
                    "must be a positive number",
                ));
            }
            if !(c.mbs_budget.is_finite() && c.mbs_budget > 0.0) {
                return Err(PackError::at(
                    "churn.mbs_budget",
                    "must be a positive number",
                ));
            }
            if c.max_sessions == 0 {
                return Err(PackError::at("churn.max_sessions", "must be at least 1"));
            }
            let rate_ok = |r: f64| r.is_finite() && r >= 0.0;
            match c.arrivals {
                ArrivalSpec::Poisson { rate_per_slot } => {
                    if !rate_ok(rate_per_slot) {
                        return Err(PackError::at(
                            "churn.arrivals.rate_per_slot",
                            "must be a non-negative number",
                        ));
                    }
                }
                ArrivalSpec::Diurnal {
                    base_rate,
                    peak_rate,
                    period_slots,
                } => {
                    if !rate_ok(base_rate) {
                        return Err(PackError::at(
                            "churn.arrivals.base_rate",
                            "must be a non-negative number",
                        ));
                    }
                    if !rate_ok(peak_rate) || peak_rate < base_rate {
                        return Err(PackError::at(
                            "churn.arrivals.peak_rate",
                            "must be a number >= base_rate",
                        ));
                    }
                    if period_slots == 0 {
                        return Err(PackError::at(
                            "churn.arrivals.period_slots",
                            "must be at least 1",
                        ));
                    }
                }
                ArrivalSpec::FlashCrowd {
                    base_rate,
                    burst_rate,
                    burst_slots,
                    ..
                } => {
                    if !rate_ok(base_rate) {
                        return Err(PackError::at(
                            "churn.arrivals.base_rate",
                            "must be a non-negative number",
                        ));
                    }
                    if !rate_ok(burst_rate) {
                        return Err(PackError::at(
                            "churn.arrivals.burst_rate",
                            "must be a non-negative number",
                        ));
                    }
                    if burst_slots == 0 {
                        return Err(PackError::at(
                            "churn.arrivals.burst_slots",
                            "must be at least 1",
                        ));
                    }
                }
            }
            if let Some(b) = &c.pu_bursts {
                if !(b.mean_duration_slots.is_finite() && b.mean_duration_slots > 0.0) {
                    return Err(PackError::at(
                        "churn.pu_bursts.mean_duration_slots",
                        "must be a positive number",
                    ));
                }
                if !(b.utilization_boost.is_finite() && (0.0..1.0).contains(&b.utilization_boost)) {
                    return Err(PackError::at(
                        "churn.pu_bursts.utilization_boost",
                        "must be in [0, 1)",
                    ));
                }
            }
        }
        Ok(())
    }

    /// The pack's effective [`SimConfig`] (defaults + channel
    /// overrides).
    pub fn sim_config(&self) -> SimConfig {
        self.channel.apply()
    }
}

// ---------------------------------------------------------------------
// Canonical rendering.
// ---------------------------------------------------------------------

/// Shortest round-trip decimal for a pack number (Rust's float
/// `Display`); integral values render without a fractional part, so
/// `5.0` renders as `5` and re-parses identically.
fn num(v: f64) -> String {
    debug_assert!(v.is_finite(), "pack numbers are finite");
    format!("{v}")
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A tiny indenting writer for the canonical pack shape.
struct W {
    out: String,
    indent: usize,
}

impl W {
    fn new() -> Self {
        W {
            out: String::new(),
            indent: 0,
        }
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// Writes `"key": <open>`, runs `body` one level deeper, then the
    /// matching close with an optional trailing comma.
    fn block(
        &mut self,
        head: &str,
        open: char,
        close: char,
        comma: bool,
        body: impl FnOnce(&mut W),
    ) {
        self.line(&format!("{head}{open}"));
        self.indent += 1;
        body(self);
        self.indent -= 1;
        self.line(&format!("{close}{}", if comma { "," } else { "" }));
    }
}

impl Pack {
    /// Renders the pack in canonical form (see module docs). Parsing
    /// the output reproduces `self` exactly, and rendering a parsed
    /// canonical file reproduces its bytes exactly.
    pub fn to_json(&self) -> String {
        let mut w = W::new();
        w.line("{");
        w.indent += 1;
        w.line(&format!("\"schema_version\": {PACK_SCHEMA_VERSION},"));
        w.line(&format!("\"name\": \"{}\",", esc(&self.name)));
        w.line(&format!("\"description\": \"{}\",", esc(&self.description)));
        w.line(&format!("\"seed\": {},", self.seed));
        w.line(&format!("\"runs\": {},", self.runs));
        let schemes: Vec<String> = self
            .schemes
            .iter()
            .map(|s| format!("\"{}\"", scheme_token(*s)))
            .collect();
        w.line(&format!("\"schemes\": [{}],", schemes.join(", ")));
        self.write_topology(&mut w);
        self.write_channel(&mut w);
        self.write_traffic(&mut w);
        if let Some(m) = &self.mobility {
            w.block("\"mobility\": ", '{', '}', self.churn.is_some(), |w| {
                w.line(&format!("\"step_m\": {},", num(m.step_m)));
                w.line(&format!("\"hysteresis_m\": {}", num(m.hysteresis_m)));
            });
        }
        if let Some(c) = &self.churn {
            w.block("\"churn\": ", '{', '}', false, |w| {
                w.line(&format!("\"slots\": {},", c.slots));
                w.block("\"arrivals\": ", '{', '}', true, |w| match c.arrivals {
                    ArrivalSpec::Poisson { rate_per_slot } => {
                        w.line("\"kind\": \"poisson\",");
                        w.line(&format!("\"rate_per_slot\": {}", num(rate_per_slot)));
                    }
                    ArrivalSpec::Diurnal {
                        base_rate,
                        peak_rate,
                        period_slots,
                    } => {
                        w.line("\"kind\": \"diurnal\",");
                        w.line(&format!("\"base_rate\": {},", num(base_rate)));
                        w.line(&format!("\"peak_rate\": {},", num(peak_rate)));
                        w.line(&format!("\"period_slots\": {period_slots}"));
                    }
                    ArrivalSpec::FlashCrowd {
                        base_rate,
                        burst_rate,
                        burst_start,
                        burst_slots,
                    } => {
                        w.line("\"kind\": \"flash_crowd\",");
                        w.line(&format!("\"base_rate\": {},", num(base_rate)));
                        w.line(&format!("\"burst_rate\": {},", num(burst_rate)));
                        w.line(&format!("\"burst_start\": {burst_start},"));
                        w.line(&format!("\"burst_slots\": {burst_slots}"));
                    }
                });
                w.line(&format!("\"mean_hold_slots\": {},", num(c.mean_hold_slots)));
                w.line(&format!("\"mbs_budget\": {},", num(c.mbs_budget)));
                let have_bursts = c.pu_bursts.is_some();
                w.line(&format!(
                    "\"max_sessions\": {}{}",
                    c.max_sessions,
                    if have_bursts { "," } else { "" }
                ));
                if let Some(b) = &c.pu_bursts {
                    w.block("\"pu_bursts\": ", '{', '}', false, |w| {
                        w.line(&format!("\"bursts\": {},", b.bursts));
                        w.line(&format!(
                            "\"mean_duration_slots\": {},",
                            num(b.mean_duration_slots)
                        ));
                        w.line(&format!(
                            "\"utilization_boost\": {}",
                            num(b.utilization_boost)
                        ));
                    });
                }
            });
        }
        w.indent -= 1;
        w.line("}");
        w.out
    }

    fn write_topology(&self, w: &mut W) {
        w.block("\"topology\": ", '{', '}', true, |w| match &self.topology {
            TopologySpec::SingleFbs { users } => {
                w.line("\"kind\": \"single_fbs\",");
                w.line(&format!("\"users\": {users}"));
            }
            TopologySpec::PaperFig1 { users_per_fbs } => {
                w.line("\"kind\": \"paper_fig1\",");
                w.line(&format!("\"users_per_fbs\": {users_per_fbs}"));
            }
            TopologySpec::PaperFig5 { users_per_fbs } => {
                w.line("\"kind\": \"paper_fig5\",");
                w.line(&format!("\"users_per_fbs\": {users_per_fbs}"));
            }
            TopologySpec::Random {
                fbss,
                users_per_fbs,
                side,
                coverage,
            } => {
                w.line("\"kind\": \"random\",");
                w.line(&format!("\"fbss\": {fbss},"));
                w.line(&format!("\"users_per_fbs\": {users_per_fbs},"));
                w.line(&format!("\"side\": {},", num(*side)));
                w.line(&format!("\"coverage\": {}", num(*coverage)));
            }
            TopologySpec::Geometric { mbs, fbss, users } => {
                w.line("\"kind\": \"geometric\",");
                w.line(&format!("\"mbs\": [{}, {}],", num(mbs.0), num(mbs.1)));
                w.block("\"fbss\": ", '[', ']', true, |w| {
                    for (i, f) in fbss.iter().enumerate() {
                        let comma = if i + 1 < fbss.len() { "," } else { "" };
                        w.line(&format!(
                            "{{\"pos\": [{}, {}], \"radius\": {}}}{comma}",
                            num(f.pos.0),
                            num(f.pos.1),
                            num(f.radius)
                        ));
                    }
                });
                w.block("\"users\": ", '[', ']', false, |w| {
                    for (i, u) in users.iter().enumerate() {
                        let comma = if i + 1 < users.len() { "," } else { "" };
                        w.line(&format!("[{}, {}]{comma}", num(u.0), num(u.1)));
                    }
                });
            }
        });
    }

    fn write_channel(&self, w: &mut W) {
        let c = &self.channel;
        let mut lines: Vec<String> = Vec::new();
        fn push_num(lines: &mut Vec<String>, key: &str, v: Option<f64>) {
            if let Some(v) = v {
                lines.push(format!("\"{key}\": {}", num(v)));
            }
        }
        if let Some(v) = c.num_channels {
            lines.push(format!("\"num_channels\": {v}"));
        }
        push_num(&mut lines, "p01", c.p01);
        push_num(&mut lines, "p10", c.p10);
        push_num(&mut lines, "gamma", c.gamma);
        push_num(&mut lines, "epsilon", c.epsilon);
        push_num(&mut lines, "delta", c.delta);
        push_num(&mut lines, "b0", c.b0);
        push_num(&mut lines, "b1", c.b1);
        if let Some(v) = c.deadline {
            lines.push(format!("\"deadline\": {v}"));
        }
        if let Some(v) = c.gops {
            lines.push(format!("\"gops\": {v}"));
        }
        push_num(&mut lines, "mean_sinr_mbs", c.mean_sinr_mbs);
        push_num(&mut lines, "mean_sinr_fbs", c.mean_sinr_fbs);
        push_num(&mut lines, "sinr_threshold", c.sinr_threshold);
        push_num(&mut lines, "shadowing_sigma_db", c.shadowing_sigma_db);
        if let Some(v) = c.first_observation_only {
            lines.push(format!("\"first_observation_only\": {v}"));
        }
        if let Some(v) = c.prior_mode {
            lines.push(format!("\"prior_mode\": \"{}\"", token_of(v, PRIOR_MODES)));
        }
        if let Some(v) = c.access_mode {
            lines.push(format!(
                "\"access_mode\": \"{}\"",
                token_of(v, ACCESS_MODES)
            ));
        }
        if let Some(v) = c.sensing_strategy {
            lines.push(format!(
                "\"sensing_strategy\": \"{}\"",
                token_of(v, SENSING_STRATEGIES)
            ));
        }
        if let Some(v) = c.scalability {
            lines.push(format!(
                "\"scalability\": \"{}\"",
                token_of(v, SCALABILITIES)
            ));
        }
        if let Some(v) = c.nakagami_m {
            lines.push(format!("\"nakagami_m\": {}", num(v)));
        }
        if lines.is_empty() {
            w.line("\"channel\": {},");
        } else {
            w.block("\"channel\": ", '{', '}', true, |w| {
                let n = lines.len();
                for (i, l) in lines.iter().enumerate() {
                    let comma = if i + 1 < n { "," } else { "" };
                    w.line(&format!("{l}{comma}"));
                }
            });
        }
    }

    fn write_traffic(&self, w: &mut W) {
        let comma = self.mobility.is_some() || self.churn.is_some();
        let t = &self.traffic;
        w.block("\"traffic\": ", '{', '}', comma, |w| {
            let seqs: Vec<String> = t
                .sequences
                .iter()
                .map(|s| format!("\"{}\"", sequence_token(*s)))
                .collect();
            w.line(&format!("\"sequences\": [{}],", seqs.join(", ")));
            w.line(&format!("\"base_runs\": {},", t.base_runs));
            w.line(&format!("\"enhancement_runs\": {}", t.enhancement_runs));
        });
    }
}

// ---------------------------------------------------------------------
// Seeded generation.
// ---------------------------------------------------------------------

impl Pack {
    /// Generates a random **valid** pack from `seed` — the pack
    /// fuzzing entry point (`fcr-testkit` wraps it in a proptest
    /// strategy, `fcr-experiments scenario --generate` ships it to the
    /// CLI). Dimensions stay smoke-sized so a generated pack always
    /// runs in seconds.
    pub fn generate(seed: u64) -> Pack {
        // Seeds above 2^53 cannot round-trip through JSON numbers;
        // fold them into the safe range so the written pack replays.
        let seed = seed & JSON_SAFE_MAX;
        let seq = SeedSequence::new(seed);
        let mut rng = seq.stream("pack", 0);
        let topology = match rng.random_range(0..5u32) {
            0 => TopologySpec::SingleFbs {
                users: rng.random_range(1..=4u64),
            },
            1 => TopologySpec::PaperFig1 {
                users_per_fbs: rng.random_range(1..=3u64),
            },
            2 => TopologySpec::PaperFig5 {
                users_per_fbs: rng.random_range(1..=3u64),
            },
            3 => TopologySpec::Random {
                fbss: rng.random_range(2..=4u64),
                users_per_fbs: rng.random_range(1..=3u64),
                side: round2(rng.random_range(150.0..400.0)),
                coverage: round2(rng.random_range(20.0..40.0)),
            },
            _ => {
                let n_fbs = rng.random_range(2..=3usize);
                let fbss: Vec<GeoFbs> = (0..n_fbs)
                    .map(|i| GeoFbs {
                        pos: (
                            round2(-60.0 + 60.0 * i as f64 + rng.random_range(-10.0..10.0)),
                            round2(rng.random_range(-20.0..20.0)),
                        ),
                        radius: round2(rng.random_range(22.0..35.0)),
                    })
                    .collect();
                let mut users = Vec::new();
                for f in &fbss {
                    for _ in 0..rng.random_range(1..=2u32) {
                        users.push((
                            round2(f.pos.0 + rng.random_range(-8.0..8.0)),
                            round2(f.pos.1 + rng.random_range(-8.0..8.0)),
                        ));
                    }
                }
                TopologySpec::Geometric {
                    mbs: (0.0, round2(rng.random_range(80.0..150.0))),
                    fbss,
                    users,
                }
            }
        };
        // A few channel overrides, drawn from validity-preserving
        // bands (ε + δ < 1, probabilities off the absorbing corners).
        let mut channel = ChannelSpec::default();
        if rng.random::<f64>() < 0.7 {
            channel.gops = Some(rng.random_range(1..=3u64));
        }
        if rng.random::<f64>() < 0.5 {
            channel.num_channels = Some(rng.random_range(2..=6u64));
        }
        if rng.random::<f64>() < 0.5 {
            channel.deadline = Some(rng.random_range(2..=6u64));
        }
        if rng.random::<f64>() < 0.4 {
            channel.p01 = Some(round2(rng.random_range(0.1..0.8)));
            channel.p10 = Some(round2(rng.random_range(0.1..0.8)));
        }
        if rng.random::<f64>() < 0.4 {
            channel.epsilon = Some(round2(rng.random_range(0.05..0.45)));
            channel.delta = Some(round2(rng.random_range(0.05..0.45)));
        }
        if rng.random::<f64>() < 0.3 {
            channel.prior_mode = Some(if rng.random::<f64>() < 0.5 {
                PriorMode::Stationary
            } else {
                PriorMode::BeliefTracking
            });
        }
        if rng.random::<f64>() < 0.3 {
            channel.nakagami_m = Some(round2(rng.random_range(0.6..3.0)));
        }
        let n_seq = rng.random_range(1..=4usize);
        let start = rng.random_range(0..Sequence::ALL.len());
        let sequences: Vec<Sequence> = (0..n_seq)
            .map(|i| Sequence::ALL[(start + i) % Sequence::ALL.len()])
            .collect();
        let schemes: Vec<Scheme> = match rng.random_range(0..3u32) {
            0 => vec![Scheme::Proposed],
            1 => vec![Scheme::Proposed, Scheme::Heuristic1],
            _ => Scheme::PAPER_TRIO.to_vec(),
        };
        let mobility = (rng.random::<f64>() < 0.6).then(|| MobilitySpec {
            step_m: round2(rng.random_range(2.0..8.0)),
            hysteresis_m: round2(rng.random_range(0.0..5.0)),
        });
        let churn = (rng.random::<f64>() < 0.6).then(|| {
            let arrivals = match rng.random_range(0..3u32) {
                0 => ArrivalSpec::Poisson {
                    rate_per_slot: round2(rng.random_range(0.2..1.0)),
                },
                1 => {
                    let base = round2(rng.random_range(0.1..0.4));
                    ArrivalSpec::Diurnal {
                        base_rate: base,
                        peak_rate: round2(base + rng.random_range(0.3..1.0)),
                        period_slots: rng.random_range(24..=96u64),
                    }
                }
                _ => ArrivalSpec::FlashCrowd {
                    base_rate: round2(rng.random_range(0.1..0.3)),
                    burst_rate: round2(rng.random_range(1.0..3.0)),
                    burst_start: rng.random_range(5..=20u64),
                    burst_slots: rng.random_range(5..=15u64),
                },
            };
            ChurnSpec {
                slots: rng.random_range(20..=50u64),
                arrivals,
                mean_hold_slots: round2(rng.random_range(6.0..20.0)),
                mbs_budget: round2(rng.random_range(2.0..6.0)),
                max_sessions: rng.random_range(8..=32u64),
                pu_bursts: (rng.random::<f64>() < 0.5).then(|| PuBurstSpec {
                    bursts: rng.random_range(1..=3u64),
                    mean_duration_slots: round2(rng.random_range(4.0..12.0)),
                    utilization_boost: round2(rng.random_range(0.05..0.35)),
                }),
            }
        });
        let pack = Pack {
            name: format!("generated_{seed}"),
            description: "randomized pack from Pack::generate (replay with the same seed)"
                .to_string(),
            seed,
            runs: rng.random_range(1..=2u64),
            schemes,
            topology,
            channel,
            traffic: TrafficSpec {
                sequences,
                base_runs: rng.random_range(1..=2u64),
                enhancement_runs: rng.random_range(0..=2u64),
            },
            mobility,
            churn,
        };
        debug_assert!(pack.validate().is_ok(), "generated packs are always valid");
        pack
    }
}

/// Rounds to 2 decimals so generated packs stay readable and render
/// identically through any number of parse/serialize round trips.
fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> Pack {
        Pack {
            name: "minimal".to_string(),
            description: "one FBS, defaults".to_string(),
            seed: 7,
            runs: 2,
            schemes: vec![Scheme::Proposed],
            topology: TopologySpec::SingleFbs { users: 3 },
            channel: ChannelSpec::default(),
            traffic: TrafficSpec {
                sequences: vec![Sequence::Bus, Sequence::Mobile, Sequence::Harbor],
                base_runs: 1,
                enhancement_runs: 0,
            },
            mobility: None,
            churn: None,
        }
    }

    #[test]
    fn minimal_pack_round_trips_exactly() {
        let pack = minimal();
        let text = pack.to_json();
        let back = Pack::from_json(&text).expect("canonical output parses");
        assert_eq!(back, pack);
        assert_eq!(back.to_json(), text, "canonical form is a fixed point");
    }

    #[test]
    fn every_section_round_trips_exactly() {
        let mut pack = minimal();
        pack.channel.gops = Some(3);
        pack.channel.p01 = Some(0.45);
        pack.channel.prior_mode = Some(PriorMode::BeliefTracking);
        pack.channel.scalability = Some(Scalability::Fgs);
        pack.topology = TopologySpec::Geometric {
            mbs: (0.0, 120.0),
            fbss: vec![
                GeoFbs {
                    pos: (-45.0, 0.0),
                    radius: 28.0,
                },
                GeoFbs {
                    pos: (45.0, 0.0),
                    radius: 28.0,
                },
            ],
            users: vec![(-40.0, 2.0), (50.0, -3.0)],
        };
        pack.mobility = Some(MobilitySpec {
            step_m: 4.0,
            hysteresis_m: 3.0,
        });
        pack.churn = Some(ChurnSpec {
            slots: 40,
            arrivals: ArrivalSpec::FlashCrowd {
                base_rate: 0.2,
                burst_rate: 2.0,
                burst_start: 10,
                burst_slots: 8,
            },
            mean_hold_slots: 12.0,
            mbs_budget: 4.0,
            max_sessions: 16,
            pu_bursts: Some(PuBurstSpec {
                bursts: 2,
                mean_duration_slots: 6.0,
                utilization_boost: 0.2,
            }),
        });
        let text = pack.to_json();
        let back = Pack::from_json(&text).expect("parses");
        assert_eq!(back, pack);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn unknown_fields_name_their_path() {
        let mut text = minimal().to_json();
        text = text.replace("\"channel\": {},", "\"channel\": {\"p99\": 0.5},");
        let err = Pack::from_json(&text).unwrap_err();
        assert_eq!(err.path, "channel.p99");
        assert!(err.message.contains("unknown field"), "{err}");
    }

    #[test]
    fn a_faults_section_is_a_pointed_error() {
        let text = minimal().to_json().replace(
            "\"channel\": {},",
            "\"channel\": {},\n  \"faults\": {\"jobs\": 32, \"resizes\": 1},",
        );
        let err = Pack::from_json(&text).unwrap_err();
        assert_eq!(err.path, "faults");
        assert!(err.message.contains("was removed"), "{err}");
    }

    #[test]
    fn semantic_validation_names_the_field() {
        let mut pack = minimal();
        pack.channel.epsilon = Some(1.5); // a probability above 1
        let err = Pack::from_json(&pack.to_json()).unwrap_err();
        assert_eq!(err.path, "channel");
        assert!(err.message.contains("invalid SimConfig"), "{err}");

        let mut pack = minimal();
        pack.traffic.sequences.clear();
        let err = pack.validate().unwrap_err();
        assert_eq!(err.path, "traffic.sequences");
    }

    #[test]
    fn generated_packs_are_valid_and_round_trip() {
        for seed in [0u64, 1, 7, 42, 20110611, u64::MAX] {
            let pack = Pack::generate(seed);
            pack.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let text = pack.to_json();
            let back = Pack::from_json(&text)
                .unwrap_or_else(|e| panic!("seed {seed} reparse: {e}\n{text}"));
            assert_eq!(back, pack, "seed {seed}");
            assert_eq!(back.to_json(), text, "seed {seed}");
            // Same seed, same pack — generation is deterministic.
            assert_eq!(Pack::generate(seed), pack, "seed {seed}");
        }
    }

    #[test]
    fn scheme_and_sequence_tokens_cover_every_variant() {
        for s in Scheme::WITH_BOUND {
            assert_eq!(scheme_from(scheme_token(s), "x").unwrap(), s);
        }
        for s in Sequence::ALL {
            assert_eq!(sequence_from(sequence_token(s), "x").unwrap(), s);
        }
    }
}
