//! `fcr-scenario` — declarative scenario packs for the FCR stack.
//!
//! A **pack** is one JSON file describing a complete workload:
//! topology, channel/sensing statistics, R-D traffic mix, allocation
//! schemes, seeds, and optionally a mobility/handover model and a
//! session churn process (Poisson / diurnal / flash-crowd arrivals,
//! correlated primary-user bursts). The same file drives the
//! batch simulator (`fcr-experiments scenario`), the always-on service
//! (`fcr-serve` churn replay), and the conformance suites — so "the
//! figure-5 experiment" is a reviewable artifact, not a code path.
//!
//! Guarantees the test suites pin down:
//!
//! - **Bit-identity with the Rust constructors**: packs expressing the
//!   paper topologies build *exactly* the scenario the hand-written
//!   constructors build, on both the fluid and packet engines.
//! - **Canonical form**: [`Pack::to_json`] is a fixed point — parse
//!   then render reproduces a canonical file byte for byte.
//! - **Pointed errors**: malformed packs fail with the dotted path of
//!   the offending field (`channel.p01`, `topology.fbss[2].radius`).
//! - **Determinism**: walks, arrivals, holds, and burst windows are
//!   pure functions of `(pack seed, ordinal)`; the rendered trace is
//!   byte-stable under every [`fcr_runtime::ShardPolicy`].
//!
//! # Quick start
//!
//! ```
//! use fcr_scenario::Pack;
//!
//! let pack = Pack::generate(7); // or Pack::from_json(&file_contents)?
//! let session = pack.session(); // fully configured SimSession
//! let result = session.run(pack.schemes[0]);
//! assert_eq!(result.results().len(), pack.runs as usize);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod arrivals;
pub mod build;
pub mod churn;
pub mod error;
pub mod mobility;
pub mod pack;
pub mod shipped;
pub mod trace;

pub use arrivals::{rate_at, sample_poisson, PuBurstWindows};
pub use churn::{ChurnDriver, ChurnEvent, ChurnEventKind, ChurnReport, ChurnSchedule};
pub use error::PackError;
pub use mobility::{Handover, MobilityModel, Walker};
pub use pack::{
    ArrivalSpec, ChannelSpec, ChurnSpec, GeoFbs, MobilitySpec, Pack, PuBurstSpec, TopologySpec,
    TrafficSpec, PACK_SCHEMA_VERSION,
};
pub use trace::render_trace;
