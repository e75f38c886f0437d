//! Cognitive-radio spectrum substrate (Section III of Hu & Mao,
//! ICDCS 2011).
//!
//! This crate models everything between the physical spectrum and the
//! resource allocator:
//!
//! * [`markov`] — each licensed channel's primary-user occupancy as a
//!   two-state discrete-time Markov chain (eq. (1));
//! * [`primary`] — the collection of `M` licensed channels plus the
//!   common unlicensed channel, evolved slot by slot;
//! * [`sensing`] — imperfect spectrum sensors with false-alarm
//!   probability ε and miss-detection probability δ;
//! * [`fusion`] — the Bayesian availability posterior
//!   `P^A_m(Θ⃗)` of eqs. (2)–(4), in batch, iterative, and log-domain
//!   forms;
//! * [`access`] — the collision-bounded probabilistic access rule of
//!   eqs. (5)–(7) producing the available set `A(t)` and the expected
//!   number of available channels `G_t`;
//! * [`fading`] — Rayleigh block fading with SINR-threshold decoding
//!   (eq. (8)) and a log-distance path-loss model.
//!
//! # Examples
//!
//! Sense a channel, fuse three noisy observations, and decide access:
//!
//! ```
//! use fcr_spectrum::fusion::AvailabilityPosterior;
//! use fcr_spectrum::sensing::{Observation, SensorProfile};
//! use fcr_spectrum::access::AccessPolicy;
//!
//! let sensor = SensorProfile::new(0.3, 0.3)?; // ε = δ = 0.3
//! let mut posterior = AvailabilityPosterior::new(0.4)?; // prior busy prob. η = 0.4
//! for obs in [Observation::Idle, Observation::Idle, Observation::Busy] {
//!     posterior.update(&sensor, obs);
//! }
//! let policy = AccessPolicy::new(0.2)?; // γ = 0.2
//! let p_access = policy.access_probability(posterior.probability());
//! assert!((0.0..=1.0).contains(&p_access));
//! # Ok::<(), fcr_spectrum::SpectrumError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod access;
pub mod estimation;
pub mod fading;
pub mod fusion;
pub mod markov;
pub mod primary;
pub mod sensing;
pub mod streams;

mod error;

pub use access::{AccessOutcome, AccessPolicy, ThresholdPolicy};
pub use error::SpectrumError;
pub use estimation::TransitionCounts;
pub use fading::{
    BlockFadingLink, LinkQuality, NakagamiBlockFading, PathLoss, RayleighBlockFading,
};
pub use fusion::AvailabilityPosterior;
pub use markov::{ChannelState, TwoStateMarkov};
pub use primary::{ChannelId, PrimaryNetwork};
pub use sensing::{Observation, SensorProfile};
pub use streams::{gop_streams, spectrum_streams, GopStreams, SpectrumStreams};
