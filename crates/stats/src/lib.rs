//! Statistics substrate for the `fcr` workspace.
//!
//! This crate bundles the numerical utilities shared by the femtocell
//! cognitive-radio simulator and the resource-allocation library:
//!
//! * [`rng`] — deterministic, splittable random-number streams so every
//!   simulation run is reproducible from a single `u64` seed;
//! * [`descriptive`] — running means, variances, and order statistics;
//! * [`ci`] — Student-t confidence intervals (the paper reports 95%
//!   confidence intervals over 10 simulation runs);
//! * [`fairness`] — Jain's fairness index, used to quantify the
//!   "well balanced among the three users" observation in Fig. 3;
//! * [`series`] — labelled (x, y ± ci) series used by the experiment
//!   drivers to print paper-style figure data.
//!
//! # Examples
//!
//! ```
//! use fcr_stats::descriptive::Summary;
//!
//! let summary: Summary = [34.1_f64, 35.0, 34.6].iter().copied().collect();
//! assert!((summary.mean() - 34.5667).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod ci;
pub mod descriptive;
pub mod fairness;
pub mod rng;
pub mod series;
pub mod special;

pub use ci::ConfidenceInterval;
pub use descriptive::Summary;
pub use fairness::jain_index;
pub use rng::SeedSequence;
pub use series::{Series, SeriesPoint};
