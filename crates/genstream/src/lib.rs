//! # osn-genstream — synthetic Renren-like trace generator
//!
//! The Renren event stream analysed by the paper is proprietary and was
//! never released. This crate is the substitution mandated by DESIGN.md:
//! a seeded generator producing a timestamped node/edge creation stream
//! that plants every *mechanism* the paper's analyses detect, so the
//! analysis pipelines in `osn-core` exercise exactly the code paths that
//! ran on the real data:
//!
//! * **Exponential-flavoured growth** with a decelerating relative rate,
//!   holiday dips and publicity surges (Figure 1a–b).
//! * **Front-loaded user activity**: each user draws a heavy-tailed edge
//!   budget and Pareto inter-edge gaps that lengthen with account age
//!   (Figures 2a–b, power-law inter-arrival).
//! * **Preferential attachment with decaying strength**: destinations are
//!   drawn from a mixture of super-linear PA, linear PA, triadic closure
//!   and uniform choice whose weights shift as the network grows
//!   (Figure 3's α(t) decay).
//! * **Triadic closure** produces clustering and community structure
//!   (Figures 1e, 4–7).
//! * **A two-network merge**: an independent competitor network born
//!   mid-trace, merged on a configurable day, with duplicate accounts
//!   going silent, internal-edge homophily, a decaying external-edge
//!   burst, and new-user takeover (Figures 8–9).
//!
//! Everything is deterministic given [`TraceConfig::seed`].

pub mod attachment;
pub mod baselines;
pub mod config;
pub mod generator;
mod growing;
pub mod growth;
pub mod lifecycle;

pub use baselines::{
    barabasi_albert, forest_fire, mixed_attachment, uniform_attachment, BaselineConfig,
};
pub use config::{BehaviorConfig, DipWindow, GrowthConfig, MergeConfig, TraceConfig};
pub use generator::TraceGenerator;
pub use growth::GrowthSchedule;
