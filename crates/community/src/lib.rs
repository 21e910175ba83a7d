//! # osn-community — community detection and dynamic tracking
//!
//! Implements the community machinery of Section 4 of the paper:
//!
//! * [`partition`] — node→community assignments with renumbering, sizes
//!   and membership extraction.
//! * [`modularity`](mod@modularity) — Newman modularity of a partition on a snapshot.
//! * [`louvain`](mod@louvain) — the Louvain algorithm with an explicit improvement
//!   threshold δ and an **incremental mode** where the previous snapshot's
//!   partition bootstraps the next run (the paper's key trick for stable
//!   tracking, after Blondel et al. 2008 and Greene et al. 2010).
//! * [`similarity`] — Jaccard similarity between communities.
//! * [`events`] — birth / death / merge / split evolution events.
//! * [`tracker`] — drives Louvain over a snapshot sequence, matches
//!   communities across snapshots by best Jaccard overlap, assigns
//!   persistent identities, emits evolution events, and accumulates the
//!   per-community feature histories used by the merge predictor
//!   (Figure 6b).

pub mod events;
pub mod louvain;
pub mod modularity;
pub mod partition;
pub mod similarity;
pub mod state;
pub mod tracker;

pub use events::EvolutionEvent;
pub use louvain::{louvain, LouvainConfig, LouvainResult};
pub use modularity::modularity;
pub use partition::Partition;
pub use similarity::jaccard;
pub use state::TrackerState;
pub use tracker::{
    CommunityRecord, CommunityTracker, SnapshotSummary, TrackerConfig, TrackerOutput, TrackerStep,
};
