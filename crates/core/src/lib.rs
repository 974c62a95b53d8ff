//! # The online estimation framework (the paper's contribution)
//!
//! This crate implements §4 of Mishra & Koudas, *"A Lightweight Online
//! Framework For Query Progress Indicators"* (ICDE 2007), as a standalone
//! library over abstract tuple/key streams — it has no dependency on the
//! execution engine, which *drives* these estimators from inside its
//! operators.
//!
//! ## Map from paper to modules
//!
//! | Paper | Module |
//! |---|---|
//! | §4.1 confidence bounds (`β = Z_α / 2√t`) | [`confidence`] |
//! | exact frequency histograms (`N_i` counts) + memory accounting (Table 2) | [`freq_hist`] |
//! | §4.1 basic two-stream estimator; §4.1.1–4.1.2 incremental `D_{t+1}` | [`join_est`] |
//! | §4.1 multi-attribute conditions (conjunction/disjunction) | [`multi_est`] |
//! | §4.1.4 Algorithm 1: pipeline push-down, same/different attributes, derived histograms | [`pipeline_est`] |
//! | §4.2 Algorithm 2: incremental GEE | [`gee`] |
//! | §4.2 MLE estimator | [`mle`] |
//! | §4.2 Algorithm 3: adaptive recomputation interval | [`interval`] |
//! | §4.2 `γ²` skew measure and online estimator choice | [`chooser`] |
//! | §4.2 composed distinct-value tracking | [`distinct`] |
//! | dne (Chaudhuri et al.) and byte (Luo et al.) baselines, as rules over operator counters | [`baseline`] |
//! | §3/§4.4 `getnext()` model of progress | [`gnm`] |

pub mod baseline;
pub mod chooser;
pub mod confidence;
pub mod distinct;
pub mod freq_hist;
pub mod fx;
pub mod gee;
pub mod gnm;
pub mod interval;
pub mod join_est;
pub mod mle;
pub mod multi_est;
pub mod pipeline_est;

pub use chooser::{choose_estimator, EstimatorChoice, DEFAULT_TAU};
pub use confidence::{z_alpha, ConfidenceInterval, PowerSums};
pub use distinct::DistinctTracker;
pub use freq_hist::FreqHist;
pub use gee::Gee;
pub use gnm::{PipelineProgress, PipelineState, ProgressSnapshot};
pub use join_est::{
    JoinKind, OnceJoinEstimator, ProbeFragment, ProbeTotals, SymmetricJoinEstimator,
};
pub use mle::mle_estimate;
pub use multi_est::{conjunction_key, DisjunctionJoinEstimator};
pub use pipeline_est::{AttrSource, JoinSpec, PipelineEstimator};

/// Which cardinality-refinement strategy an instrumented operator runs.
///
/// `Once` is the paper's framework ("online cardinality estimation");
/// `Dne` and `Byte` are the published baselines it is compared against;
/// `Off` disables estimation entirely (the overhead baseline of Tables 3/4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EstimationMode {
    /// No online estimation; optimizer estimates are used unchanged.
    Off,
    /// The paper's framework: estimation pushed into preprocessing phases.
    #[default]
    Once,
    /// Driver-node estimator of Chaudhuri et al. (ICDE 2004).
    Dne,
    /// Byte-model estimator of Luo et al. (SIGMOD 2004), approximated.
    Byte,
}

impl EstimationMode {
    /// All modes, in the order used by benchmark tables.
    pub const ALL: [EstimationMode; 4] = [
        EstimationMode::Off,
        EstimationMode::Once,
        EstimationMode::Dne,
        EstimationMode::Byte,
    ];

    /// Short label used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            EstimationMode::Off => "off",
            EstimationMode::Once => "once",
            EstimationMode::Dne => "dne",
            EstimationMode::Byte => "byte",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            EstimationMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn default_mode_is_once() {
        assert_eq!(EstimationMode::default(), EstimationMode::Once);
    }
}
