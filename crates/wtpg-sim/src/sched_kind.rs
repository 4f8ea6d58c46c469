//! Scheduler selection for runs and sweeps.

use serde::{Deserialize, Serialize};
use wtpg_core::sched::{by_name, Scheduler};

use crate::config::SimParams;

/// Which scheduler a run uses — the five of §4.1 plus the §4.4 hybrids.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SchedKind {
    /// Chain-WTPG scheduler (CC1).
    Chain,
    /// K-conflict WTPG scheduler (CC2) with the configured K.
    KWtpg,
    /// Atomic static locking.
    Asl,
    /// Cautious two-phase locking.
    C2pl,
    /// No data contention (upper bound).
    Nodc,
    /// C2PL + chain-form constraint (Experiment 4 lower bound).
    ChainC2pl,
    /// C2PL + K-conflict constraint (Experiment 4 lower bound).
    KC2pl,
    /// G-WTPG (extension): CHAIN's global strategy on arbitrary conflict
    /// graphs via the heuristic planner — no chain-form admission test.
    GWtpg,
}

impl SchedKind {
    /// Display label matching the paper's figures.
    pub fn label(self, params: &SimParams) -> String {
        match self {
            SchedKind::Chain => "CHAIN".to_string(),
            SchedKind::KWtpg => format!("K{}", params.k),
            SchedKind::Asl => "ASL".to_string(),
            SchedKind::C2pl => "C2PL".to_string(),
            SchedKind::Nodc => "NODC".to_string(),
            SchedKind::ChainC2pl => "CHAIN-C2PL".to_string(),
            SchedKind::KC2pl => format!("K{}-C2PL", params.k),
            SchedKind::GWtpg => "G-WTPG".to_string(),
        }
    }

    /// Builds a fresh scheduler instance.
    pub fn build(self, params: &SimParams) -> Box<dyn Scheduler> {
        let name = match self {
            SchedKind::Chain => "chain",
            SchedKind::KWtpg => "k2",
            SchedKind::Asl => "asl",
            SchedKind::C2pl => "c2pl",
            SchedKind::Nodc => "nodc",
            SchedKind::ChainC2pl => "chain-c2pl",
            SchedKind::KC2pl => "k2-c2pl",
            SchedKind::GWtpg => "gwtpg",
        };
        by_name(name, params.k, params.keeptime_ms).expect("every kind is in the name table")
    }

    /// The five schedulers of the main evaluation (§4.1).
    pub const MAIN_FIVE: [SchedKind; 5] = [
        SchedKind::Asl,
        SchedKind::Chain,
        SchedKind::KWtpg,
        SchedKind::C2pl,
        SchedKind::Nodc,
    ];

    /// The four contenders of Figures 6–9 (NODC excluded).
    pub const CONTENDERS: [SchedKind; 4] = [
        SchedKind::Asl,
        SchedKind::Chain,
        SchedKind::KWtpg,
        SchedKind::C2pl,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        let p = SimParams::paper_defaults();
        assert_eq!(SchedKind::Chain.label(&p), "CHAIN");
        assert_eq!(SchedKind::KWtpg.label(&p), "K2");
        assert_eq!(SchedKind::KC2pl.label(&p), "K2-C2PL");
    }

    #[test]
    fn builds_every_kind() {
        let p = SimParams::paper_defaults();
        for kind in [
            SchedKind::Chain,
            SchedKind::KWtpg,
            SchedKind::Asl,
            SchedKind::C2pl,
            SchedKind::Nodc,
            SchedKind::ChainC2pl,
            SchedKind::KC2pl,
            SchedKind::GWtpg,
        ] {
            let s = kind.build(&p);
            assert!(!s.name().is_empty());
        }
    }
}
