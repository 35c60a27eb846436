//! Simulation-wide parameters.

use crate::model::comm::CommModel;
use crate::model::exec_time::ExecTimeModel;
use crate::model::fidelity::{FidelityModel, FidelityModelKind};
use qcs_calibration::ErrorScoreWeights;
use serde::{Deserialize, Serialize};

/// When a multi-device job returns its qubits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReleasePolicy {
    /// Each device's partition is released when *its own* sub-job finishes
    /// (`τᵢ` per device). This matches SimPy-style per-device sub-job
    /// processes and is required to reproduce Table 2's ordering — holding
    /// a fast device hostage for a slow co-device's duration would make
    /// the speed policy slower than the error-aware one.
    PerDevice,
    /// All qubits are held until the job fully completes (execution max +
    /// communication), the literal reading of Algorithm 1 line 14. Kept as
    /// an ablation.
    AtJobEnd,
}

/// All tunable model parameters of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimParams {
    /// Execution-time model (Eq. 3 constants).
    pub exec: ExecTimeModel,
    /// Fidelity model (Eqs. 4–8).
    pub fidelity: FidelityModel,
    /// Communication model (Eq. 9 + the φ penalty of Eq. 8).
    pub comm: CommModel,
    /// Error-score weights (Eq. 2).
    pub error_weights: ErrorScoreWeights,
    /// Qubit release discipline.
    pub release: ReleasePolicy,
    /// Backfilling depth of the cloud scheduler: `0` is strict FIFO with
    /// head-of-line blocking (the paper's semantics); `d > 0`
    /// lets the scheduler dispatch any of the first `d` queued jobs behind
    /// a blocked head (EASY-style backfilling, an extension).
    pub backfill_depth: usize,
    /// Validate allocations against device coupling maps by extracting an
    /// explicit connected sub-graph per partition (§5.2 exact mode) instead
    /// of the paper's default black-box connectivity assumption.
    pub exact_connectivity: bool,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            exec: ExecTimeModel::case_study(),
            fidelity: FidelityModel {
                kind: FidelityModelKind::Section6,
            },
            comm: CommModel::default(),
            error_weights: ErrorScoreWeights::default(),
            release: ReleasePolicy::PerDevice,
            backfill_depth: 0,
            exact_connectivity: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let p = SimParams::default();
        assert_eq!(p.comm.phi, 0.95);
        assert_eq!(p.comm.lambda, 0.02);
        assert_eq!(p.error_weights.alpha, 0.5);
        assert!(!p.exact_connectivity);
    }

    #[test]
    fn serde_roundtrip() {
        let p = SimParams::default();
        let s = serde_json::to_string(&p).unwrap();
        let p2: SimParams = serde_json::from_str(&s).unwrap();
        assert_eq!(p, p2);
    }
}
