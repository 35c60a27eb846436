//! Named workload presets.

use qcs_qcloud::jobgen::batch_at_zero;
use qcs_qcloud::{JobDistribution, QJob};
use serde::{Deserialize, Serialize};

/// A named, reproducible workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Suite {
    /// Suite name.
    pub name: String,
    /// The sampled jobs.
    pub jobs: Vec<QJob>,
}

/// The §7 case study: 1'000 synthetic large circuits, all arriving at t=0,
/// drawn from the paper's stated ranges.
pub fn paper_case_study(seed: u64) -> Suite {
    Suite {
        name: "paper_case_study".into(),
        jobs: batch_at_zero(1_000, &JobDistribution::default(), seed),
    }
}

/// A quick variant for tests and examples (`n` jobs, same distribution).
pub fn smoke(n: usize, seed: u64) -> Suite {
    Suite {
        name: format!("smoke_{n}"),
        jobs: batch_at_zero(n, &JobDistribution::default(), seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_matches_paper_parameters() {
        let s = paper_case_study(42);
        assert_eq!(s.jobs.len(), 1_000);
        assert!(s.jobs.iter().all(|j| j.arrival_time == 0.0));
        assert!(s.jobs.iter().all(|j| (130..=250).contains(&j.num_qubits)));
        assert!(s.jobs.iter().all(|j| (5..=20).contains(&j.depth)));
        assert!(s
            .jobs
            .iter()
            .all(|j| (10_000..=100_000).contains(&j.num_shots)));
        // Every job must be forced to split on 127-qubit devices (Eq. 1).
        assert!(s.jobs.iter().all(|j| j.num_qubits > 127));
    }

    #[test]
    fn suites_are_deterministic() {
        assert_eq!(paper_case_study(7), paper_case_study(7));
        assert_ne!(paper_case_study(7), paper_case_study(8));
    }

    #[test]
    fn smoke_size() {
        assert_eq!(smoke(17, 1).jobs.len(), 17);
    }
}
