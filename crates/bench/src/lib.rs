//! # qcs-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | Artifact | Binary | Output |
//! |---|---|---|
//! | Table 2 (strategy comparison) | `table2` | stdout + `results/table2.csv` |
//! | Fig. 5 (PPO training curves) | `fig5` | stdout + `results/fig5_training.csv` |
//! | Fig. 6 (fidelity histograms) | `fig6` | stdout + `results/fig6_<strategy>.csv` |
//! | Ablations (φ, λ, weights, release policy, reward shaping, scale) | `ablation <name>` | stdout + `results/ablation_<name>.csv` |
//!
//! Criterion micro-benchmarks live under `benches/`.

#![warn(missing_docs)]

pub mod cli;
pub mod runner;
pub mod table;
pub mod train;

pub use runner::{run_strategy, StrategySpec};
pub use table::AsciiTable;
pub use train::{train_allocation_policy, TrainOutcome};
