//! # qcs-workload — workload generation and job-file IO
//!
//! The paper's framework accepts jobs from "CSV/JSON files, or built-in
//! models" (§3, Fig. 4). This crate provides:
//!
//! * [`suite`] — named workload presets, including the exact §7 case-study
//!   configuration (1'000 jobs, q ~ U\[130,250\], d ~ U\[5,20\],
//!   s ~ U\[10k,100k\]);
//! * [`arrival`] — open-system arrival processes (Poisson and the bursty
//!   two-state MMPP); diurnal traces come from
//!   `qcs_qcloud::jobgen::diurnal_arrivals`, the generator the service
//!   engine and its benchmark run on;
//! * [`circuits`] — circuit-backed jobs built from the circuit families;
//! * [`csv`] — deterministic job traces as CSV (hand-rolled: the format is
//!   five columns);
//! * [`json`] — the same via `serde_json`.

#![warn(missing_docs)]

pub mod arrival;
pub mod circuits;
pub mod csv;
pub mod json;
pub mod suite;

pub use arrival::{jobs_with_arrivals, poisson_process, Mmpp2};
pub use circuits::{circuit_workload, CircuitFamily, CircuitJob, CircuitWorkloadConfig};
pub use suite::{paper_case_study, smoke, Suite};
