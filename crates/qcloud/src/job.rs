//! Quantum jobs: the unit of scheduling.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use qcs_desim::Xoshiro256StarStar;
use serde::{Deserialize, Serialize};

/// Unique job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// A hash map keyed by job ids (`JobId` or its raw `u64`), hashed by
/// [`IdHasher`] instead of the default SipHash. Its iteration order is
/// arbitrary, so a map of this type must only ever be looked up.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A fixed multiplicative hasher for integer keys, in the style of rustc's
/// Fx hash: one rotate, xor and multiply per word. It gives up SipHash's
/// resistance to crafted collisions: ids come from the job trace a run is
/// given, so a trace built to collide can only slow its own simulation.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A quantum job `J = (q, d, s, t₂)` (paper §4) with an arrival time.
///
/// Each job carries one circuit, abstracted to its resource footprint: qubit
/// count, depth, shot count and two-qubit-gate count (the paper's case study
/// abstracts gate sets the same way).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QJob {
    /// Unique id.
    pub id: JobId,
    /// Total qubits required, `q`.
    pub num_qubits: u64,
    /// Circuit depth, `d`.
    pub depth: u32,
    /// Number of measurement shots, `s`.
    pub num_shots: u64,
    /// Number of two-qubit gates, `t₂`.
    pub two_qubit_gates: u64,
    /// Arrival time in simulation seconds.
    pub arrival_time: f64,
}

impl QJob {
    /// Validates basic physicality.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_qubits == 0 {
            return Err(format!("job {:?}: zero qubits", self.id));
        }
        if self.depth == 0 {
            return Err(format!("job {:?}: zero depth", self.id));
        }
        if self.num_shots == 0 {
            return Err(format!("job {:?}: zero shots", self.id));
        }
        if self.arrival_time < 0.0 || !self.arrival_time.is_finite() {
            return Err(format!("job {:?}: bad arrival time", self.id));
        }
        Ok(())
    }
}

/// The case-study job distribution (§7): `q ~ U[130, 250]`,
/// `d ~ U[5, 20]`, `s ~ U[10'000, 100'000]`, and two-qubit-gate count
/// `t₂ = density · q · d` with `density ~ U[0.15, 0.35]` (the paper gives
/// no explicit `t₂` range; see DESIGN.md §2.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobDistribution {
    /// Inclusive qubit range.
    pub qubits: (u64, u64),
    /// Inclusive depth range.
    pub depth: (u32, u32),
    /// Inclusive shots range.
    pub shots: (u64, u64),
    /// Two-qubit gate density range (gates per qubit·depth).
    pub t2_density: (f64, f64),
}

impl Default for JobDistribution {
    fn default() -> Self {
        JobDistribution {
            qubits: (130, 250),
            depth: (5, 20),
            shots: (10_000, 100_000),
            t2_density: (0.15, 0.35),
        }
    }
}

impl JobDistribution {
    /// Draws one job. `arrival_time` is set by the caller's arrival process.
    pub fn sample(&self, id: JobId, arrival_time: f64, rng: &mut Xoshiro256StarStar) -> QJob {
        let q = rng.range_u64(self.qubits.0, self.qubits.1);
        let d = rng.range_u64(self.depth.0 as u64, self.depth.1 as u64) as u32;
        let s = rng.range_u64(self.shots.0, self.shots.1);
        let density = rng.range_f64(self.t2_density.0, self.t2_density.1);
        let t2 = (density * q as f64 * d as f64).round().max(1.0) as u64;
        QJob {
            id,
            num_qubits: q,
            depth: d,
            num_shots: s,
            two_qubit_gates: t2,
            arrival_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_within_ranges() {
        let dist = JobDistribution::default();
        let mut rng = Xoshiro256StarStar::new(1);
        for i in 0..1000 {
            let j = dist.sample(JobId(i), 0.0, &mut rng);
            assert!((130..=250).contains(&j.num_qubits));
            assert!((5..=20).contains(&j.depth));
            assert!((10_000..=100_000).contains(&j.num_shots));
            let density = j.two_qubit_gates as f64 / (j.num_qubits as f64 * j.depth as f64);
            assert!((0.10..=0.40).contains(&density), "density {density}");
            j.validate().unwrap();
        }
    }

    #[test]
    fn validation_rejects_degenerate_jobs() {
        let mut j = QJob {
            id: JobId(1),
            num_qubits: 10,
            depth: 5,
            num_shots: 100,
            two_qubit_gates: 4,
            arrival_time: 0.0,
        };
        assert!(j.validate().is_ok());
        j.num_qubits = 0;
        assert!(j.validate().is_err());
        j.num_qubits = 10;
        j.arrival_time = f64::NAN;
        assert!(j.validate().is_err());
    }

    #[test]
    fn sampling_is_deterministic() {
        let dist = JobDistribution::default();
        let mut r1 = Xoshiro256StarStar::new(9);
        let mut r2 = Xoshiro256StarStar::new(9);
        for i in 0..50 {
            assert_eq!(
                dist.sample(JobId(i), 1.0, &mut r1),
                dist.sample(JobId(i), 1.0, &mut r2)
            );
        }
    }

    #[test]
    fn serde_roundtrip() {
        let dist = JobDistribution::default();
        let mut rng = Xoshiro256StarStar::new(2);
        let j = dist.sample(JobId(3), 7.5, &mut rng);
        let s = serde_json::to_string(&j).unwrap();
        let j2: QJob = serde_json::from_str(&s).unwrap();
        assert_eq!(j, j2);
    }
}
