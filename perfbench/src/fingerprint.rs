//! Record-stream fingerprints: a 64-bit FNV-1a hash over every field of
//! every job record, so two runs agree exactly when their records do.

use qcs_qcloud::{FinalStatus, JobRecord};

/// An FNV-1a 64-bit hasher.
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes one 64-bit word, byte by byte.
    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a float by its bit pattern.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Mixes every field of every record, in order.
    pub fn records(&mut self, records: &[JobRecord]) {
        self.word(records.len() as u64);
        for r in records {
            self.word(r.job_id.0);
            self.word(r.num_qubits);
            self.word(r.depth as u64);
            self.word(r.num_shots);
            self.word(r.two_qubit_gates);
            for x in [
                r.arrival,
                r.start,
                r.exec_end,
                r.finish,
                r.fidelity,
                r.comm_seconds,
                r.wasted_qubit_s,
            ] {
                self.float(x);
            }
            self.word(r.parts.len() as u64);
            for &(dev, q) in &r.parts {
                self.word(dev as u64);
                self.word(q);
            }
            self.word(r.bypassed as u64);
            self.word(r.attempts as u64);
            self.word(r.throttled as u64);
            self.word(match r.final_status {
                FinalStatus::Pending => 0,
                FinalStatus::Completed => 1,
                FinalStatus::RetriesExhausted => 2,
                FinalStatus::Rejected => 3,
            });
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
