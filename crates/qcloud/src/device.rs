//! Quantum devices (QPUs) inside the simulation.

use crate::model::fidelity::DeviceErrorRates;
use qcs_calibration::{DeviceProfile, ErrorScoreWeights};

/// Index of a device within one [`crate::QCloud`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A QPU registered in the cloud: static profile plus the cached
/// aggregates the scheduler reads on every decision. Its free qubits are
/// tracked by the scheduler-facing [`crate::sched::CloudState`] ledger.
#[derive(Debug, Clone)]
pub struct QDevice {
    /// Device index within the cloud.
    pub id: DeviceId,
    /// Profile: spec, coupling map, calibration.
    pub profile: DeviceProfile,
    /// Cached device-average error rates for the fidelity model.
    pub error_rates: DeviceErrorRates,
    /// Cached error score (Eq. 2).
    pub error_score: f64,
}

impl QDevice {
    /// Registers a device and caches its calibration aggregates.
    pub fn register(id: DeviceId, profile: DeviceProfile, weights: &ErrorScoreWeights) -> Self {
        let error_rates = DeviceErrorRates {
            single_qubit: profile.calibration.avg_rx_error(),
            two_qubit: profile.calibration.avg_two_qubit_error(),
            readout: profile.calibration.avg_readout_error(),
        };
        let error_score = profile.error_score(weights);
        QDevice {
            id,
            profile,
            error_rates,
            error_score,
        }
    }

    /// Refreshes cached aggregates after the profile's calibration changed
    /// (drift studies).
    pub fn refresh_calibration(&mut self, weights: &ErrorScoreWeights) {
        self.error_rates = DeviceErrorRates {
            single_qubit: self.profile.calibration.avg_rx_error(),
            two_qubit: self.profile.calibration.avg_two_qubit_error(),
            readout: self.profile.calibration.avg_readout_error(),
        };
        self.error_score = self.profile.error_score(weights);
    }

    /// Qubit capacity.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.profile.spec.num_qubits as u64
    }

    /// CLOPS rating.
    #[inline]
    pub fn clops(&self) -> f64 {
        self.profile.spec.clops
    }

    /// Quantum-volume layer depth `D = log2(QV)`.
    #[inline]
    pub fn qv_layers(&self) -> f64 {
        self.profile.spec.qv_layers()
    }

    /// Device name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.profile.spec.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_calibration::ibm_fleet;

    #[test]
    fn register_caches_profile_aggregates() {
        let profile = ibm_fleet(1).remove(0);
        let d = QDevice::register(DeviceId(0), profile, &ErrorScoreWeights::default());
        assert_eq!(d.capacity(), 127);
        assert_eq!(d.name(), "ibm_strasbourg");
        assert_eq!(d.qv_layers(), 7.0);
        assert!(d.error_score > 0.0);
        assert!(d.error_rates.readout > 0.0);
    }

    #[test]
    fn refresh_tracks_calibration_changes() {
        let profile = ibm_fleet(2).remove(0);
        let w = ErrorScoreWeights::default();
        let mut d = QDevice::register(DeviceId(0), profile, &w);
        let before = d.error_score;
        for q in &mut d.profile.calibration.qubits {
            q.readout_error *= 2.0;
        }
        d.refresh_calibration(&w);
        assert!(d.error_score > before);
    }
}
