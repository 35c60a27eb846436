//! The quantum cloud: a fleet of devices.

use crate::device::{DeviceId, QDevice};
use qcs_calibration::{DeviceProfile, ErrorScoreWeights};

/// The device fleet (paper's `QCloud`): owns the registered devices. The
/// per-decision snapshot brokers consume ([`crate::broker::CloudView`]) is
/// built by the [`crate::sched::CloudState`] ledger.
#[derive(Debug)]
pub struct QCloud {
    devices: Vec<QDevice>,
}

impl QCloud {
    /// Registers every profile as a device.
    pub fn new(profiles: Vec<DeviceProfile>, weights: &ErrorScoreWeights) -> Self {
        assert!(!profiles.is_empty(), "a cloud needs at least one device");
        let devices = profiles
            .into_iter()
            .enumerate()
            .map(|(i, p)| QDevice::register(DeviceId(i as u32), p, weights))
            .collect();
        QCloud { devices }
    }

    /// Devices in the fleet.
    pub fn devices(&self) -> &[QDevice] {
        &self.devices
    }

    /// Device lookup.
    pub fn device(&self, id: DeviceId) -> &QDevice {
        &self.devices[id.index()]
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Total qubit capacity across the fleet.
    pub fn total_capacity(&self) -> u64 {
        self.devices.iter().map(|d| d.capacity()).sum()
    }

    /// Largest single-device capacity.
    pub fn max_device_capacity(&self) -> u64 {
        self.devices.iter().map(|d| d.capacity()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_calibration::ibm_fleet;

    #[test]
    fn fleet_capacities() {
        let cloud = QCloud::new(ibm_fleet(1), &ErrorScoreWeights::default());
        assert_eq!(cloud.len(), 5);
        assert_eq!(cloud.total_capacity(), 635);
        assert_eq!(cloud.max_device_capacity(), 127);
        assert!(!cloud.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cloud_rejected() {
        let _ = QCloud::new(vec![], &ErrorScoreWeights::default());
    }
}
