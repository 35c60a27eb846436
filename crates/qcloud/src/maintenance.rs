//! Device maintenance windows (failure/unavailability injection).
//!
//! Real quantum clouds take QPUs offline for recalibration. A
//! [`MaintenanceWindow`] marks a device *offline* from `start` to
//! `start + duration`: the scheduler's fleet view reports zero free qubits
//! for it, so no new sub-job is placed there, while in-flight sub-jobs
//! finish normally and release their qubits into the (invisible) pool —
//! a graceful drain, as with IBM's calibration jobs. When the window
//! closes the scheduler is woken, and the device reappears unless another
//! window or a crash still covers it.

use qcs_desim::{Coroutine, Ctx, Effect, Step};

use crate::simenv::{wake_scheduler, World};

/// Specification of one maintenance window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceWindow {
    /// Index of the device (within the cloud's device list).
    pub device: usize,
    /// Window start time (s).
    pub start: f64,
    /// Window duration (s), measured from `start`.
    pub duration: f64,
}

impl MaintenanceWindow {
    /// Validates the window parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.start < 0.0 || !self.start.is_finite() {
            return Err("maintenance start must be finite and non-negative".into());
        }
        if self.duration <= 0.0 || !self.duration.is_finite() {
            return Err("maintenance duration must be positive".into());
        }
        Ok(())
    }

    /// Window end time (`start + duration`).
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }

    /// Whether the device is offline at `t` (half-open `[start, end)`).
    pub fn contains(&self, t: f64) -> bool {
        self.start <= t && t < self.end()
    }
}

/// The set of *scheduled* maintenance windows — the scheduler-facing view
/// of planned unavailability.
///
/// [`OfflineFlags`] only answer "is this device offline *right now*?"; the
/// calendar answers the lookahead questions backfilling reservations need:
/// which capacity drops are coming, and when qubits released on an offline
/// device actually become placeable again. Windows are registered by
/// [`crate::QCloudSimEnv::schedule_maintenance`] before the run starts and
/// are immutable during it, so every answer is deterministic.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceCalendar {
    windows: Vec<MaintenanceWindow>,
}

impl MaintenanceCalendar {
    /// An empty calendar (no planned maintenance).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a window (must be pre-validated).
    pub fn add(&mut self, window: MaintenanceWindow) {
        self.windows.push(window);
    }

    /// All registered windows, in registration order.
    pub fn windows(&self) -> &[MaintenanceWindow] {
        &self.windows
    }

    /// Whether the calendar has no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows affecting `device`.
    pub fn windows_for(&self, device: usize) -> impl Iterator<Item = &MaintenanceWindow> {
        self.windows.iter().filter(move |w| w.device == device)
    }

    /// Number of scheduled windows covering `device` at `t`.
    pub fn active_at(&self, device: usize, t: f64) -> usize {
        self.windows_for(device).filter(|w| w.contains(t)).count()
    }

    /// The earliest instant `≥ t` at which `device` is online per the
    /// calendar: `t` itself when no window covers it, otherwise pushed
    /// past every (possibly chained/overlapping) covering window. This is
    /// where qubits released at `t` on the device become placeable.
    pub fn next_online_from(&self, device: usize, t: f64) -> f64 {
        let mut t = t;
        loop {
            let Some(w) = self.windows_for(device).find(|w| w.contains(t)) else {
                return t;
            };
            t = w.end();
        }
    }
}

/// Per-device offline flags: the scheduler's "is this device down right
/// now?" view.
#[derive(Debug)]
pub struct OfflineFlags {
    flags: Vec<bool>,
}

impl OfflineFlags {
    /// All devices online.
    pub fn new(n_devices: usize) -> Self {
        OfflineFlags {
            flags: vec![false; n_devices],
        }
    }

    /// Whether a device is currently offline.
    #[inline]
    pub fn is_offline(&self, device: usize) -> bool {
        self.flags[device]
    }

    /// Sets a device's offline state.
    pub fn set_offline(&mut self, device: usize, offline: bool) {
        self.flags[device] = offline;
    }

    /// Number of devices tracked.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether no devices are tracked.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }
}

/// The window coroutine: one outage of `device` on its shard over
/// `[start, end)`. Spawned by
/// [`crate::QCloudSimEnv::schedule_maintenance`].
pub(crate) struct MaintenanceProc {
    pub device: usize,
    pub start: f64,
    pub end: f64,
    pub shard: usize,
    /// Whether the outage was already opened synchronously (a window
    /// starting at t = 0), so the start edge must not count it again.
    pub opened: bool,
    pub phase: u8,
}

impl Coroutine<World> for MaintenanceProc {
    fn resume(&mut self, cx: &mut Ctx<'_, World>) -> Step {
        match self.phase {
            0 => {
                // Wait for the window to open.
                self.phase = 1;
                let delay = (self.start - cx.now()).max(0.0);
                Step::Wait(Effect::Timeout(delay))
            }
            1 => {
                if !self.opened {
                    cx.world.shards[self.shard].outage(self.device, true);
                }
                // Capacity just shrank: wake the scheduler so reservation
                // timelines are recomputed against the reduced fleet (no
                // new dispatch can appear from a shrink, but backfilling
                // disciplines re-issue availability-aware reservations).
                wake_scheduler(cx, self.shard);
                self.phase = 2;
                Step::Wait(Effect::Timeout((self.end - cx.now()).max(0.0)))
            }
            2 => {
                // Window over: close this outage and wake the scheduler so
                // queued jobs can use the device if nothing else holds it.
                cx.world.shards[self.shard].outage(self.device, false);
                wake_scheduler(cx, self.shard);
                Step::Done
            }
            _ => unreachable!("maintenance resumed after completion"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(MaintenanceWindow {
            device: 0,
            start: 10.0,
            duration: 100.0
        }
        .validate()
        .is_ok());
        assert!(MaintenanceWindow {
            device: 0,
            start: -1.0,
            duration: 100.0
        }
        .validate()
        .is_err());
        assert!(MaintenanceWindow {
            device: 0,
            start: 0.0,
            duration: 0.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn offline_flags_toggle() {
        let mut f = OfflineFlags::new(3);
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
        assert!(!f.is_offline(1));
        f.set_offline(1, true);
        assert!(f.is_offline(1));
        assert!(!f.is_offline(0));
        f.set_offline(1, false);
        assert!(!f.is_offline(1));
    }
}
