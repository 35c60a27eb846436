//! Incrementally maintained fleet state for queue-aware scheduling — the
//! simulator's one qubit ledger.
//!
//! The paper models each device's free qubits as a SimPy container
//! (`device.container.level`); here [`CloudState`] is that ledger, and the
//! kernel keeps no capacity of its own. The seed scheduler rebuilt a
//! [`CloudView`] snapshot on **every** consult — an allocation plus a full
//! pass over the fleet per decision. [`CloudState`] removes that from the
//! hot path: it is updated once per reserve/release event and hands
//! schedulers a borrowed, pre-built view. Each device's level feeds a
//! time-weighted accumulator at every change point, which is where run
//! results read device utilisation from. On top of the instantaneous
//! snapshot it tracks what the snapshot cannot express: the in-flight
//! [`Lease`] table — which reservations will return, where, and when —
//! which is what EASY backfilling's shadow-time computation needs.
//!
//! The same discipline extends to the forward-looking picture: the state
//! owns an [`AvailabilityProfile`] (the fleet-total availability step
//! function the backfilling timelines query) and keeps it in sync
//! incrementally, never replaying the whole fleet per scheduler decision:
//!
//! * a reserve, release or revocation on an online device with no
//!   maintenance window moves the profile by that one lease's delta (its
//!   return instant in the device's and the aggregate deltas, the level
//!   change in the base); debug builds replay the device after every such
//!   update and assert the two agree;
//! * the same mutations on a crashed or offline device, or on one with a
//!   window, re-derive (replay) only the touched device's slice, as do
//!   window registration and `refresh` for devices whose offline flag is
//!   set or just flipped.

use crate::broker::{CloudView, DeviceView};
use crate::config::{ReleasePolicy, SimParams};
use crate::device::DeviceId;
use crate::job::{JobId, QJob};
use crate::maintenance::{MaintenanceCalendar, MaintenanceWindow, OfflineFlags};
use crate::model::comm::CommModel;
use crate::model::exec_time::ExecTimeModel;
use qcs_desim::TimeWeighted;

use super::timeline::AvailabilityProfile;

/// Static description of one device, used to seed the state.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Qubit capacity.
    pub capacity: u64,
    /// Error score (Eq. 2).
    pub error_score: f64,
    /// CLOPS rating.
    pub clops: f64,
    /// Quantum-volume layers `D = log2(QV)`.
    pub qv_layers: f64,
}

/// One in-flight reservation: `qubits` held on `device` for `job`, due back
/// at `release_at` (deterministic — execution times are closed-form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lease {
    /// The holding job.
    pub job: JobId,
    /// The device the qubits are reserved on.
    pub device: DeviceId,
    /// Reserved qubit count.
    pub qubits: u64,
    /// Simulation time at which the qubits return to the pool.
    pub release_at: f64,
}

/// Per-device mutable state: the device's slice of the qubit ledger.
#[derive(Debug, Clone)]
struct DeviceState {
    capacity: u64,
    /// Actual free qubits, *ignoring* the offline mask (in-flight sub-jobs
    /// keep draining/filling an offline device's pool invisibly).
    level: u64,
    /// Time-weighted level statistics, fed a `(t, level)` change point at
    /// every reserve, release and revocation: the source of both the
    /// view's `mean_utilization` column and the run's device utilisation.
    stats: TimeWeighted,
    offline: bool,
}

/// The incrementally maintained fleet state handed to [`super::Scheduler`]s.
///
/// Invariants (checked in debug builds and by `tests/scheduler_proptests`):
/// free ≤ capacity per device; the lease table's per-device totals equal
/// `capacity − level`; offline devices advertise zero free qubits in the
/// view while their true level keeps evolving underneath.
#[derive(Debug)]
pub struct CloudState {
    devices: Vec<DeviceState>,
    view: CloudView,
    leases: Vec<Lease>,
    exec: ExecTimeModel,
    comm: CommModel,
    release: ReleasePolicy,
    calendar: MaintenanceCalendar,
    now: f64,
    /// Incrementally maintained no-new-work availability step function
    /// (see [`AvailabilityProfile`]); every mutation below moves the
    /// touched device's slice by a lease delta or re-derives it, so it
    /// always equals a from-scratch rebuild.
    profile: AvailabilityProfile,
}

impl CloudState {
    /// Builds the state for a fleet at `t = 0` with every device idle.
    pub fn new(specs: &[DeviceSpec], params: &SimParams) -> Self {
        let devices: Vec<DeviceState> = specs
            .iter()
            .map(|s| DeviceState {
                capacity: s.capacity,
                level: s.capacity,
                stats: TimeWeighted::new(0.0, s.capacity as f64),
                offline: false,
            })
            .collect();
        let view = CloudView {
            devices: specs
                .iter()
                .enumerate()
                .map(|(i, s)| DeviceView {
                    id: DeviceId(i as u32),
                    free: s.capacity,
                    capacity: s.capacity,
                    busy_fraction: 0.0,
                    mean_utilization: 0.0,
                    error_score: s.error_score,
                    clops: s.clops,
                    qv_layers: s.qv_layers,
                })
                .collect(),
        };
        let mut st = CloudState {
            devices,
            view,
            leases: Vec::new(),
            exec: params.exec,
            comm: params.comm,
            release: params.release,
            calendar: MaintenanceCalendar::new(),
            now: 0.0,
            profile: AvailabilityProfile::empty(),
        };
        st.profile = AvailabilityProfile::from_state(&st);
        st
    }

    /// Re-derives one device's slice of the availability profile after a
    /// mutation touching it (flag flip, window, or a lease change the
    /// lease-delta path does not cover).
    fn sync_profile_device(&mut self, di: usize) {
        let CloudState {
            devices,
            leases,
            calendar,
            profile,
            ..
        } = self;
        profile.rebuild_device(di, devices[di].level, devices[di].offline, leases, calendar);
    }

    /// Brings the profile up to date after one lease of `qubits` on
    /// `device`, due at `release_at`, joined (`joined`) or left the lease
    /// table, its level change already applied. On an online device whose
    /// slice was derived online and that has no maintenance window the
    /// lease moves the profile by its own delta
    /// ([`AvailabilityProfile::shift_lease`]), which debug builds check
    /// against a replay; anywhere else the device is replayed.
    fn sync_profile_lease(&mut self, device: DeviceId, qubits: u64, release_at: f64, joined: bool) {
        let di = device.index();
        let fast = !self.devices[di].offline
            && !self.profile.derived_offline_flag(di)
            && self.calendar.windows_for(di).next().is_none();
        if !fast {
            self.sync_profile_device(di);
            return;
        }
        let q = qubits as i64;
        self.profile
            .shift_lease(di, if joined { q } else { -q }, release_at);
        if cfg!(debug_assertions) {
            let CloudState {
                devices,
                leases,
                calendar,
                profile,
                ..
            } = self;
            profile.assert_device_replays(di, devices[di].level, leases, calendar);
        }
    }

    /// Registers a scheduled maintenance window with the state's calendar,
    /// making it visible to availability-aware scheduling disciplines
    /// (called by [`crate::QCloudSimEnv::schedule_maintenance`] before the
    /// run starts; immutable afterwards).
    pub fn add_maintenance_window(&mut self, window: MaintenanceWindow) {
        self.calendar.add(window);
        if window.device < self.devices.len() {
            self.sync_profile_device(window.device);
        }
    }

    /// The incrementally maintained availability profile, folded to the
    /// last [`CloudState::refresh`] — the read-only input to
    /// [`super::CapacityTimeline`] queries.
    pub fn profile(&self) -> &AvailabilityProfile {
        &self.profile
    }

    /// The scheduled-maintenance calendar (planned unavailability the
    /// reservation timeline folds into availability profiles).
    pub fn maintenance(&self) -> &MaintenanceCalendar {
        &self.calendar
    }

    /// The instant the state was last refreshed to.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The pre-built broker-facing snapshot (offline devices masked to zero
    /// free qubits). Valid as of the last [`CloudState::refresh`].
    pub fn view(&self) -> &CloudView {
        &self.view
    }

    /// Copies the snapshot into a caller-owned scratch view without
    /// allocating (after the first call).
    pub fn copy_view_into(&self, out: &mut CloudView) {
        out.devices.clear();
        out.devices.extend_from_slice(&self.view.devices);
    }

    /// In-flight reservations, in dispatch order (not sorted by time).
    pub fn leases(&self) -> &[Lease] {
        &self.leases
    }

    /// Whether `device` is currently offline (maintenance), as of the last
    /// [`CloudState::refresh`].
    pub fn is_offline(&self, device: DeviceId) -> bool {
        self.devices[device.index()].offline
    }

    /// The device's *actual* free qubit level, ignoring the offline mask —
    /// what becomes placeable the instant a maintenance window closes
    /// (the masked [`CloudState::view`] shows zero for offline devices).
    pub fn actual_level(&self, device: DeviceId) -> u64 {
        self.devices[device.index()].level
    }

    /// Total free qubits across *online* devices.
    pub fn total_free(&self) -> u64 {
        self.view.devices.iter().map(|d| d.free).sum()
    }

    /// Time-weighted mean qubit utilisation of `device` over `[0, now]`
    /// (`1 − mean level / capacity`), offline periods included.
    pub fn mean_utilization(&self, device: DeviceId, now: f64) -> f64 {
        let d = &self.devices[device.index()];
        mean_utilization(&d.stats, d.capacity, now)
    }

    /// Advances the state's clock and recomputes the time-dependent view
    /// columns (`mean_utilization`) plus the offline masking. O(devices),
    /// allocation-free — this replaces the seed's per-consult snapshot
    /// rebuild.
    pub fn refresh(&mut self, now: f64, offline: &OfflineFlags) {
        self.now = now;
        for (i, (d, v)) in self
            .devices
            .iter_mut()
            .zip(self.view.devices.iter_mut())
            .enumerate()
        {
            d.offline = offline.is_offline(i);
            if d.offline {
                v.free = 0;
                v.busy_fraction = 1.0;
            } else {
                v.free = d.level;
                v.busy_fraction = busy_fraction(d.capacity, d.level);
            }
            v.mean_utilization = mean_utilization(&d.stats, d.capacity, now);
        }
        // Fold the profile forward, then re-derive devices whose offline
        // state changed (crash/recovery) or is still masked — an offline
        // device's slice depends on the calendar relative to `now`, not
        // just on recorded future deltas.
        self.profile.advance(now);
        for di in 0..self.devices.len() {
            if self.devices[di].offline || self.profile.derived_offline_flag(di) {
                self.sync_profile_device(di);
            }
        }
    }

    /// The deterministic hold duration of one sub-job of `job` on `device`
    /// under the configured release policy: per-device execution time for
    /// [`ReleasePolicy::PerDevice`]; the job-wide `max` execution plus the
    /// blocking communication delay for [`ReleasePolicy::AtJobEnd`]
    /// (`k` is the partition's device count).
    pub fn hold_seconds(&self, job: &QJob, device: DeviceId, k: usize, max_exec: f64) -> f64 {
        match self.release {
            ReleasePolicy::PerDevice => self.exec_seconds(job, device),
            ReleasePolicy::AtJobEnd => max_exec + self.comm.comm_seconds(job.num_qubits, k),
        }
    }

    /// Execution seconds of `job` on `device` (Eq. 3).
    pub fn exec_seconds(&self, job: &QJob, device: DeviceId) -> f64 {
        let v = &self.view.devices[device.index()];
        self.exec
            .execution_seconds(job.num_shots, v.qv_layers, v.clops)
    }

    /// The worst-case hold duration of `job` across the fleet: the slowest
    /// device's execution time, plus the full-fan-out communication delay
    /// under [`ReleasePolicy::AtJobEnd`]. An upper bound on how long any
    /// dispatch of the job can hold qubits — the pessimistic duration the
    /// conservative reservation timeline books for not-yet-placed jobs
    /// (longer-than-real reservations can only push *later* jobs' promised
    /// starts out, never break an issued promise).
    pub fn worst_hold_seconds(&self, job: &QJob) -> f64 {
        let worst_exec = self
            .view
            .devices
            .iter()
            .map(|d| {
                self.exec
                    .execution_seconds(job.num_shots, d.qv_layers, d.clops)
            })
            .fold(0.0f64, f64::max);
        match self.release {
            ReleasePolicy::PerDevice => worst_exec,
            ReleasePolicy::AtJobEnd => {
                worst_exec
                    + self
                        .comm
                        .comm_seconds(job.num_qubits, self.view.devices.len())
            }
        }
    }

    /// Execution seconds of `job` on the fastest device in the fleet — a
    /// lower bound on its service time, used by deadline-driven disciplines.
    pub fn best_exec_seconds(&self, job: &QJob) -> f64 {
        self.view
            .devices
            .iter()
            .map(|d| {
                self.exec
                    .execution_seconds(job.num_shots, d.qv_layers, d.clops)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Reserves `parts` for `job` at time `now`: decrements levels, records
    /// the change points, and registers one [`Lease`] per part with its
    /// deterministic release time. Panics on over-reservation (scheduler
    /// bug).
    pub fn reserve(&mut self, job: &QJob, parts: &[(DeviceId, u64)], now: f64) {
        let k = parts.len();
        let max_exec = parts
            .iter()
            .map(|&(d, _)| self.exec_seconds(job, d))
            .fold(0.0f64, f64::max);
        for &(dev, amt) in parts {
            let hold = self.hold_seconds(job, dev, k, max_exec);
            let d = &mut self.devices[dev.index()];
            assert!(
                amt <= d.level,
                "over-reservation: {amt} qubits on {dev:?} with {} free (job {:?})",
                d.level,
                job.id
            );
            assert!(!d.offline, "reservation on offline device {dev:?}");
            d.level -= amt;
            d.stats.record(now, d.level as f64);
            let v = &mut self.view.devices[dev.index()];
            v.free = d.level;
            v.busy_fraction = busy_fraction(d.capacity, d.level);
            let release_at = now + hold;
            self.leases.push(Lease {
                job: job.id,
                device: dev,
                qubits: amt,
                release_at,
            });
            self.sync_profile_lease(dev, amt, release_at, true);
        }
    }

    /// Releases `qubits` of `job` on `device` at time `now`, retiring the
    /// matching lease. Panics if no such lease exists (double release).
    pub fn release(&mut self, job: JobId, device: DeviceId, qubits: u64, now: f64) {
        let idx = self
            .leases
            .iter()
            .position(|l| l.job == job && l.device == device)
            .unwrap_or_else(|| panic!("no lease for job {job:?} on {device:?} (double release?)"));
        let lease = self.leases.swap_remove(idx);
        assert_eq!(
            lease.qubits, qubits,
            "lease mismatch: releasing {qubits} qubits, lease holds {}",
            lease.qubits
        );
        let d = &mut self.devices[device.index()];
        assert!(
            d.level + qubits <= d.capacity,
            "release overflows {device:?}: {} + {qubits} > {}",
            d.level,
            d.capacity
        );
        d.level += qubits;
        d.stats.record(now, d.level as f64);
        let v = &mut self.view.devices[device.index()];
        if !d.offline {
            v.free = d.level;
            v.busy_fraction = busy_fraction(d.capacity, d.level);
        }
        self.sync_profile_lease(device, qubits, lease.release_at, false);
    }

    /// Revokes **every** lease of `job` at time `now`, returning the
    /// `(device, qubits)` parts that were freed — the crash/failure path:
    /// the killed attempt never reaches its normal release, so the revoker
    /// returns its qubits instead. Levels are restored immediately; a
    /// revocation on an offline (crashed) device stays masked in the view
    /// exactly like a release. Returns an empty vector if the job holds
    /// nothing (e.g. a crash victim in its communication phase under
    /// [`ReleasePolicy::PerDevice`]).
    pub fn revoke_job(&mut self, job: JobId, now: f64) -> Vec<(DeviceId, u64)> {
        let mut freed = Vec::new();
        let mut i = 0;
        while i < self.leases.len() {
            if self.leases[i].job == job {
                let lease = self.leases.swap_remove(i);
                let d = &mut self.devices[lease.device.index()];
                assert!(
                    d.level + lease.qubits <= d.capacity,
                    "revocation overflows {:?}: {} + {} > {}",
                    lease.device,
                    d.level,
                    lease.qubits,
                    d.capacity
                );
                d.level += lease.qubits;
                d.stats.record(now, d.level as f64);
                let v = &mut self.view.devices[lease.device.index()];
                if !d.offline {
                    v.free = d.level;
                    v.busy_fraction = busy_fraction(d.capacity, d.level);
                }
                freed.push((lease.device, lease.qubits));
                self.sync_profile_lease(lease.device, lease.qubits, lease.release_at, false);
            } else {
                i += 1;
            }
        }
        freed
    }

    /// Asserts that every reservation has been returned (end-of-run check:
    /// qubit conservation across the whole simulation).
    pub fn assert_all_released(&self) {
        assert!(
            self.leases.is_empty(),
            "{} leases still outstanding at teardown",
            self.leases.len()
        );
        for (i, d) in self.devices.iter().enumerate() {
            assert_eq!(
                d.level, d.capacity,
                "device {i} ended with {} of {} qubits free",
                d.level, d.capacity
            );
        }
    }
}

#[inline]
fn busy_fraction(capacity: u64, level: u64) -> f64 {
    if capacity == 0 {
        0.0
    } else {
        (capacity - level) as f64 / capacity as f64
    }
}

#[inline]
fn mean_utilization(stats: &TimeWeighted, capacity: u64, now: f64) -> f64 {
    if capacity == 0 {
        0.0
    } else {
        1.0 - stats.mean_at(now) / capacity as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    fn specs(caps: &[u64]) -> Vec<DeviceSpec> {
        caps.iter()
            .map(|&c| DeviceSpec {
                capacity: c,
                error_score: 0.01,
                clops: 200_000.0,
                qv_layers: 7.0,
            })
            .collect()
    }

    fn job(q: u64) -> QJob {
        QJob {
            id: JobId(1),
            num_qubits: q,
            depth: 10,
            num_shots: 50_000,
            two_qubit_gates: 500,
            arrival_time: 0.0,
        }
    }

    #[test]
    fn reserve_release_roundtrip_conserves_qubits() {
        let mut st = CloudState::new(&specs(&[127, 127]), &SimParams::default());
        let j = job(200);
        let parts = vec![(DeviceId(0), 127), (DeviceId(1), 73)];
        st.reserve(&j, &parts, 10.0);
        assert_eq!(st.view().devices[0].free, 0);
        assert_eq!(st.view().devices[1].free, 54);
        assert_eq!(st.leases().len(), 2);
        assert!(st.leases().iter().all(|l| l.release_at > 10.0));
        st.release(j.id, DeviceId(0), 127, 50.0);
        st.release(j.id, DeviceId(1), 73, 50.0);
        st.assert_all_released();
    }

    #[test]
    fn view_matches_container_arithmetic() {
        // The paper's container arithmetic: mean level over [0, 2] with a
        // withdrawal of 30 at t = 1 and a deposit at t = 2 is 85/100.
        let mut st = CloudState::new(&specs(&[100]), &SimParams::default());
        let j = job(30);
        st.reserve(&j, &[(DeviceId(0), 30)], 1.0);
        st.release(j.id, DeviceId(0), 30, 2.0);
        let off = OfflineFlags::new(1);
        st.refresh(2.0, &off);
        let v = &st.view().devices[0];
        assert!((v.mean_utilization - 0.15).abs() < 1e-12);
        assert_eq!(
            st.mean_utilization(DeviceId(0), 2.0).to_bits(),
            v.mean_utilization.to_bits()
        );
        assert_eq!(v.free, 100);
        assert_eq!(v.busy_fraction, 0.0);
    }

    #[test]
    fn offline_masking_hides_capacity_but_tracks_level() {
        let mut st = CloudState::new(&specs(&[100, 100]), &SimParams::default());
        let j = job(40);
        st.reserve(&j, &[(DeviceId(0), 40)], 1.0);
        let mut off = OfflineFlags::new(2);
        off.set_offline(0, true);
        st.refresh(1.0, &off);
        assert_eq!(st.view().devices[0].free, 0);
        assert_eq!(st.view().devices[0].busy_fraction, 1.0);
        assert_eq!(st.total_free(), 100);
        // The release happens while offline: invisible in the view…
        st.release(j.id, DeviceId(0), 40, 2.0);
        assert_eq!(st.view().devices[0].free, 0);
        // …until the device comes back.
        off.set_offline(0, false);
        st.refresh(3.0, &off);
        assert_eq!(st.view().devices[0].free, 100);
        assert_eq!(st.total_free(), 200);
    }

    #[test]
    fn lease_release_times_follow_release_policy() {
        let j = job(200);
        let parts = vec![(DeviceId(0), 127), (DeviceId(1), 73)];
        let per_device = {
            let mut st = CloudState::new(&specs(&[127, 127]), &SimParams::default());
            st.reserve(&j, &parts, 0.0);
            st.leases().to_vec()
        };
        let at_end = {
            let params = SimParams {
                release: ReleasePolicy::AtJobEnd,
                ..SimParams::default()
            };
            let mut st = CloudState::new(&specs(&[127, 127]), &params);
            st.reserve(&j, &parts, 0.0);
            st.leases().to_vec()
        };
        // AtJobEnd holds everything through the max execution + comm, so
        // each lease is at least as long as its per-device counterpart.
        for (p, a) in per_device.iter().zip(&at_end) {
            assert!(a.release_at >= p.release_at);
        }
        // Identical devices here: per-device releases coincide.
        assert_eq!(per_device[0].release_at, per_device[1].release_at);
    }

    #[test]
    fn revoke_job_frees_every_lease_and_conserves_qubits() {
        let mut st = CloudState::new(&specs(&[127, 127]), &SimParams::default());
        let j = job(200);
        st.reserve(&j, &[(DeviceId(0), 127), (DeviceId(1), 73)], 0.0);
        let other = QJob {
            id: JobId(2),
            ..job(30)
        };
        st.reserve(&other, &[(DeviceId(1), 30)], 0.0);
        // Crash revokes job 1 everywhere; job 2's lease survives.
        let mut freed = st.revoke_job(j.id, 5.0);
        freed.sort();
        assert_eq!(freed, vec![(DeviceId(0), 127), (DeviceId(1), 73)]);
        assert_eq!(st.leases().len(), 1);
        assert_eq!(st.leases()[0].job, JobId(2));
        assert_eq!(st.actual_level(DeviceId(0)), 127);
        assert_eq!(st.actual_level(DeviceId(1)), 97);
        // Revoking a job with no leases is a no-op.
        assert!(st.revoke_job(j.id, 6.0).is_empty());
        st.release(JobId(2), DeviceId(1), 30, 10.0);
        st.assert_all_released();
    }

    #[test]
    fn revoke_on_offline_device_stays_masked_until_recovery() {
        let mut st = CloudState::new(&specs(&[100, 100]), &SimParams::default());
        let j = job(60);
        st.reserve(&j, &[(DeviceId(0), 60)], 0.0);
        let mut off = OfflineFlags::new(2);
        off.set_offline(0, true);
        st.refresh(1.0, &off);
        let freed = st.revoke_job(j.id, 1.0);
        assert_eq!(freed, vec![(DeviceId(0), 60)]);
        // True level restored, but the crashed device still advertises 0.
        assert_eq!(st.actual_level(DeviceId(0)), 100);
        assert_eq!(st.view().devices[0].free, 0);
        off.set_offline(0, false);
        st.refresh(2.0, &off);
        assert_eq!(st.view().devices[0].free, 100);
        st.assert_all_released();
    }

    #[test]
    #[should_panic(expected = "over-reservation")]
    fn over_reservation_panics() {
        let mut st = CloudState::new(&specs(&[100]), &SimParams::default());
        st.reserve(&job(120), &[(DeviceId(0), 120)], 0.0);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut st = CloudState::new(&specs(&[100]), &SimParams::default());
        let j = job(50);
        st.reserve(&j, &[(DeviceId(0), 50)], 0.0);
        st.release(j.id, DeviceId(0), 50, 1.0);
        st.release(j.id, DeviceId(0), 50, 1.0);
    }
}
