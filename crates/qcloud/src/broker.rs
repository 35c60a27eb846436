//! The broker interface: per-job device-selection policies (paper §5).
//!
//! A [`Broker`] answers the narrow question "how would you place *this*
//! job on *this* fleet snapshot?": it sees one [`QJob`] plus a
//! [`CloudView`] (free qubits, error scores, CLOPS, utilisation) and
//! returns an [`AllocationPlan`]:
//!
//! * [`AllocationPlan::Dispatch`] — concrete per-device partition summing
//!   to the job's qubit demand, *satisfiable right now* (the scheduler
//!   reserves atomically and starts execution);
//! * [`AllocationPlan::Wait`] — the policy declines to dispatch under the
//!   current availability (e.g. the error-aware policy insists on the
//!   premium devices); the scheduler re-consults after the next release.
//!
//! Queue-level decisions — *which* job to consider, in what order, and
//! what several placements to make atomically — live a layer above, in the
//! [`crate::sched::Scheduler`] trait. The paper's strict-FIFO loop runs
//! every broker through [`crate::sched::FifoAdapter`] (head-of-line
//! semantics preserved bit for bit); queue-aware disciplines (EASY
//! backfilling, priority orders) reuse the same brokers for placement
//! while re-ranking the queue themselves. Brokers therefore stay pure
//! placement policies: no queue state, no reservation bookkeeping.
//!
//! A discipline consults its broker several times per job, so `select`
//! is kept allocation-free in the common case, and sorts only what can
//! have changed:
//!
//! * a policy whose device order reads only static columns (speed,
//!   fidelity, hybrid) keeps it in a [`StaticOrder`], which sorts once per
//!   fleet and hands the stored order back on every later `select`;
//! * a policy whose order reads dynamic columns (fair reads utilisation,
//!   minfrag free qubits) still sorts on every `select`, into a
//!   `Vec<DeviceId>` it owns ([`CloudView::order_by`] fills a caller's
//!   buffer; the buffer stops growing at the fleet size).
//!
//! A partition is a [`Parts`], which keeps up to four `(device, qubits)`
//! pairs inline.

use crate::device::DeviceId;
use crate::inline_vec::InlineVec;
use crate::job::QJob;

/// A partition `(device, qubits)`: four parts inline, a heap spill past
/// that (a job rarely spans more than four devices).
pub type Parts = InlineVec<(DeviceId, u64), 4>;

/// Snapshot of one device for a scheduling decision.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceView {
    /// Device id.
    pub id: DeviceId,
    /// Free qubits right now.
    pub free: u64,
    /// Total qubit capacity.
    pub capacity: u64,
    /// Instantaneous busy fraction `1 − free/capacity`.
    pub busy_fraction: f64,
    /// Time-weighted mean utilisation since the simulation started — the
    /// load-balancing signal used by the fair policy (an instantaneous
    /// signal would just chase the most recent release).
    pub mean_utilization: f64,
    /// Error score (Eq. 2, lower is better).
    pub error_score: f64,
    /// CLOPS rating.
    pub clops: f64,
    /// Quantum-volume layers `D = log2(QV)`.
    pub qv_layers: f64,
}

/// Snapshot of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudView {
    /// Per-device snapshots, indexed by device id.
    pub devices: Vec<DeviceView>,
}

impl CloudView {
    /// Total free qubits across the fleet.
    pub fn total_free(&self) -> u64 {
        self.devices.iter().map(|d| d.free).sum()
    }

    /// Writes the device ids into `out` (cleared first), ordered by a
    /// comparison key; ties go to the lower position in `devices`.
    ///
    /// `out` is a buffer the caller keeps across calls (each policy owns
    /// one), so ordering allocates nothing once it has grown to the fleet
    /// size. The sort runs over positions, which are then mapped to ids.
    pub fn order_by<K: PartialOrd>(&self, key: impl Fn(&DeviceView) -> K, out: &mut Vec<DeviceId>) {
        out.clear();
        out.extend((0..self.devices.len() as u32).map(DeviceId));
        out.sort_by(|a, b| {
            key(&self.devices[a.index()])
                .partial_cmp(&key(&self.devices[b.index()]))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        for id in out.iter_mut() {
            *id = self.devices[id.index()].id;
        }
    }
}

/// A device order that reads only a view's *static* columns — `id`,
/// `clops` and `error_score` — sorted once per fleet instead of once per
/// `select`.
///
/// A policy owns one in place of an order buffer and hands [`sorted`] the
/// sort it would run ([`CloudView::order_by`] with its key). The sort runs
/// again only when the view's ids, `clops` bits or `error_score` bits
/// differ from those of the view it last sorted; otherwise the stored
/// order is returned, which is the order the sort would produce again. So
/// the closure's key may read those three columns and nothing else: not
/// `free`, `busy_fraction` or `mean_utilization`, which change on every
/// refresh. A fleet's static columns never change during a run, so after
/// a policy's first `select` every later one skips the sort.
///
/// [`sorted`]: StaticOrder::sorted
#[derive(Debug, Clone, Default)]
pub struct StaticOrder {
    /// `(id, clops bits, error_score bits)` of each device of the view the
    /// order was last sorted on.
    sorted_on: Vec<(DeviceId, u64, u64)>,
    order: Vec<DeviceId>,
}

impl StaticOrder {
    /// The device order of `view`: `sort(view, buffer)` fills the buffer
    /// when the static columns changed since the last call, and the stored
    /// order is returned as it is otherwise.
    pub fn sorted(
        &mut self,
        view: &CloudView,
        sort: impl FnOnce(&CloudView, &mut Vec<DeviceId>),
    ) -> &[DeviceId] {
        let columns = |d: &DeviceView| (d.id, d.clops.to_bits(), d.error_score.to_bits());
        let unchanged = self.sorted_on.len() == view.devices.len()
            && self
                .sorted_on
                .iter()
                .zip(&view.devices)
                .all(|(&seen, d)| seen == columns(d));
        if !unchanged {
            self.sorted_on.clear();
            self.sorted_on.extend(view.devices.iter().map(columns));
            sort(view, &mut self.order);
        }
        &self.order
    }
}

/// The outcome of a scheduling decision.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocationPlan {
    /// Dispatch now with this partition (device, qubits) — must sum to the
    /// job's qubit demand and respect current free capacities.
    Dispatch(Parts),
    /// Keep the job queued; re-evaluate after the next capacity release.
    Wait,
}

impl AllocationPlan {
    /// The number of devices used (0 for `Wait`).
    pub fn device_count(&self) -> usize {
        match self {
            AllocationPlan::Dispatch(parts) => parts.len(),
            AllocationPlan::Wait => 0,
        }
    }

    /// Validates a dispatch against a job and view (see
    /// [`AllocationPlan::validate_parts`]). `Wait` is always valid.
    pub fn validate(&self, job: &QJob, view: &CloudView) -> Result<(), String> {
        match self {
            AllocationPlan::Dispatch(parts) => Self::validate_parts(parts, job, view),
            AllocationPlan::Wait => Ok(()),
        }
    }

    /// Validates a partition against a job and view: parts sum to `q`, no
    /// zero parts, no duplicate devices, and every part fits current free
    /// capacity. Allocates nothing unless it reports an error.
    pub fn validate_parts(
        parts: &[(DeviceId, u64)],
        job: &QJob,
        view: &CloudView,
    ) -> Result<(), String> {
        if parts.is_empty() {
            return Err("dispatch with no parts".into());
        }
        let mut total = 0u64;
        for (i, &(dev, amt)) in parts.iter().enumerate() {
            if amt == 0 {
                return Err(format!("zero-qubit part on device {dev:?}"));
            }
            let Some(dv) = view.devices.get(dev.index()) else {
                return Err(format!("unknown device {dev:?}"));
            };
            if parts[..i].iter().any(|&(d, _)| d == dev) {
                return Err(format!("duplicate device {dev:?} in plan"));
            }
            if amt > dv.free {
                return Err(format!(
                    "part {amt} exceeds free capacity {} on {dev:?}",
                    dv.free
                ));
            }
            total += amt;
        }
        if total != job.num_qubits {
            return Err(format!(
                "plan allocates {total} qubits, job needs {}",
                job.num_qubits
            ));
        }
        Ok(())
    }
}

/// A device-selection policy.
pub trait Broker: Send {
    /// Decides how to allocate `job` given the current fleet state.
    fn select(&mut self, job: &QJob, view: &CloudView) -> AllocationPlan;

    /// Policy name for reports.
    fn name(&self) -> &str;

    /// Whether [`Broker::select`] changes this broker's state even for a
    /// job the view's free qubits cannot hold, where no valid plan exists
    /// and the answer is [`AllocationPlan::Wait`]: `random` shuffles on
    /// every call. A discipline may skip such a consult only when this is
    /// `false` (the default), so a stateful policy keeps the stream the
    /// FIFO discipline draws. A wrapping broker forwards it.
    fn draws_when_unplaceable(&self) -> bool {
        false
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::job::JobId;

    pub(crate) fn test_view(frees: &[u64]) -> CloudView {
        CloudView {
            devices: frees
                .iter()
                .enumerate()
                .map(|(i, &free)| DeviceView {
                    id: DeviceId(i as u32),
                    free,
                    capacity: 127,
                    busy_fraction: 1.0 - free as f64 / 127.0,
                    mean_utilization: 1.0 - free as f64 / 127.0,
                    error_score: 0.01 + i as f64 * 0.001,
                    clops: 220_000.0 - i as f64 * 10_000.0,
                    qv_layers: 7.0,
                })
                .collect(),
        }
    }

    pub(crate) fn test_job(q: u64) -> QJob {
        QJob {
            id: JobId(0),
            num_qubits: q,
            depth: 10,
            num_shots: 50_000,
            two_qubit_gates: 500,
            arrival_time: 0.0,
        }
    }

    #[test]
    fn view_total_free_and_ordering() {
        let v = test_view(&[100, 50, 127]);
        assert_eq!(v.total_free(), 277);
        let mut order = vec![DeviceId(9)];
        v.order_by(|d| std::cmp::Reverse(d.free), &mut order);
        assert_eq!(order, vec![DeviceId(2), DeviceId(0), DeviceId(1)]);
        v.order_by(|d| d.error_score, &mut order);
        assert_eq!(order, vec![DeviceId(0), DeviceId(1), DeviceId(2)]);
    }

    #[test]
    fn plan_validation_catches_errors() {
        let v = test_view(&[100, 50]);
        let job = test_job(120);
        let ok = AllocationPlan::Dispatch(vec![(DeviceId(0), 100), (DeviceId(1), 20)].into());
        assert!(ok.validate(&job, &v).is_ok());
        assert_eq!(ok.device_count(), 2);

        let short = AllocationPlan::Dispatch(vec![(DeviceId(0), 100)].into());
        assert!(short.validate(&job, &v).unwrap_err().contains("needs 120"));

        let over = AllocationPlan::Dispatch(vec![(DeviceId(1), 120)].into());
        assert!(over
            .validate(&job, &v)
            .unwrap_err()
            .contains("exceeds free"));

        let dup = AllocationPlan::Dispatch(vec![(DeviceId(0), 60), (DeviceId(0), 60)].into());
        assert!(dup.validate(&job, &v).unwrap_err().contains("duplicate"));

        let zero = AllocationPlan::Dispatch(vec![(DeviceId(0), 0), (DeviceId(1), 120)].into());
        assert!(zero.validate(&job, &v).unwrap_err().contains("zero-qubit"));

        assert!(AllocationPlan::Wait.validate(&job, &v).is_ok());
        assert_eq!(AllocationPlan::Wait.device_count(), 0);
    }
}
