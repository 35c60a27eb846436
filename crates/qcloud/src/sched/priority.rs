//! Priority-ordered scheduling disciplines (SJF, EDF, aging-weighted).
//!
//! Where FIFO serves arrival order and EASY backfilling only *tolerates*
//! queue jumps, a [`PriorityScheduler`] re-ranks the whole pending queue on
//! every consult and serves it greedily in priority order. Three rankings
//! are provided:
//!
//! * [`PriorityDiscipline::ShortestFirst`] — smallest qubit demand first
//!   (SJF): minimises mean wait/slowdown, at the cost of large-job latency;
//! * [`PriorityDiscipline::EarliestDeadline`] — each job's stretch deadline
//!   (`arrival + slack × best-case service`, the [`DeadlinePolicy`] already
//!   used by [`crate::sla::QosReport`]) orders the queue (EDF): minimises
//!   deadline misses under light load;
//! * [`PriorityDiscipline::WeightedAging`] — SJF tempered by waiting time
//!   (`q − aging · wait`): large jobs ratchet up the queue as they wait, a
//!   practical starvation guard.
//!
//! Greedy priority service is work-conserving but, unlike EASY, offers no
//! head-protection guarantee: a stream of small jobs can starve a large one
//! (use `WeightedAging`, or compose backfilling instead, when that
//! matters).

use super::fifo::{apply_parts, blocked_reason, validate_plan};
use super::{CloudState, Dispatch, Scheduler, SchedulingDecision, WaitReason};
use crate::broker::{AllocationPlan, Broker, CloudView};
use crate::job::QJob;
use crate::sla::DeadlinePolicy;

/// How the pending queue is ranked; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PriorityDiscipline {
    /// Smallest qubit demand first (ties: FIFO).
    ShortestFirst,
    /// Earliest stretch deadline first (ties: FIFO).
    EarliestDeadline(DeadlinePolicy),
    /// `num_qubits − aging · wait_seconds`, smallest first (ties: FIFO).
    WeightedAging {
        /// Qubits of priority gained per second of queueing.
        aging: f64,
    },
}

impl PriorityDiscipline {
    /// Registry name fragment (`sjf`, `edf`, `aging`).
    pub fn label(&self) -> &'static str {
        match self {
            PriorityDiscipline::ShortestFirst => "sjf",
            PriorityDiscipline::EarliestDeadline(_) => "edf",
            PriorityDiscipline::WeightedAging { .. } => "aging",
        }
    }
}

/// Serves the queue greedily in priority order over any [`Broker`] policy.
pub struct PriorityScheduler {
    broker: Box<dyn Broker>,
    discipline: PriorityDiscipline,
    name: String,
    view: CloudView,
    /// Scratch: queue indices still alive, in FIFO order.
    alive: Vec<u32>,
    /// Scratch: queue indices in priority order.
    ranked: Vec<u32>,
    /// Scratch: ranking keys, indexed by queue position.
    keys: Vec<f64>,
    /// How many top-priority jobs are examined per decision.
    scan_limit: usize,
}

impl PriorityScheduler {
    /// Wraps `broker` under `discipline` (scan capped at 64 jobs).
    pub fn new(broker: Box<dyn Broker>, discipline: PriorityDiscipline) -> Self {
        let name = format!("priority:{}+{}", discipline.label(), broker.name());
        PriorityScheduler {
            broker,
            discipline,
            name,
            view: CloudView {
                devices: Vec::new(),
            },
            alive: Vec::new(),
            ranked: Vec::new(),
            keys: Vec::new(),
            scan_limit: 64,
        }
    }

    /// Caps how many top-priority jobs are examined per decision.
    pub fn with_scan_limit(mut self, limit: usize) -> Self {
        self.scan_limit = limit.max(1);
        self
    }

    /// The ranking key: lower is served first.
    fn key(&self, job: &QJob, state: &CloudState) -> f64 {
        match self.discipline {
            PriorityDiscipline::ShortestFirst => job.num_qubits as f64,
            PriorityDiscipline::EarliestDeadline(policy) => {
                job.arrival_time + policy.slack_factor * state.best_exec_seconds(job)
            }
            PriorityDiscipline::WeightedAging { aging } => {
                job.num_qubits as f64 - aging * (state.now() - job.arrival_time)
            }
        }
    }
}

impl Scheduler for PriorityScheduler {
    fn decide(&mut self, queue: &[QJob], state: &CloudState) -> SchedulingDecision {
        state.copy_view_into(&mut self.view);
        self.ranked.clear();
        self.ranked.extend(0..queue.len() as u32);
        // Stable sort: ties stay in FIFO order.
        self.keys.clear();
        for j in queue {
            let k = self.key(j, state);
            self.keys.push(k);
        }
        let keys = std::mem::take(&mut self.keys);
        self.ranked
            .sort_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
        self.keys = keys;
        self.alive.clear();
        self.alive.extend(0..queue.len() as u32);

        let mut dispatches = Vec::new();
        for ri in 0..self.ranked.len().min(self.scan_limit) {
            let qi = self.ranked[ri];
            let job = &queue[qi as usize];
            let plan = self.broker.select(job, &self.view);
            if let AllocationPlan::Dispatch(parts) = plan {
                validate_plan(&*self.broker, job, &parts, &self.view);
                apply_parts(&mut self.view, &parts, state.now());
                // Translate the original index into the residual queue.
                let vi = self
                    .alive
                    .iter()
                    .position(|&x| x == qi)
                    .expect("dispatched job already removed");
                self.alive.remove(vi);
                dispatches.push(Dispatch {
                    queue_index: vi,
                    parts,
                });
            }
        }

        let wait = if self.alive.is_empty() {
            WaitReason::QueueDrained
        } else {
            // Report on the highest-priority survivor.
            let first = self
                .ranked
                .iter()
                .find(|x| self.alive.contains(x))
                .copied()
                .expect("alive non-empty");
            blocked_reason(&queue[first as usize], state, &self.view)
        };
        SchedulingDecision {
            dispatches,
            wait: Some(wait),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimParams;
    use crate::device::DeviceId;
    use crate::job::JobId;
    use crate::policies::SpeedBroker;
    use crate::sched::DeviceSpec;

    fn state(caps: &[u64]) -> CloudState {
        let specs: Vec<DeviceSpec> = caps
            .iter()
            .map(|&c| DeviceSpec {
                capacity: c,
                error_score: 0.01,
                clops: 200_000.0,
                qv_layers: 7.0,
            })
            .collect();
        CloudState::new(&specs, &SimParams::default())
    }

    fn job(id: u64, q: u64, arrival: f64) -> QJob {
        QJob {
            id: JobId(id),
            num_qubits: q,
            depth: 10,
            num_shots: 50_000,
            two_qubit_gates: 500,
            arrival_time: arrival,
        }
    }

    #[test]
    fn sjf_serves_smallest_first() {
        let mut st = state(&[127]);
        // Only 60 qubits free: the 200-qubit FIFO head cannot run, the
        // 40-qubit job (queued last) can.
        let holder = job(9, 67, 0.0);
        st.reserve(&holder, &[(DeviceId(0), 67)], 0.0);
        let q = [job(0, 200, 0.0), job(1, 40, 1.0), job(2, 15, 2.0)];
        let mut s = PriorityScheduler::new(
            Box::new(SpeedBroker::new()),
            PriorityDiscipline::ShortestFirst,
        );
        let d = s.decide(&q, &st);
        assert_eq!(d.dispatches.len(), 2, "both small jobs fit in 60 free");
        // Smallest (index 2) first: in the residual queue it sits at 2,
        // then job 1 at index 1.
        assert_eq!(d.dispatches[0].queue_index, 2);
        assert_eq!(d.dispatches[1].queue_index, 1);
        assert_eq!(d.wait, Some(WaitReason::InsufficientCapacity));
    }

    #[test]
    fn aging_promotes_old_large_jobs() {
        let mut st = state(&[127]);
        let off = crate::maintenance::OfflineFlags::new(1);
        st.refresh(1_000.0, &off);
        // A 100-qubit job that waited 1000 s outranks a fresh 20-qubit job
        // at aging = 0.1 q/s (100 − 100 < 20 − 0).
        let q = [job(0, 100, 0.0), job(1, 20, 1_000.0)];
        let mut s = PriorityScheduler::new(
            Box::new(SpeedBroker::new()),
            PriorityDiscipline::WeightedAging { aging: 0.1 },
        );
        let d = s.decide(&q, &st);
        assert_eq!(d.dispatches.len(), 2);
        assert_eq!(d.dispatches[0].queue_index, 0, "aged large job first");
    }

    #[test]
    fn edf_orders_by_stretch_deadline() {
        let st = state(&[127]);
        let mut s = PriorityScheduler::new(
            Box::new(SpeedBroker::new()),
            PriorityDiscipline::EarliestDeadline(DeadlinePolicy::default()),
        );
        // Same size, earlier arrival → earlier deadline → served first.
        let q = [job(0, 60, 500.0), job(1, 60, 0.0)];
        let d = s.decide(&q, &st);
        assert_eq!(d.dispatches.len(), 2);
        assert_eq!(d.dispatches[0].queue_index, 1);
        assert_eq!(d.wait, Some(WaitReason::QueueDrained));
    }

    #[test]
    fn name_composes() {
        let s = PriorityScheduler::new(
            Box::new(SpeedBroker::new()),
            PriorityDiscipline::ShortestFirst,
        );
        assert_eq!(s.name(), "priority:sjf+speed");
    }
}
