//! Fleet routing: picks the region shard that serves each arriving job.
//!
//! The router sees a per-shard [`ShardLoad`] snapshot (read off the
//! shards' state at the arrival instant) and must pick among the *feasible*
//! shards — those whose total fleet capacity can hold the job at all.
//! Routing is deterministic: ties break towards the lowest region index,
//! and the hash policy uses a fixed integer mix of the job id, so a
//! seeded service run replays its placement exactly.

use crate::job::QJob;
use serde::{Deserialize, Serialize};

/// Load snapshot of one region shard at a routing instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardLoad {
    /// Jobs in the shard's pending queue.
    pub queue_depth: usize,
    /// Free (unreserved, online) qubits right now.
    pub free_qubits: u64,
    /// Total fleet capacity of the region (static).
    pub total_capacity: u64,
}

/// How the top-level router spreads traffic over region shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Stateless splitmix64 hash of the job id over the feasible shards —
    /// uniform spread, no load feedback.
    Hash,
    /// The feasible shard with the shortest pending queue (ties: most
    /// free qubits, then lowest region index).
    LeastLoaded,
    /// Jobs of the same size class stick to the same shard (qubit demand
    /// divided by 64 selects the class) — the cache/calibration-affinity
    /// analogue: repeat customers land where their circuits were tuned.
    Affinity,
}

impl std::fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RoutingPolicy::Hash => "hash",
            RoutingPolicy::LeastLoaded => "least-loaded",
            RoutingPolicy::Affinity => "affinity",
        })
    }
}

/// Parses `hash` / `least-loaded` / `affinity`.
impl std::str::FromStr for RoutingPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hash" => Ok(RoutingPolicy::Hash),
            "least-loaded" | "least_loaded" => Ok(RoutingPolicy::LeastLoaded),
            "affinity" => Ok(RoutingPolicy::Affinity),
            other => Err(format!("unknown routing policy '{other}'")),
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl RoutingPolicy {
    /// Whether routing reads *live* shard load (queue depth / free qubits)
    /// at the arrival instant, as opposed to only the static per-region
    /// capacity. It picks the service engine's kernel layout: a load-fed
    /// policy hosts every shard and the router on one kernel; a stateless
    /// one is routed up front, because its whole placement is a pure
    /// function of the job and the fleet shape, and gives every shard a
    /// kernel of its own.
    pub fn needs_load_feedback(&self) -> bool {
        matches!(self, RoutingPolicy::LeastLoaded)
    }

    /// Picks the shard for `job`, or `None` when no region can ever hold
    /// it (infeasible everywhere — the harness validates this away up
    /// front, so `None` is a caller bug in practice). Allocates nothing:
    /// the hash and affinity picks count their way to the chosen feasible
    /// shard.
    pub fn route(&self, job: &QJob, loads: &[ShardLoad]) -> Option<usize> {
        let feasible = || (0..loads.len()).filter(|&i| loads[i].total_capacity >= job.num_qubits);
        match self {
            RoutingPolicy::Hash | RoutingPolicy::Affinity => {
                let n = feasible().count();
                if n == 0 {
                    return None;
                }
                let k = if *self == RoutingPolicy::Hash {
                    (splitmix64(job.id.0) % n as u64) as usize
                } else {
                    (job.num_qubits / 64) as usize % n
                };
                feasible().nth(k)
            }
            RoutingPolicy::LeastLoaded => feasible().min_by(|&a, &b| {
                loads[a]
                    .queue_depth
                    .cmp(&loads[b].queue_depth)
                    .then(loads[b].free_qubits.cmp(&loads[a].free_qubits))
                    .then(a.cmp(&b))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    fn job(id: u64, qubits: u64) -> QJob {
        QJob {
            id: JobId(id),
            num_qubits: qubits,
            depth: 10,
            num_shots: 10_000,
            two_qubit_gates: 100,
            arrival_time: 0.0,
        }
    }

    fn loads(depths: &[usize]) -> Vec<ShardLoad> {
        depths
            .iter()
            .map(|&d| ShardLoad {
                queue_depth: d,
                free_qubits: 635,
                total_capacity: 635,
            })
            .collect()
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let l = loads(&[0, 0, 0, 0]);
        let mut hits = [0usize; 4];
        for id in 0..400 {
            let s = RoutingPolicy::Hash.route(&job(id, 100), &l).unwrap();
            assert_eq!(s, RoutingPolicy::Hash.route(&job(id, 100), &l).unwrap());
            hits[s] += 1;
        }
        // A uniform mix should land a sizeable share everywhere.
        assert!(hits.iter().all(|&h| h > 50), "skewed spread: {hits:?}");
    }

    #[test]
    fn least_loaded_picks_shortest_queue_with_index_ties() {
        let l = loads(&[5, 2, 2, 9]);
        assert_eq!(
            RoutingPolicy::LeastLoaded.route(&job(1, 100), &l),
            Some(1),
            "shortest queue, lowest index on tie"
        );
        // Free qubits break a depth tie before the index does.
        let mut l = loads(&[3, 3]);
        l[1].free_qubits = 700;
        l[1].total_capacity = 700;
        assert_eq!(RoutingPolicy::LeastLoaded.route(&job(1, 100), &l), Some(1));
    }

    #[test]
    fn affinity_is_sticky_per_size_class() {
        let l = loads(&[0, 0, 0]);
        let a = RoutingPolicy::Affinity.route(&job(1, 130), &l).unwrap();
        let b = RoutingPolicy::Affinity.route(&job(99, 140), &l).unwrap();
        assert_eq!(a, b, "same 64-qubit class routes together");
        let c = RoutingPolicy::Affinity.route(&job(2, 250), &l).unwrap();
        assert_ne!(a, c, "distant class lands elsewhere");
    }

    #[test]
    fn picks_match_indexing_the_collected_feasible_set() {
        // The reference: collect the feasible shards, then index into them.
        let reference = |policy: RoutingPolicy, job: &QJob, loads: &[ShardLoad]| {
            let feasible: Vec<usize> = (0..loads.len())
                .filter(|&i| loads[i].total_capacity >= job.num_qubits)
                .collect();
            if feasible.is_empty() {
                return None;
            }
            Some(match policy {
                RoutingPolicy::Hash => {
                    feasible[(splitmix64(job.id.0) % feasible.len() as u64) as usize]
                }
                RoutingPolicy::Affinity => {
                    feasible[(job.num_qubits / 64) as usize % feasible.len()]
                }
                RoutingPolicy::LeastLoaded => *feasible
                    .iter()
                    .min_by_key(|&&i| {
                        (
                            loads[i].queue_depth,
                            std::cmp::Reverse(loads[i].free_qubits),
                            i,
                        )
                    })
                    .unwrap(),
            })
        };
        // Every feasibility mask over four shards, with uneven loads.
        for mask in 0u32..16 {
            let l: Vec<ShardLoad> = (0..4)
                .map(|i| ShardLoad {
                    queue_depth: (i * 7) % 3,
                    free_qubits: 100 + i as u64 * 50,
                    total_capacity: if mask & (1 << i) != 0 { 635 } else { 100 },
                })
                .collect();
            for id in 0..64 {
                let j = job(id, 130 + id * 2);
                for policy in [
                    RoutingPolicy::Hash,
                    RoutingPolicy::LeastLoaded,
                    RoutingPolicy::Affinity,
                ] {
                    assert_eq!(
                        policy.route(&j, &l),
                        reference(policy, &j, &l),
                        "{policy} mask {mask:04b} job {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn infeasible_shards_are_skipped() {
        let mut l = loads(&[0, 9]);
        l[0].total_capacity = 100; // too small for a 200-qubit job
        assert_eq!(
            RoutingPolicy::LeastLoaded.route(&job(1, 200), &l),
            Some(1),
            "deep but feasible beats shallow but too small"
        );
        l[1].total_capacity = 100;
        assert_eq!(RoutingPolicy::Hash.route(&job(1, 200), &l), None);
    }
}
