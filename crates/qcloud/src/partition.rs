//! Qubit partitioning helpers (paper §5.2).
//!
//! These are the shared mechanics behind every policy: greedy filling of an
//! ordered device list, normalising continuous allocation weights into
//! integer partitions (the RL policy's action post-processing of §4.1), and
//! the optional exact connectivity check.

use crate::broker::{CloudView, Parts};
use crate::device::DeviceId;

/// Greedily fills `need` qubits from devices in the given order, taking
/// `min(remaining, free)` from each. Returns `None` when the ordered
/// devices cannot jointly supply `need` (caller should wait).
pub fn greedy_fill(order: &[DeviceId], view: &CloudView, need: u64) -> Option<Parts> {
    let mut remaining = need;
    let mut parts = Parts::new();
    for &id in order {
        if remaining == 0 {
            break;
        }
        let free = view.devices[id.index()].free;
        let take = remaining.min(free);
        if take > 0 {
            parts.push((id, take));
            remaining -= take;
        }
    }
    if remaining == 0 {
        Some(parts)
    } else {
        None
    }
}

/// Greedily fills `need` from devices in order using *full capacities*
/// instead of current availability — the quality-strict variant used by the
/// error-aware policy, which prefers waiting for its chosen devices over
/// spilling to noisier ones. Returns the target partition; the scheduler
/// dispatches it only once every part is actually free.
pub fn capacity_fill(order: &[DeviceId], view: &CloudView, need: u64) -> Parts {
    let mut remaining = need;
    let mut parts = Parts::new();
    for &id in order {
        if remaining == 0 {
            break;
        }
        let cap = view.devices[id.index()].capacity;
        let take = remaining.min(cap);
        if take > 0 {
            parts.push((id, take));
            remaining -= take;
        }
    }
    assert!(
        remaining == 0,
        "fleet capacity cannot hold the job ({need} qubits; this violates Eq. 1)"
    );
    parts
}

/// Reusable buffers for [`weights_to_parts_into`], so the RL training hot
/// path (one action post-processing per environment step) never allocates.
#[derive(Debug, Default, Clone)]
pub struct PartitionScratch {
    clamped: Vec<f64>,
    parts: Vec<u64>,
    order: Vec<usize>,
}

/// Converts continuous allocation weights into an integer partition of `q`
/// qubits (the §4.1 action post-processing):
///
/// 1. weights are clamped to `[0, 1]` and normalised: `ŵᵢ = wᵢ/(Σw + ε)`;
/// 2. provisional parts `round(ŵᵢ·q)` are clamped to each device's limit
///    (free qubits);
/// 3. the residual (from rounding / clamping) is distributed greedily to
///    devices with headroom, largest weight first.
///
/// Returns `None` if the limits cannot absorb `q` in total.
pub fn weights_to_parts(weights: &[f32], q: u64, limits: &[u64]) -> Option<Parts> {
    let mut scratch = PartitionScratch::default();
    let mut out = Parts::new();
    if weights_to_parts_into(weights, q, limits, &mut scratch, &mut out) {
        Some(out)
    } else {
        None
    }
}

/// Allocation-free form of [`weights_to_parts`]: writes the partition into
/// `out` (cleared first) using `scratch` buffers, returning `false` when
/// the limits cannot absorb `q` (`out` is left empty). Identical arithmetic
/// and results to the allocating form.
pub fn weights_to_parts_into(
    weights: &[f32],
    q: u64,
    limits: &[u64],
    scratch: &mut PartitionScratch,
    out: &mut Parts,
) -> bool {
    assert_eq!(weights.len(), limits.len(), "one weight per device");
    out.clear();
    let total_limit: u64 = limits.iter().sum();
    if total_limit < q {
        return false;
    }
    let eps = 1e-8f64;
    scratch.clamped.clear();
    scratch
        .clamped
        .extend(weights.iter().map(|&w| (w as f64).clamp(0.0, 1.0)));
    let clamped = &scratch.clamped;
    let sum: f64 = clamped.iter().sum::<f64>() + eps;

    scratch.parts.clear();
    scratch.parts.extend(
        clamped
            .iter()
            .zip(limits)
            .map(|(&w, &lim)| (((w / sum) * q as f64).round() as u64).min(lim)),
    );
    let parts = &mut scratch.parts;

    // Fix the sum: first trim overshoot (smallest weights first), then fill
    // undershoot (largest weights first).
    let mut assigned: u64 = parts.iter().sum();
    scratch.order.clear();
    scratch.order.extend(0..weights.len());
    let order = &mut scratch.order;
    order.sort_by(|&a, &b| clamped[b].partial_cmp(&clamped[a]).unwrap().then(a.cmp(&b)));

    while assigned > q {
        // Trim from the smallest-weight device holding qubits.
        let &i = order
            .iter()
            .rev()
            .find(|&&i| parts[i] > 0)
            .expect("assigned > 0 implies a non-empty part");
        let trim = (assigned - q).min(parts[i]);
        parts[i] -= trim;
        assigned -= trim;
    }
    while assigned < q {
        let mut progressed = false;
        for &i in order.iter() {
            if parts[i] < limits[i] {
                let add = (q - assigned).min(limits[i] - parts[i]);
                parts[i] += add;
                assigned += add;
                progressed = true;
                if assigned == q {
                    break;
                }
            }
        }
        if !progressed {
            return false; // cannot happen given the total_limit check
        }
    }

    out.extend(
        parts
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0)
            .map(|(i, &p)| (DeviceId(i as u32), p)),
    );
    true
}

/// §5.2 exact mode: checks that each part can be realised as a *connected*
/// sub-graph of free qubits on its device. The paper's default is the
/// black-box assumption (devices are well-connected, so any `aᵢ ≤ free`
/// admits a connected region); this function provides the exact variant for
/// validation studies.
pub fn connectivity_feasible(
    parts: &[(DeviceId, u64)],
    topologies: &[&qcs_topology::Graph],
) -> bool {
    parts.iter().all(|&(dev, amt)| {
        let g = topologies[dev.index()];
        qcs_topology::connected_subgraph_from(g, 0, amt as usize).is_some()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::tests::test_view;

    #[test]
    fn greedy_fill_spills_in_order() {
        let v = test_view(&[100, 50, 127]);
        let order = [DeviceId(0), DeviceId(1), DeviceId(2)];
        let parts = greedy_fill(&order, &v, 180).unwrap();
        assert_eq!(
            parts,
            vec![(DeviceId(0), 100), (DeviceId(1), 50), (DeviceId(2), 30)]
        );
    }

    #[test]
    fn greedy_fill_exact_fit_uses_fewest_devices() {
        let v = test_view(&[127, 127, 127]);
        let order = [DeviceId(0), DeviceId(1), DeviceId(2)];
        let parts = greedy_fill(&order, &v, 127).unwrap();
        assert_eq!(parts, vec![(DeviceId(0), 127)]);
        let parts = greedy_fill(&order, &v, 130).unwrap();
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn greedy_fill_insufficient_returns_none() {
        let v = test_view(&[10, 10, 10]);
        let order = [DeviceId(0), DeviceId(1), DeviceId(2)];
        assert!(greedy_fill(&order, &v, 31).is_none());
    }

    #[test]
    fn capacity_fill_ignores_availability() {
        let v = test_view(&[0, 0, 127]); // devices 0/1 fully busy
        let order = [DeviceId(0), DeviceId(1)];
        let parts = capacity_fill(&order, &v, 200);
        assert_eq!(parts, vec![(DeviceId(0), 127), (DeviceId(1), 73)]);
    }

    #[test]
    #[should_panic(expected = "Eq. 1")]
    fn capacity_fill_overflow_panics() {
        let v = test_view(&[127, 127]);
        let order = [DeviceId(0), DeviceId(1)];
        let _ = capacity_fill(&order, &v, 300);
    }

    #[test]
    fn weights_to_parts_sums_to_q() {
        let limits = [127u64, 127, 127, 127, 127];
        for (weights, q) in [
            (vec![1.0f32, 1.0, 1.0, 1.0, 1.0], 190u64),
            (vec![0.9, 0.1, 0.0, 0.0, 0.0], 250),
            (vec![0.0, 0.0, 0.0, 0.0, 1.0], 130),
            (vec![-1.0, 2.0, 0.5, 0.3, 0.1], 240), // out-of-range weights clamp
        ] {
            let parts = weights_to_parts(&weights, q, &limits).unwrap();
            let total: u64 = parts.iter().map(|&(_, p)| p).sum();
            assert_eq!(total, q, "weights {weights:?}");
            for &(d, p) in &parts {
                assert!(p <= limits[d.index()]);
                assert!(p > 0);
            }
        }
    }

    #[test]
    fn weights_to_parts_respects_limits() {
        let limits = [50u64, 30, 0, 127, 127];
        let weights = [1.0f32, 1.0, 1.0, 0.0, 0.0];
        let parts = weights_to_parts(&weights, 200, &limits).unwrap();
        let total: u64 = parts.iter().map(|&(_, p)| p).sum();
        assert_eq!(total, 200);
        // Device 2 has no capacity: must not appear.
        assert!(parts.iter().all(|&(d, _)| d != DeviceId(2)));
    }

    #[test]
    fn weights_to_parts_infeasible() {
        assert!(weights_to_parts(&[1.0, 1.0], 100, &[40, 40]).is_none());
    }

    #[test]
    fn into_form_matches_allocating_form_with_reused_scratch() {
        let limits = [127u64, 90, 0, 127, 60];
        let mut scratch = PartitionScratch::default();
        let mut out = Parts::new();
        for (weights, q) in [
            (vec![1.0f32, 1.0, 1.0, 1.0, 1.0], 190u64),
            (vec![0.9, 0.1, 0.0, 0.0, 0.0], 250),
            (vec![-1.0, 2.0, 0.5, 0.3, 0.1], 240),
            (vec![0.0, 0.0, 0.0, 0.0, 0.0], 130),
            (vec![1.0, 1.0, 1.0, 1.0, 1.0], 500), // infeasible
        ] {
            let expect = weights_to_parts(&weights, q, &limits);
            let ok = weights_to_parts_into(&weights, q, &limits, &mut scratch, &mut out);
            match expect {
                Some(parts) => {
                    assert!(ok);
                    assert_eq!(out, parts, "weights {weights:?}");
                }
                None => {
                    assert!(!ok);
                    assert!(out.is_empty());
                }
            }
        }
    }

    #[test]
    fn weights_to_parts_all_zero_weights_still_allocates() {
        // ε in the normaliser keeps Σw+ε > 0; the residual loop fills parts.
        let parts = weights_to_parts(&[0.0, 0.0, 0.0], 90, &[50, 50, 50]).unwrap();
        let total: u64 = parts.iter().map(|&(_, p)| p).sum();
        assert_eq!(total, 90);
    }

    #[test]
    fn connectivity_check_on_eagle() {
        let g = qcs_topology::heavy_hex_eagle();
        let tops = vec![&g, &g];
        assert!(connectivity_feasible(
            &[(DeviceId(0), 127), (DeviceId(1), 63)],
            &tops
        ));
        assert!(!connectivity_feasible(&[(DeviceId(0), 128)], &tops[..1]));
    }
}
