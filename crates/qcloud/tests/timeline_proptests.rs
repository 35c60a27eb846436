//! Differential properties for the incremental availability machinery:
//!
//! * **Profile ≡ oracle** — [`CloudState`]'s incrementally maintained
//!   [`AvailabilityProfile`] (per-device re-derivation on mutation,
//!   clock-folding on refresh) equals a from-scratch
//!   [`AvailabilityProfile::from_state`] rebuild after *every* operation
//!   of a random reserve / release / revoke (crash repair) / device-crash
//!   / maintenance-registration / time-advance interleaving. This is the
//!   pin that lets the schedulers drop the per-decision rebuild: the two
//!   code paths share the per-device replay, and this test proves the
//!   bookkeeping around it (aggregate delta lists, fold-on-advance, flag
//!   transitions) never drifts.
//! * **Queries ≡ brute force** — [`CapacityTimeline::earliest_fit`] /
//!   [`CapacityTimeline::earliest_slot`] / `available_now` over a random
//!   state plus random persistent bookings agree with a first-principles
//!   evaluator that materialises the availability step function from the
//!   public lease table, maintenance calendar, offline flags and booking
//!   list — independent of the merged-delta implementation.
//!
//! The bit-identical complement (the full simulation's golden
//! fingerprints) lives in `tests/seed_parity.rs`, `tests/chaos_proptests.rs`
//! and `tests/service_proptests.rs`.

use proptest::prelude::*;
use qcs_qcloud::maintenance::OfflineFlags;
use qcs_qcloud::sched::{AvailabilityProfile, CapacityTimeline, CloudState, DeviceSpec};
use qcs_qcloud::{DeviceId, JobId, MaintenanceWindow, QJob, SimParams};

fn specs(caps: &[u64]) -> Vec<DeviceSpec> {
    caps.iter()
        .enumerate()
        .map(|(i, &c)| DeviceSpec {
            capacity: c,
            error_score: 0.01 + i as f64 * 0.001,
            clops: 220_000.0 - i as f64 * 10_000.0,
            qv_layers: 7.0,
        })
        .collect()
}

fn job(id: u64, q: u64) -> QJob {
    QJob {
        id: JobId(id),
        num_qubits: q,
        depth: 10,
        num_shots: 50_000,
        two_qubit_gates: 400,
        arrival_time: 0.0,
    }
}

/// Greedily partitions `q` qubits over the view's free pools; `None` when
/// the online fleet cannot hold the job.
fn greedy_parts(st: &CloudState, q: u64) -> Option<Vec<(DeviceId, u64)>> {
    let mut remaining = q;
    let mut parts = Vec::new();
    for d in &st.view().devices {
        let take = remaining.min(d.free);
        if take > 0 {
            parts.push((d.id, take));
            remaining -= take;
        }
    }
    (remaining == 0).then_some(parts)
}

/// First-principles fleet availability at `t ≥ now`, from public state:
/// a crashed device (offline flag, no window covering `now`) is invisible
/// forever; otherwise a device is visible outside its maintenance windows
/// with its current level plus every lease return due by `t`.
fn bruteforce_available(st: &CloudState, now: f64, t: f64) -> i64 {
    let cal = st.maintenance();
    let mut total = 0i64;
    for di in 0..st.len() {
        let dev = DeviceId(di as u32);
        let crashed = st.is_offline(dev) && cal.active_at(di, now) == 0;
        if crashed {
            continue;
        }
        if cal.active_at(di, t) > 0 {
            continue;
        }
        let mut level = st.actual_level(dev) as i64;
        for l in st.leases() {
            if l.device == dev && l.release_at.max(now) <= t {
                level += l.qubits as i64;
            }
        }
        total += level;
    }
    total
}

/// Booked qubits covering instant `t` (bookings clamped to `now`).
fn bruteforce_booked(bookings: &[(f64, f64, u64)], now: f64, t: f64) -> i64 {
    bookings
        .iter()
        .filter(|&&(s, e, _)| s.max(now) <= t && t < e)
        .map(|&(_, _, q)| q as i64)
        .sum()
}

/// Every instant the availability-minus-bookings step function can change
/// at, from `now` on, sorted and deduplicated.
fn change_points(st: &CloudState, bookings: &[(f64, f64, u64)], now: f64) -> Vec<f64> {
    let mut ts = vec![now];
    for l in st.leases() {
        ts.push(l.release_at.max(now));
    }
    for w in st.maintenance().windows() {
        ts.push(w.start);
        ts.push(w.end());
    }
    for &(s, e, _) in bookings {
        ts.push(s.max(now));
        ts.push(e);
    }
    ts.retain(|&t| t >= now && t.is_finite());
    ts.sort_by(f64::total_cmp);
    ts.dedup();
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The incrementally maintained profile equals a from-scratch rebuild
    /// after every operation of a random mutation interleaving.
    #[test]
    fn incremental_profile_equals_from_scratch_oracle(
        caps in proptest::collection::vec(16u64..=127, 2..6),
        windows in proptest::collection::vec(
            (0usize..8, 1.0f64..300.0, 5.0f64..150.0), 0..4),
        ops in proptest::collection::vec(
            (0u8..8, 0u64..64, 1u64..200), 1..60),
    ) {
        let n = caps.len();
        let mut st = CloudState::new(&specs(&caps), &SimParams::default());
        for &(d, start, duration) in &windows {
            st.add_maintenance_window(MaintenanceWindow {
                device: d % n,
                start,
                duration,
            });
            prop_assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));
        }
        let mut flags = OfflineFlags::new(n);
        let mut now = 0.0f64;
        st.refresh(now, &flags);
        let mut outstanding: Vec<(u64, Vec<(DeviceId, u64)>)> = Vec::new();
        let mut next_id = 0u64;

        for (op, sel, q) in ops {
            now += (sel % 7 + 1) as f64;
            // The offline flags follow the maintenance calendar plus the
            // crash toggles injected below, mimicking the coroutines that
            // drive them in a real run.
            for di in 0..n {
                if st.maintenance().active_at(di, now) > 0 {
                    flags.set_offline(di, true);
                } else if st.maintenance().active_at(di, now - 0.5) > 0 {
                    // A window just closed: recover unless crashed below.
                    flags.set_offline(di, false);
                }
            }
            st.refresh(now, &flags);
            prop_assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));

            match op % 6 {
                0 | 1 => {
                    if let Some(parts) = greedy_parts(&st, q) {
                        let j = job(next_id, q);
                        st.reserve(&j, &parts, now);
                        outstanding.push((next_id, parts));
                        next_id += 1;
                    }
                }
                2 => {
                    if !outstanding.is_empty() {
                        let (id, parts) =
                            outstanding.remove(sel as usize % outstanding.len());
                        for (d, a) in parts {
                            st.release(JobId(id), d, a, now);
                        }
                    }
                }
                3 => {
                    // Crash repair: revoke every lease of one job at once.
                    if !outstanding.is_empty() {
                        let (id, _) =
                            outstanding.remove(sel as usize % outstanding.len());
                        st.revoke_job(JobId(id), now);
                    }
                }
                4 => {
                    // Unplanned crash / recovery toggle on one device.
                    let di = sel as usize % n;
                    flags.set_offline(di, !flags.is_offline(di));
                    st.refresh(now, &flags);
                }
                _ => {
                    // A future maintenance window registered mid-run.
                    st.add_maintenance_window(MaintenanceWindow {
                        device: sel as usize % n,
                        start: now + 1.0 + (q % 40) as f64,
                        duration: 5.0 + (q % 60) as f64,
                    });
                }
            }
            prop_assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));
        }
    }

    /// Timeline queries over a random state plus random persistent
    /// bookings agree with the first-principles step-function evaluator.
    #[test]
    fn timeline_queries_match_bruteforce(
        caps in proptest::collection::vec(16u64..=127, 2..5),
        windows in proptest::collection::vec(
            (0usize..8, 1.0f64..200.0, 5.0f64..100.0), 0..3),
        reserves in proptest::collection::vec((1u64..150, 0u64..64), 0..5),
        bookings in proptest::collection::vec(
            (0.0f64..200.0, 1.0f64..100.0, 1u64..100), 0..6),
        crash_sel in 0usize..16,
        now in 0.0f64..50.0,
        demand in 1u64..400,
        dur in 1.0f64..150.0,
    ) {
        let n = caps.len();
        // `crash_sel` < 8 crashes one device; higher values crash none.
        let crash = (crash_sel < 8).then_some(crash_sel);
        let mut st = CloudState::new(&specs(&caps), &SimParams::default());
        for &(d, start, duration) in &windows {
            st.add_maintenance_window(MaintenanceWindow {
                device: d % n,
                start,
                duration,
            });
        }
        let mut flags = OfflineFlags::new(n);
        for di in 0..n {
            let crashed = crash.map(|c| c % n) == Some(di);
            flags.set_offline(di, crashed || st.maintenance().active_at(di, 0.0) > 0);
        }
        st.refresh(0.0, &flags);
        let mut id = 0u64;
        for &(q, _) in &reserves {
            if let Some(parts) = greedy_parts(&st, q) {
                st.reserve(&job(id, q), &parts, 0.0);
                id += 1;
            }
        }
        // Advance to the decision instant; flags track the calendar (a
        // crash persists across it).
        for di in 0..n {
            let crashed = crash.map(|c| c % n) == Some(di);
            flags.set_offline(di, crashed || st.maintenance().active_at(di, now) > 0);
        }
        st.refresh(now, &flags);
        prop_assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));

        let mut tl = CapacityTimeline::new();
        tl.begin_decide(now);
        let booked: Vec<(f64, f64, u64)> = bookings
            .iter()
            .map(|&(s, d, q)| (s, s + d, q))
            .collect();
        for &(s, e, q) in &booked {
            tl.reserve_interval(s.max(now), e, q);
        }
        let p = st.profile();

        let avail =
            |t: f64| bruteforce_available(&st, now, t) - bruteforce_booked(&booked, now, t);
        let points = change_points(&st, &booked, now);

        prop_assert_eq!(tl.available_now(p), avail(now));

        let fit = tl.earliest_fit(p, demand);
        let expect_fit = points
            .iter()
            .copied()
            .find(|&t| avail(t) >= demand as i64)
            .unwrap_or(f64::INFINITY);
        prop_assert_eq!(fit, expect_fit, "earliest_fit(demand={})", demand);

        let slot = tl.earliest_slot(p, demand, dur);
        let expect_slot = points
            .iter()
            .copied()
            .find(|&t| {
                avail(t) >= demand as i64
                    && points
                        .iter()
                        .all(|&u| !(u > t && u < t + dur) || avail(u) >= demand as i64)
            })
            .unwrap_or(f64::INFINITY);
        prop_assert_eq!(slot, expect_slot, "earliest_slot(demand={}, dur={})", demand, dur);

        // The booking ledger cancels exactly: lifting every booking out
        // restores the bare-profile projection.
        for &(s, e, q) in &booked {
            tl.unreserve_interval(s.max(now), e, q);
        }
        prop_assert_eq!(tl.available_now(p), bruteforce_available(&st, now, now));
        let empty: Vec<(f64, f64, u64)> = Vec::new();
        let bare = change_points(&st, &empty, now);
        let bare_fit = bare
            .iter()
            .copied()
            .find(|&t| bruteforce_available(&st, now, t) >= demand as i64)
            .unwrap_or(f64::INFINITY);
        prop_assert_eq!(tl.earliest_fit(p, demand), bare_fit);
    }
}

/// Deterministic regression: a crash mid-maintenance plus revocation, the
/// exact interleaving PR 6's repair path exercises, stays in lock-step
/// with the oracle (kept out of proptest so a failure names the scenario).
#[test]
fn crash_inside_maintenance_window_stays_in_sync() {
    let mut st = CloudState::new(&specs(&[100, 80]), &SimParams::default());
    st.add_maintenance_window(MaintenanceWindow {
        device: 1,
        start: 10.0,
        duration: 30.0,
    });
    let mut flags = OfflineFlags::new(2);
    st.refresh(0.0, &flags);
    let j = job(0, 120);
    st.reserve(&j, &[(DeviceId(0), 60), (DeviceId(1), 60)], 0.0);
    assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));

    // The window opens; then device 0 crashes hard and its lease is
    // revoked while device 1 is still inside its window.
    flags.set_offline(1, true);
    st.refresh(10.0, &flags);
    assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));
    flags.set_offline(0, true);
    st.refresh(12.0, &flags);
    st.revoke_job(j.id, 12.0);
    assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));

    // Device 0 recovers; the window closes on schedule.
    flags.set_offline(0, false);
    st.refresh(20.0, &flags);
    assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));
    flags.set_offline(1, false);
    st.refresh(40.0, &flags);
    assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));
    assert_eq!(st.profile().available_now(), 180);
}
