//! Availability-aware reservation timelines — the shadow computation
//! shared by the backfilling disciplines, maintained **incrementally**.
//!
//! Both backfilling schedulers need the same forward-looking question
//! answered: *how many qubits will the fleet be able to place at time
//! `t`, assuming no new work is admitted?* The answer is a step function
//! assembled from three deterministic sources:
//!
//! * the instantaneous free levels in [`CloudState`]'s view;
//! * the in-flight [`Lease`] table — every reservation's qubits return at
//!   a closed-form instant (`release_at`);
//! * the [`MaintenanceCalendar`] — a window hides a device's *free* pool
//!   for its whole span (in-flight sub-jobs keep running; their released
//!   qubits surface only when the window closes — the graceful drain the
//!   simulation implements), and a *future* window start is a scheduled
//!   capacity drop the lease table alone cannot see.
//!
//! The seed implementation rebuilt that profile from scratch on **every**
//! scheduler decision (`from_state`), which put an O(devices + leases)
//! replay plus a sort on the decide hot path — the dominant cost at
//! fleet-scale queue depths. The split is now:
//!
//! * [`AvailabilityProfile`] — the no-new-work availability step function,
//!   owned by [`CloudState`] and kept in sync *incrementally* by its
//!   mutations. `refresh` advances the clock (folding due deltas into the
//!   base, O(log n) per fold) and re-derives devices whose offline flag is
//!   set or flipped (crash and recovery repair).
//!   A `reserve`/`release`/`revoke_job` lease on an online device with no
//!   maintenance window moves the profile by that lease's own delta
//!   ([`AvailabilityProfile::shift_lease`]: the level change in the base,
//!   the return instant in the deltas). That is the whole effect a replay
//!   would find there, where the visible level is the real level and
//!   every return is a step of its own; debug builds replay the device
//!   after each such update and assert equality. Everywhere else — a
//!   crashed or offline device, a device with a window, a flag flip, a
//!   new window — the touched device is **replayed**
//!   ([`AvailabilityProfile::rebuild_device`]). The per-device replay is
//!   the *same code* the [`AvailabilityProfile::from_state`] oracle runs,
//!   so the incremental profile equals a from-scratch rebuild
//!   (differentially proptest-pinned in `tests/timeline_proptests.rs`,
//!   lease-delta path included).
//!   A re-derivation writes to the aggregate delta map **by difference**:
//!   it merges the device's old and new future deltas and applies only the
//!   net change at each instant, so a reserve or release usually touches
//!   the one map entry of the lease return it adds or removes, not every
//!   entry of the device.
//!   The map holds, per instant, the sum of every device's delta there,
//!   zero sums dropped; adding `new − old` per instant leaves exactly the
//!   sums that removing all of `old` and adding all of `new` would, so the
//!   oracle equality is unaffected.
//! * [`CapacityTimeline`] — the *scheduler-owned* view over a profile:
//!   a persistent reservation **ledger** (conservative backfilling's
//!   standing bookings, kept in a `BTreeMap` interval-delta structure with
//!   O(log n) booking/unbooking) plus a per-decision **overlay** (the
//!   dispatches admitted in the current batch, a sorted buffer that is
//!   cleared, not freed, per decision). Queries are read-only (`&self`)
//!   and merge the three delta streams without sorting.
//!
//! The two queries:
//!
//! * [`CapacityTimeline::earliest_fit`] — the first instant total
//!   availability covers a demand (EASY backfilling's *shadow time* for
//!   the blocked head, maintenance-aware);
//! * [`CapacityTimeline::earliest_slot`] — the first instant a demand
//!   fits **for an entire duration** (a conservative-backfilling start
//!   reservation; the interval is then booked with
//!   [`CapacityTimeline::reserve`] so every later queued job plans around
//!   it).
//!
//! The profile is aggregate (fleet-total qubits, not per-device): for the
//! work-conserving spill policies a job is placeable exactly when the
//! fleet total covers its demand, and for quality-strict policies any
//! capacity-based promise is best-effort anyway. Around maintenance
//! windows the aggregation errs only on the pessimistic side (a dispatch
//! or reservation overlapping a window start is double-counted *against*
//! availability, never for it), so a promised start computed here is
//! still an upper bound — the property the no-delay proptests pin.

use std::collections::BTreeMap;

use super::state::{CloudState, Lease};
use crate::device::DeviceId;
use crate::maintenance::MaintenanceCalendar;

/// Total order on timestamps (`f64::total_cmp`) so delta maps can key on
/// them. All timeline times are finite and non-negative.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TimeKey(f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Adds `v` to `map[t]`, dropping the entry when it cancels to zero.
fn map_add(map: &mut BTreeMap<TimeKey, i64>, t: f64, v: i64) {
    if v == 0 {
        return;
    }
    let e = map.entry(TimeKey(t)).or_insert(0);
    *e += v;
    if *e == 0 {
        map.remove(&TimeKey(t));
    }
}

/// [`map_add`] on a buffer kept sorted by time (`total_cmp`, as
/// [`TimeKey`] orders) with distinct times.
fn sorted_add(deltas: &mut Vec<(f64, i64)>, t: f64, v: i64) {
    if v == 0 {
        return;
    }
    match deltas.binary_search_by(|&(x, _)| x.total_cmp(&t)) {
        Ok(i) => {
            deltas[i].1 += v;
            if deltas[i].1 == 0 {
                deltas.remove(i);
            }
        }
        Err(i) => deltas.insert(i, (t, v)),
    }
}

/// Adds `new − old` to `map`: walks both delta lists (ascending, distinct
/// times) in step, so an instant present in both moves by the difference
/// (nothing at all when it is unchanged) and an instant in one list only
/// is removed or added.
fn apply_difference(map: &mut BTreeMap<TimeKey, i64>, old: &[(f64, i64)], new: &[(f64, i64)]) {
    let (mut i, mut j) = (0, 0);
    loop {
        let ord = match (old.get(i), new.get(j)) {
            (Some(o), Some(n)) => o.0.total_cmp(&n.0),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => return,
        };
        match ord {
            std::cmp::Ordering::Less => {
                map_add(map, old[i].0, -old[i].1);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                map_add(map, new[j].0, new[j].1);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                map_add(map, old[i].0, new[j].1 - old[i].1);
                i += 1;
                j += 1;
            }
        }
    }
}

/// One device's slice of the availability profile.
#[derive(Debug, Clone, PartialEq)]
struct DeviceProfile {
    /// Current contribution to the profile base (folded to `now`).
    contrib: i64,
    /// The offline flag this slice was derived under; a flip triggers a
    /// re-derivation on the next [`AvailabilityProfile::refresh`].
    offline_flag: bool,
    /// This device's future visible-level deltas, ascending, all `> now`.
    /// Mirrored into the aggregate delta map.
    fut: Vec<(f64, i64)>,
}

/// The fleet-total no-new-work availability step function over `[now, ∞)`,
/// maintained incrementally by [`CloudState`]'s mutations. See the module
/// docs.
#[derive(Debug, Clone)]
pub struct AvailabilityProfile {
    /// The instant the profile is folded to (the last refresh).
    now: f64,
    /// Total qubits placeable at `now`.
    base: i64,
    /// Aggregate future deltas `(time → signed qubits)`, all `> now`.
    deltas: BTreeMap<TimeKey, i64>,
    devices: Vec<DeviceProfile>,
    /// Buffers reused by every re-derivation; no state between calls.
    scratch: ReplayScratch,
}

/// Compares the profile itself; the scratch buffers are not part of it.
impl PartialEq for AvailabilityProfile {
    fn eq(&self, other: &Self) -> bool {
        self.now == other.now
            && self.base == other.base
            && self.deltas == other.deltas
            && self.devices == other.devices
    }
}

/// One event on a device's replayed timeline.
#[derive(Debug, Clone, Copy)]
enum ReplayEvent {
    Release(u64),
    WinStart,
    WinEnd,
}

/// The buffers a re-derivation works in: the replay's event list and the
/// device's new future deltas, which then trade places with the old ones.
#[derive(Debug, Clone, Default)]
struct ReplayScratch {
    events: Vec<(f64, ReplayEvent)>,
    fut: Vec<(f64, i64)>,
}

/// Replays one device's visible-level trajectory (current level, lease
/// returns, maintenance window edges, offline masking) from `now` on:
/// returns the contribution at `now` and fills `scratch.fut` with the
/// future deltas, ascending. This is the single source of truth both the
/// incremental profile and the from-scratch oracle run.
fn replay_device(
    di: usize,
    level: u64,
    flag_offline: bool,
    leases: &[Lease],
    calendar: &MaintenanceCalendar,
    now: f64,
    scratch: &mut ReplayScratch,
) -> i64 {
    let ReplayScratch { events, fut } = scratch;
    fut.clear();
    events.clear();
    use ReplayEvent as Ev;
    let active_now = calendar.active_at(di, now);
    if flag_offline && active_now == 0 {
        // Parked with no scheduled return (a crash): invisible forever.
        return 0;
    }
    // The live flag and the calendar can disagree for one decide at an
    // exact window-edge timestamp (kernel event ordering); take the union
    // so a window whose start ties with `now` never counts its device as
    // available for the whole span.
    let offline_now = flag_offline || active_now > 0;
    for l in leases {
        if l.device.index() == di {
            // A lease already due (boundary race with the release
            // coroutine) surfaces immediately.
            events.push((l.release_at.max(now), Ev::Release(l.qubits)));
        }
    }
    for w in calendar.windows_for(di) {
        if w.start > now {
            events.push((w.start, Ev::WinStart));
        }
        if w.end() > now {
            events.push((w.end(), Ev::WinEnd));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut level = level;
    let mut active = active_now as i64;
    let mut visible: i64 = if offline_now { 0 } else { level as i64 };
    let mut contrib = visible;
    let mut i = 0usize;
    while i < events.len() {
        let t = events[i].0;
        // Apply every same-instant event before emitting a delta, so a
        // release landing exactly on a window edge never produces a
        // transient spike.
        while i < events.len() && events[i].0 == t {
            match events[i].1 {
                Ev::Release(q) => level += q,
                Ev::WinStart => active += 1,
                Ev::WinEnd => active -= 1,
            }
            i += 1;
        }
        let new_visible: i64 = if active > 0 { 0 } else { level as i64 };
        if new_visible != visible {
            if t > now {
                fut.push((t, new_visible - visible));
            } else {
                // Boundary race: a lease due exactly now surfaces into the
                // instantaneous pool.
                contrib += new_visible - visible;
            }
            visible = new_visible;
        }
    }
    contrib
}

impl AvailabilityProfile {
    /// An empty profile (no devices). [`CloudState::new`] replaces it with
    /// a full derivation once the fleet is wired up.
    pub(crate) fn empty() -> Self {
        AvailabilityProfile {
            now: 0.0,
            base: 0,
            deltas: BTreeMap::new(),
            devices: Vec::new(),
            scratch: ReplayScratch::default(),
        }
    }

    /// Derives the whole profile from scratch at `state.now()`. This is
    /// the **oracle**: the incrementally maintained
    /// [`CloudState::profile`] must always equal it (differential
    /// proptest), and it seeds the profile at construction time.
    pub fn from_state(state: &CloudState) -> Self {
        let mut p = AvailabilityProfile {
            now: state.now(),
            ..AvailabilityProfile::empty()
        };
        for di in 0..state.len() {
            let dev = DeviceId(di as u32);
            let contrib = replay_device(
                di,
                state.actual_level(dev),
                state.is_offline(dev),
                state.leases(),
                state.maintenance(),
                p.now,
                &mut p.scratch,
            );
            let fut = std::mem::take(&mut p.scratch.fut);
            p.base += contrib;
            for &(t, v) in &fut {
                map_add(&mut p.deltas, t, v);
            }
            p.devices.push(DeviceProfile {
                contrib,
                offline_flag: state.is_offline(dev),
                fut,
            });
        }
        p
    }

    /// Re-derives one device's slice after a state mutation touching it
    /// (flag flip, new window, or a reserve, release or revocation on a
    /// device the lease-delta path does not cover): replays the device
    /// fresh, as [`AvailabilityProfile::from_state`] does, then
    /// moves the base by the change in its contribution and the aggregate
    /// map by the difference between its old and new future deltas (see
    /// the module docs for why that equals removing the old slice and
    /// adding the new one). O(leases + device windows + (old + new
    /// deltas) · log deltas); allocates nothing once its buffers have
    /// grown.
    pub(crate) fn rebuild_device(
        &mut self,
        di: usize,
        level: u64,
        flag_offline: bool,
        leases: &[Lease],
        calendar: &MaintenanceCalendar,
    ) {
        let contrib = replay_device(
            di,
            level,
            flag_offline,
            leases,
            calendar,
            self.now,
            &mut self.scratch,
        );
        let d = &mut self.devices[di];
        self.base += contrib - d.contrib;
        apply_difference(&mut self.deltas, &d.fut, &self.scratch.fut);
        std::mem::swap(&mut d.fut, &mut self.scratch.fut);
        d.contrib = contrib;
        d.offline_flag = flag_offline;
    }

    /// Moves device `di`'s slice by one lease of `qubits` due at
    /// `release_at` joining the lease table (`qubits > 0`, a reserve) or
    /// leaving it (`qubits < 0`, a release or revocation), together with
    /// the level change that comes with it — without a replay.
    ///
    /// Valid only while the device is online, its slice was derived online
    /// and the calendar holds no window for it: there the replay's visible
    /// level is the real level and every lease return is a delta of its
    /// own. A lease due after `now` moves the contribution by `−qubits`
    /// (the level) and adds `qubits` at `release_at` to the device's and
    /// the aggregate deltas; a lease already due changes nothing, because
    /// the replay surfaces it at `now` where it cancels the level change.
    /// That is exactly what [`AvailabilityProfile::rebuild_device`] would
    /// derive. O(log deltas).
    pub(crate) fn shift_lease(&mut self, di: usize, qubits: i64, release_at: f64) {
        if release_at > self.now {
            let d = &mut self.devices[di];
            d.contrib -= qubits;
            self.base -= qubits;
            sorted_add(&mut d.fut, release_at, qubits);
            map_add(&mut self.deltas, release_at, qubits);
        }
    }

    /// Asserts that online device `di`'s slice equals a fresh replay — the
    /// debug builds' cross-check of [`AvailabilityProfile::shift_lease`].
    pub(crate) fn assert_device_replays(
        &mut self,
        di: usize,
        level: u64,
        leases: &[Lease],
        calendar: &MaintenanceCalendar,
    ) {
        let contrib = replay_device(
            di,
            level,
            false,
            leases,
            calendar,
            self.now,
            &mut self.scratch,
        );
        let d = &self.devices[di];
        assert_eq!(
            (d.contrib, &d.fut),
            (contrib, &self.scratch.fut),
            "lease-delta profile update of device {di} diverged from its replay"
        );
    }

    /// The offline flag the device's slice was last derived under (used by
    /// [`CloudState::refresh`] to detect crash/recovery transitions).
    pub(crate) fn derived_offline_flag(&self, di: usize) -> bool {
        self.devices[di].offline_flag
    }

    /// Advances the profile clock, folding every delta due at or before
    /// `now` into the base — the incremental counterpart of the oracle's
    /// `t ≤ now` clamping. Time is monotone in the simulation; a
    /// non-monotone `now` only folds (never unfolds).
    pub(crate) fn advance(&mut self, now: f64) {
        if now <= self.now {
            return;
        }
        self.now = now;
        for d in &mut self.devices {
            let due = d.fut.partition_point(|&(t, _)| t <= now);
            if due == 0 {
                continue;
            }
            for &(t, v) in &d.fut[..due] {
                d.contrib += v;
                self.base += v;
                map_add(&mut self.deltas, t, -v);
            }
            d.fut.drain(..due);
        }
    }

    /// The instant the profile is folded to.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Total availability at `now`, before any scheduler-side bookings.
    pub fn available_now(&self) -> i64 {
        self.base
    }
}

/// A scheduler-owned reservation view over an [`AvailabilityProfile`]:
/// a persistent booking **ledger** (conservative start reservations,
/// carried across decisions) plus a per-decision **overlay** (dispatches
/// admitted in the current batch). Queries are `&self` and merge the
/// profile's, ledger's and overlay's delta streams; bookings mutate only
/// the ledger (O(log n)).
#[derive(Debug, Clone, Default)]
pub struct CapacityTimeline {
    /// The decision instant, set by [`CapacityTimeline::begin_decide`].
    now: f64,
    /// Net qubits the current decision batch added at/before `now`.
    overlay_base: i64,
    /// The batch's future deltas (projected dispatch releases), `> now`,
    /// ascending with distinct times.
    overlay: Vec<(f64, i64)>,
    /// Net booked qubits at/before `now` (bookings folded as time passes).
    ledger_base: i64,
    /// Standing booking deltas, `> now`.
    ledger: BTreeMap<TimeKey, i64>,
}

impl CapacityTimeline {
    /// An empty timeline (no bookings, no batch overlay).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a scheduling decision at `now` (must be the profile's fold
    /// instant, i.e. `state.now()`): clears the per-decision overlay and
    /// folds every ledger delta due at or before `now` into the ledger
    /// base, so standing bookings whose start has arrived weigh on the
    /// instantaneous pool exactly as the seed's per-decide re-application
    /// (`start.max(now)`) did.
    pub fn begin_decide(&mut self, now: f64) {
        self.now = now;
        self.overlay_base = 0;
        self.overlay.clear();
        while let Some((&TimeKey(t), _)) = self.ledger.first_key_value() {
            if t > now {
                break;
            }
            let (_, v) = self.ledger.pop_first().unwrap();
            self.ledger_base += v;
        }
    }

    /// Removes `qubits` from the profile at `now` (a dispatch admitted in
    /// the current decision batch).
    pub fn withdraw_now(&mut self, qubits: u64) {
        self.overlay_base -= qubits as i64;
    }

    /// Adds a projected release of `qubits` at `at` (the deterministic
    /// completion of a dispatch admitted in the current batch). `at` must
    /// already be maintenance-adjusted by the caller
    /// ([`MaintenanceCalendar::next_online_from`]) when the release lands
    /// inside a window.
    pub fn add_release(&mut self, at: f64, qubits: u64) {
        if at <= self.now {
            self.overlay_base += qubits as i64;
        } else {
            sorted_add(&mut self.overlay, at, qubits as i64);
        }
    }

    /// Shifts booked availability by `delta` over `[start, end)` (clamped
    /// to the decision horizon).
    fn shift_interval(&mut self, start: f64, end: f64, delta: i64) {
        let start = start.max(self.now);
        if end <= start {
            return;
        }
        if start <= self.now {
            self.ledger_base += delta;
        } else {
            map_add(&mut self.ledger, start, delta);
        }
        if end.is_finite() {
            map_add(&mut self.ledger, end, -delta);
        }
    }

    /// Books `qubits` over `[start, end)` — a conservative start
    /// reservation for a queued-but-unplaced job, persistent across
    /// decisions until explicitly unbooked (or folded away by time).
    /// Later queries see the reduced availability inside the interval.
    pub fn reserve_interval(&mut self, start: f64, end: f64, qubits: u64) {
        self.shift_interval(start, end, -(qubits as i64));
    }

    /// Exactly reverses a [`CapacityTimeline::reserve_interval`] with the
    /// same arguments *as clamped by the current decision instant*
    /// (re-slotting one booking while every other stays in force).
    pub fn unreserve_interval(&mut self, start: f64, end: f64, qubits: u64) {
        self.shift_interval(start, end, qubits as i64);
    }

    /// [`CapacityTimeline::reserve_interval`] expressed as a duration.
    pub fn reserve(&mut self, start: f64, duration: f64, qubits: u64) {
        if duration <= 0.0 {
            return;
        }
        let start = start.max(self.now);
        self.reserve_interval(start, start + duration, qubits);
    }

    /// Total availability at `now` under the profile, the standing
    /// bookings, and the current batch.
    pub fn available_now(&self, profile: &AvailabilityProfile) -> i64 {
        profile.base + self.ledger_base + self.overlay_base
    }

    /// The first instant `≥ now` at which total availability covers
    /// `demand` — EASY backfilling's shadow time. `f64::INFINITY` when no
    /// projected state ever does (offline capacity): no promise binds.
    pub fn earliest_fit(&self, profile: &AvailabilityProfile, demand: u64) -> f64 {
        let demand = demand as i64;
        let mut avail = self.available_now(profile);
        if avail >= demand {
            return self.now;
        }
        let mut merge = MergedDeltas::new(profile, self);
        while let Some((t, dv)) = merge.next_group() {
            avail += dv;
            if avail >= demand {
                return t;
            }
        }
        f64::INFINITY
    }

    /// The first instant `≥ now` at which `demand` qubits stay available
    /// for the whole `duration` — a conservative start reservation.
    /// `f64::INFINITY` when no such interval exists in the projection.
    pub fn earliest_slot(&self, profile: &AvailabilityProfile, demand: u64, duration: f64) -> f64 {
        let demand = demand as i64;
        let mut avail = self.available_now(profile);
        let mut candidate = if avail >= demand {
            self.now
        } else {
            f64::INFINITY
        };
        let mut merge = MergedDeltas::new(profile, self);
        while let Some((t, dv)) = merge.next_group() {
            if candidate.is_finite() && t >= candidate + duration {
                // The run held through the full duration.
                return candidate;
            }
            avail += dv;
            if avail >= demand {
                if !candidate.is_finite() {
                    candidate = t;
                }
            } else {
                candidate = f64::INFINITY;
            }
        }
        // Past the last breakpoint availability is flat forever.
        candidate
    }
}

/// Three-way merge of the profile / ledger / overlay delta streams,
/// grouped by exact timestamp with same-instant deltas summed — so query
/// loops accumulate-then-test exactly as the seed's sorted-vector scan
/// did.
struct MergedDeltas<'a> {
    a: std::collections::btree_map::Iter<'a, TimeKey, i64>,
    b: std::collections::btree_map::Iter<'a, TimeKey, i64>,
    c: std::slice::Iter<'a, (f64, i64)>,
    pa: Option<(f64, i64)>,
    pb: Option<(f64, i64)>,
    pc: Option<(f64, i64)>,
}

impl<'a> MergedDeltas<'a> {
    fn new(profile: &'a AvailabilityProfile, tl: &'a CapacityTimeline) -> Self {
        let mut m = MergedDeltas {
            a: profile.deltas.iter(),
            b: tl.ledger.iter(),
            c: tl.overlay.iter(),
            pa: None,
            pb: None,
            pc: None,
        };
        m.pa = m.a.next().map(|(k, v)| (k.0, *v));
        m.pb = m.b.next().map(|(k, v)| (k.0, *v));
        m.pc = m.c.next().copied();
        m
    }

    /// The next distinct timestamp and the summed delta across all three
    /// streams at it.
    fn next_group(&mut self) -> Option<(f64, i64)> {
        let t = [self.pa, self.pb, self.pc]
            .iter()
            .flatten()
            .map(|&(t, _)| t)
            .fold(f64::INFINITY, f64::min);
        if t.is_infinite() {
            return None;
        }
        let mut dv = 0i64;
        if let Some((ta, v)) = self.pa {
            if ta == t {
                dv += v;
                self.pa = self.a.next().map(|(k, v)| (k.0, *v));
            }
        }
        if let Some((tb, v)) = self.pb {
            if tb == t {
                dv += v;
                self.pb = self.b.next().map(|(k, v)| (k.0, *v));
            }
        }
        if let Some((tc, v)) = self.pc {
            if tc == t {
                dv += v;
                self.pc = self.c.next().copied();
            }
        }
        Some((t, dv))
    }
}

/// Registers the projected per-part release events of a just-admitted
/// dispatch: each part's qubits come back at its deterministic hold end,
/// pushed past any maintenance window active on its device at that
/// instant (the graceful drain). Shared by the EASY and conservative
/// paths.
pub fn project_dispatch_releases(
    timeline: &mut CapacityTimeline,
    state: &CloudState,
    calendar: &MaintenanceCalendar,
    job: &crate::job::QJob,
    parts: &[(DeviceId, u64)],
    now: f64,
) {
    let k = parts.len();
    let max_exec = parts
        .iter()
        .map(|&(d, _)| state.exec_seconds(job, d))
        .fold(0.0f64, f64::max);
    for &(dev, amt) in parts {
        let at = now + state.hold_seconds(job, dev, k, max_exec);
        let at = calendar.next_online_from(dev.index(), at);
        timeline.add_release(at, amt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimParams;
    use crate::job::{JobId, QJob};
    use crate::maintenance::{MaintenanceWindow, OfflineFlags};
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

    fn job(id: u64, q: u64) -> QJob {
        QJob {
            id: JobId(id),
            num_qubits: q,
            depth: 10,
            num_shots: 50_000,
            two_qubit_gates: 500,
            arrival_time: 0.0,
        }
    }

    fn timeline_at(now: f64) -> CapacityTimeline {
        let mut tl = CapacityTimeline::new();
        tl.begin_decide(now);
        tl
    }

    #[test]
    fn idle_fleet_fits_immediately() {
        let st = state(&[100, 100]);
        let p = st.profile();
        let tl = timeline_at(st.now());
        assert_eq!(p.available_now(), 200);
        assert_eq!(tl.earliest_fit(p, 150), 0.0);
        assert_eq!(tl.earliest_slot(p, 200, 1e6), 0.0);
        assert!(tl.earliest_fit(p, 201).is_infinite());
    }

    #[test]
    fn lease_release_opens_capacity_later() {
        let mut st = state(&[100, 100]);
        let j = job(0, 150);
        st.reserve(&j, &[(DeviceId(0), 100), (DeviceId(1), 50)], 0.0);
        let off = OfflineFlags::new(2);
        st.refresh(0.0, &off);
        let release_at = st.leases()[0].release_at;
        let tl = timeline_at(st.now());
        assert_eq!(st.profile().available_now(), 50);
        assert_eq!(tl.earliest_fit(st.profile(), 50), 0.0);
        // 150 qubits only after the leases return.
        assert_eq!(tl.earliest_fit(st.profile(), 150), release_at);
    }

    #[test]
    fn maintenance_window_hides_and_restores_free_pool() {
        let mut st = state(&[100, 100]);
        st.add_maintenance_window(MaintenanceWindow {
            device: 0,
            start: 10.0,
            duration: 20.0,
        });
        let off = OfflineFlags::new(2);
        st.refresh(0.0, &off);
        let tl = timeline_at(st.now());
        // 200 now, 100 during [10, 30), 200 again after.
        assert_eq!(tl.earliest_fit(st.profile(), 150), 0.0);
        // A 150-qubit job cannot hold through the window: the earliest
        // slot long enough starts at the window close.
        assert_eq!(tl.earliest_slot(st.profile(), 150, 15.0), 30.0);
        // A short job fits before the window.
        assert_eq!(tl.earliest_slot(st.profile(), 150, 5.0), 0.0);
    }

    #[test]
    fn release_during_window_surfaces_at_window_end() {
        let mut st = state(&[100, 50]);
        let j = job(0, 80);
        st.reserve(&j, &[(DeviceId(0), 80)], 0.0);
        let release_at = st.leases()[0].release_at;
        st.add_maintenance_window(MaintenanceWindow {
            device: 0,
            start: 1.0,
            duration: release_at + 100.0,
        });
        let mut off = OfflineFlags::new(2);
        off.set_offline(0, true);
        st.refresh(2.0, &off);
        let tl = timeline_at(st.now());
        // Only device 1 visible now; device 0's 20 free + the returning 80
        // all surface when the window closes.
        assert_eq!(st.profile().available_now(), 50);
        assert_eq!(tl.earliest_fit(st.profile(), 150), 1.0 + release_at + 100.0);
    }

    #[test]
    fn offline_without_calendar_window_is_invisible_forever() {
        let mut st = state(&[100, 60]);
        let mut off = OfflineFlags::new(2);
        off.set_offline(0, true);
        st.refresh(0.0, &off);
        let tl = timeline_at(st.now());
        assert_eq!(st.profile().available_now(), 60);
        assert!(tl.earliest_fit(st.profile(), 61).is_infinite());
    }

    #[test]
    fn reservations_push_later_slots_out() {
        let st = state(&[100]);
        let p = st.profile();
        let mut tl = timeline_at(st.now());
        // Book 80 qubits over [0, 50): a 30-qubit job must wait.
        tl.reserve(0.0, 50.0, 80);
        assert_eq!(tl.earliest_slot(p, 30, 10.0), 50.0);
        // 20 still fit alongside the reservation.
        assert_eq!(tl.earliest_slot(p, 20, 10.0), 0.0);
        // Booking those too fills the machine until t = 50.
        tl.reserve(0.0, 50.0, 20);
        assert_eq!(tl.earliest_slot(p, 1, 1.0), 50.0);
    }

    #[test]
    fn withdraw_and_projected_release_round_trip() {
        let st = state(&[100]);
        let p = st.profile();
        let mut tl = timeline_at(st.now());
        tl.withdraw_now(70);
        tl.add_release(40.0, 70);
        assert_eq!(tl.available_now(p), 30);
        assert_eq!(tl.earliest_fit(p, 100), 40.0);
        assert_eq!(tl.earliest_slot(p, 100, 10.0), 40.0);
    }

    #[test]
    fn ledger_persists_across_decides_and_folds_with_time() {
        let st = state(&[100]);
        let p = st.profile();
        let mut tl = CapacityTimeline::new();
        tl.begin_decide(0.0);
        tl.reserve_interval(10.0, 30.0, 60);
        assert_eq!(tl.earliest_slot(p, 50, 25.0), 30.0);
        // A new decision at t = 20: the booking's start has passed, so its
        // weight moves into the instantaneous pool (the seed re-applied it
        // clamped to now — identical arithmetic).
        tl.begin_decide(20.0);
        assert_eq!(tl.available_now(p), 40);
        assert_eq!(tl.earliest_fit(p, 100), 30.0);
        // Unbooking with clamped args restores the pool exactly.
        tl.unreserve_interval(20.0, 30.0, 60);
        assert_eq!(tl.available_now(p), 100);
        // A decision past the booking's whole span: everything folded, net
        // zero left behind.
        tl.begin_decide(40.0);
        assert_eq!(tl.available_now(p), 100);
        assert_eq!(tl.earliest_fit(p, 100), 40.0);
    }

    #[test]
    fn incremental_profile_matches_oracle_through_mutations() {
        let mut st = state(&[100, 80, 60]);
        st.add_maintenance_window(MaintenanceWindow {
            device: 1,
            start: 50.0,
            duration: 100.0,
        });
        let mut off = OfflineFlags::new(3);
        st.refresh(0.0, &off);
        assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));

        let j0 = job(0, 120);
        st.reserve(&j0, &[(DeviceId(0), 70), (DeviceId(1), 50)], 0.0);
        assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));

        // Crash device 2: flag-offline with no window → invisible.
        off.set_offline(2, true);
        st.refresh(10.0, &off);
        assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));

        // Revoke the crashed job's leases (crash-repair path).
        let freed = st.revoke_job(j0.id, 10.0);
        assert_eq!(freed.len(), 2);
        assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));

        // Recovery + a reserve/release round trip on the survivor.
        off.set_offline(2, false);
        st.refresh(20.0, &off);
        let j1 = job(1, 40);
        st.reserve(&j1, &[(DeviceId(2), 40)], 20.0);
        assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));
        st.release(j1.id, DeviceId(2), 40, 25.0);
        st.refresh(25.0, &off);
        assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));

        // Advancing past the maintenance window folds its deltas away.
        st.refresh(200.0, &off);
        assert_eq!(st.profile(), &AvailabilityProfile::from_state(&st));
        assert_eq!(st.profile().available_now(), 240);
        st.assert_all_released();
    }
}
