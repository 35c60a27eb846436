//! Deterministic fault injection: unplanned device outages, per-attempt
//! execution failures, and the retry policy that re-queues their victims.
//!
//! The [`crate::maintenance`] module models *scheduled* unavailability:
//! every capacity cliff is on a calendar the reservation timeline folds
//! into its availability profile, and in-flight work drains gracefully.
//! This module models the other kind — the kind the paper's premise says
//! quantum clouds are full of:
//!
//! * **Unplanned crashes** ([`CrashEvent`]): the device drops offline at
//!   `at` with no warning, every lease it holds is revoked (the victims'
//!   jobs are killed mid-flight), and it returns `down_for` seconds later.
//!   Crucially the outage is *invisible* to the scheduler stack ahead of
//!   time: it never enters the [`crate::MaintenanceCalendar`], so the
//!   [`crate::sched::AvailabilityProfile`] as derived before the crash
//!   happily promises capacity the fleet is about to lose, and once
//!   re-derived during the outage it treats the device as gone forever
//!   (its recovery time is unknowable). Reservation *repair* — dropping promises pinned on the
//!   dead capacity and recompressing — is the scheduler stack's job.
//! * **Execution failures**: at the end of the quantum execution phase an
//!   attempt fails with a per-device probability — flat
//!   ([`FaultScript::exec_fail_prob`]) or scaled by *drifted* calibration
//!   error scores ([`FaultScript::with_drift`], wiring
//!   [`qcs_calibration::DriftModel`] + [`qcs_calibration::error_score`]
//!   into the running simulation: noisier devices fail more).
//!
//! Everything is **seed-deterministic**: failure draws come from a counter
//! hash over `(seed, job, attempt)` ([`hash_u01`]), backoff jitter from the
//! same construction — two runs with the same script produce bit-identical
//! [`crate::records::JobRecord`] streams (pinned by the golden fingerprints
//! in `tests/chaos_proptests.rs`).
//!
//! Victims re-enter the pending queue through a [`RetryPolicy`]:
//! exponential backoff with deterministic jitter and a hard attempt cap (a
//! job that exhausts its attempts is recorded as
//! [`crate::records::FinalStatus::RetriesExhausted`] — never silently
//! lost). A resubmitted job is placed like any other queued job; nothing
//! steers it away from the devices its failed attempt ran on.

use crate::device::DeviceId;
use crate::job::JobId;
use qcs_calibration::{error_score, DeviceProfile, DriftModel, ErrorScoreWeights};
use qcs_desim::Xoshiro256StarStar;
use serde::{Deserialize, Serialize};

/// An unplanned outage: `device` crashes at `at` and recovers `down_for`
/// seconds later. Unlike a maintenance window it is never announced to the
/// scheduler — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// Device index within the fleet.
    pub device: usize,
    /// Crash instant (s).
    pub at: f64,
    /// Outage duration (s); the device recovers at `at + down_for`.
    pub down_for: f64,
}

impl CrashEvent {
    /// Recovery instant.
    pub fn recovery_at(&self) -> f64 {
        self.at + self.down_for
    }
}

/// Per-device failure probabilities scaled by drifted calibration scores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftFaults {
    /// The drift process applied to each device's calibration snapshot.
    pub model: DriftModel,
    /// How many seconds of drift to apply before scoring (how stale the
    /// calibration data is assumed to be).
    pub horizon: f64,
}

/// A deterministic, seed-driven fault scenario for one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultScript {
    /// Seed for every fault draw (failure Bernoullis, backoff jitter,
    /// drift evolution). Independent of the simulation seed.
    pub seed: u64,
    /// Unplanned outages, in any order.
    pub crashes: Vec<CrashEvent>,
    /// Base per-attempt execution-failure probability (`[0, 1)`), applied
    /// per device in the attempt's partition.
    pub exec_fail_prob: f64,
    /// When set, per-device failure probabilities are
    /// `exec_fail_prob × score_d / mean(score)` over drift-evolved error
    /// scores instead of flat.
    pub drift: Option<DriftFaults>,
}

impl FaultScript {
    /// An empty script (no crashes, no failures) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultScript {
            seed,
            crashes: Vec::new(),
            exec_fail_prob: 0.0,
            drift: None,
        }
    }

    /// Adds an unplanned outage.
    pub fn with_crash(mut self, device: usize, at: f64, down_for: f64) -> Self {
        self.crashes.push(CrashEvent {
            device,
            at,
            down_for,
        });
        self
    }

    /// Sets the flat per-attempt execution-failure probability.
    pub fn with_exec_failures(mut self, p: f64) -> Self {
        self.exec_fail_prob = p;
        self
    }

    /// Scales failure probabilities by drift-evolved calibration scores.
    pub fn with_drift(mut self, model: DriftModel, horizon: f64) -> Self {
        self.drift = Some(DriftFaults { model, horizon });
        self
    }

    /// Whether the script injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.exec_fail_prob == 0.0
    }

    /// Validates against a fleet of `n_devices`: device indices in range,
    /// finite non-negative times, probability in `[0, 1)`, and no two
    /// outages of the *same* device overlapping (a crash of an
    /// already-crashed device has no meaning).
    pub fn validate(&self, n_devices: usize) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.exec_fail_prob) {
            return Err(format!(
                "exec_fail_prob {} outside [0, 1)",
                self.exec_fail_prob
            ));
        }
        if let Some(d) = &self.drift {
            if !d.horizon.is_finite() || d.horizon < 0.0 {
                return Err(format!("drift horizon {} invalid", d.horizon));
            }
        }
        for c in &self.crashes {
            if c.device >= n_devices {
                return Err(format!(
                    "crash names device {} of a {n_devices}-device fleet",
                    c.device
                ));
            }
            if !c.at.is_finite() || c.at < 0.0 || !c.down_for.is_finite() || c.down_for <= 0.0 {
                return Err(format!(
                    "crash of device {} has invalid times (at {}, down_for {})",
                    c.device, c.at, c.down_for
                ));
            }
        }
        let mut per_dev: Vec<(usize, f64, f64)> = self
            .crashes
            .iter()
            .map(|c| (c.device, c.at, c.recovery_at()))
            .collect();
        per_dev.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in per_dev.windows(2) {
            if w[0].0 == w[1].0 && w[1].1 < w[0].2 {
                return Err(format!(
                    "overlapping outages of device {} (recovery {} after next crash {})",
                    w[0].0, w[0].2, w[1].1
                ));
            }
        }
        Ok(())
    }

    /// Parses a command-line fault spec into a script plus retry policy.
    ///
    /// Semicolon-separated clauses (all optional, any order):
    ///
    /// * `crash:DEV@AT+DOWN[,DEV@AT+DOWN...]` — unplanned outages;
    /// * `pfail:P` — per-attempt execution-failure probability;
    /// * `drift:HORIZON` — drift-scale the failure probabilities over a
    ///   `HORIZON`-second staleness window (default [`DriftModel`]);
    /// * `seed:S` — fault seed (default 0);
    /// * `retries:N` — max attempts per job (default 3);
    /// * `backoff:B` — base backoff seconds (default 30).
    ///
    /// Example: `crash:0@500+300,2@1000+200;pfail:0.05;retries:4`.
    pub fn parse(spec: &str) -> Result<(FaultScript, RetryPolicy), String> {
        let mut script = FaultScript::new(0);
        let mut retry = RetryPolicy::default();
        for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
            let clause = clause.trim();
            let (key, val) = match clause.split_once(':') {
                Some((k, v)) => (k.trim(), v.trim()),
                None => (clause, ""),
            };
            match key {
                "crash" => {
                    for ev in val.split(',').filter(|e| !e.trim().is_empty()) {
                        let ev = ev.trim();
                        let (dev, times) = ev
                            .split_once('@')
                            .ok_or_else(|| format!("crash clause '{ev}' missing '@'"))?;
                        let (at, down) = times
                            .split_once('+')
                            .ok_or_else(|| format!("crash clause '{ev}' missing '+'"))?;
                        script.crashes.push(CrashEvent {
                            device: dev
                                .parse()
                                .map_err(|_| format!("bad device index '{dev}'"))?,
                            at: at.parse().map_err(|_| format!("bad crash time '{at}'"))?,
                            down_for: down
                                .parse()
                                .map_err(|_| format!("bad outage duration '{down}'"))?,
                        });
                    }
                }
                "pfail" => {
                    script.exec_fail_prob = val
                        .parse()
                        .map_err(|_| format!("bad failure probability '{val}'"))?;
                }
                "drift" => {
                    let horizon: f64 = if val.is_empty() {
                        86_400.0
                    } else {
                        val.parse()
                            .map_err(|_| format!("bad drift horizon '{val}'"))?
                    };
                    script.drift = Some(DriftFaults {
                        model: DriftModel::default(),
                        horizon,
                    });
                }
                "seed" => {
                    script.seed = val.parse().map_err(|_| format!("bad fault seed '{val}'"))?;
                }
                "retries" => {
                    retry.max_attempts = val
                        .parse()
                        .map_err(|_| format!("bad retry count '{val}'"))?;
                }
                "backoff" => {
                    retry.base_backoff_s = val
                        .parse()
                        .map_err(|_| format!("bad backoff seconds '{val}'"))?;
                }
                other => return Err(format!("unknown fault clause '{other}'")),
            }
        }
        retry.validate()?;
        Ok((script, retry))
    }
}

/// How killed/failed jobs re-enter the queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per job, the first included (≥ 1). A job whose
    /// attempt `max_attempts` fails is recorded as retries-exhausted.
    pub max_attempts: u32,
    /// Backoff before re-queueing after the first failed attempt (s).
    pub base_backoff_s: f64,
    /// Multiplier per further failed attempt (exponential backoff).
    pub backoff_factor: f64,
    /// Backoff ceiling (s), applied before jitter.
    pub max_backoff_s: f64,
    /// Symmetric jitter fraction: the backoff is scaled by a deterministic
    /// factor in `[1 − jitter_frac, 1 + jitter_frac]`.
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_s: 30.0,
            backoff_factor: 2.0,
            max_backoff_s: 600.0,
            jitter_frac: 0.1,
        }
    }
}

impl RetryPolicy {
    /// Validates the policy's numeric ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts < 1 {
            return Err("max_attempts must be at least 1".into());
        }
        if self.base_backoff_s < 0.0 || !self.base_backoff_s.is_finite() {
            return Err(format!("base backoff {} invalid", self.base_backoff_s));
        }
        if self.backoff_factor < 1.0 {
            return Err(format!("backoff factor {} below 1", self.backoff_factor));
        }
        if self.max_backoff_s < self.base_backoff_s {
            return Err("max backoff below base backoff".into());
        }
        if !(0.0..1.0).contains(&self.jitter_frac) {
            return Err(format!(
                "jitter fraction {} outside [0, 1)",
                self.jitter_frac
            ));
        }
        Ok(())
    }

    /// The deterministic backoff before re-queueing a job whose attempt
    /// number `failed_attempt` (1-based) just failed: exponential in the
    /// attempt, capped, jittered by a `(seed, job, attempt)` hash.
    pub fn backoff_seconds(&self, seed: u64, job: JobId, failed_attempt: u32) -> f64 {
        let exp = failed_attempt.saturating_sub(1).min(62);
        let raw = self.base_backoff_s * self.backoff_factor.powi(exp as i32);
        let capped = raw.min(self.max_backoff_s);
        let u = hash_u01(seed ^ 0xB0F0_5EED, job.0, failed_attempt as u64);
        capped * (1.0 + self.jitter_frac * (2.0 * u - 1.0))
    }
}

/// A deterministic hash of `(seed, a, b)` mapped to `[0, 1)` — the
/// counter-mode Bernoulli source behind execution failures and backoff
/// jitter (splitmix64 finalizer; no state, so draws for different jobs or
/// attempts never perturb each other).
pub fn hash_u01(seed: u64, a: u64, b: u64) -> f64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The resolved, per-fleet fault source handed to the simulation: crash
/// schedule plus per-device failure probabilities (drift-scaled when the
/// script asks for it).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    per_device_fail: Vec<f64>,
}

impl FaultInjector {
    /// Resolves a script against a fleet. With [`FaultScript::drift`] set,
    /// each device's calibration snapshot is evolved `horizon` seconds by
    /// the drift model (seeded per device from the script seed), re-scored
    /// with Eq. 2, and the base failure probability is scaled by the
    /// device's share of the fleet-mean drifted score — noisier devices
    /// fail more, exactly the signal an adaptive scheduler should learn to
    /// route around.
    pub fn resolve(
        script: &FaultScript,
        profiles: &[DeviceProfile],
        weights: &ErrorScoreWeights,
    ) -> Self {
        let n = profiles.len();
        let per_device_fail = match &script.drift {
            None => vec![script.exec_fail_prob; n],
            Some(df) => {
                let scores: Vec<f64> = profiles
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let mut snap = p.calibration.clone();
                        let mut rng = Xoshiro256StarStar::new(
                            script.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        df.model
                            .step(&mut snap, &p.calibration, df.horizon, &mut rng);
                        error_score(&snap, weights)
                    })
                    .collect();
                let mean = scores.iter().sum::<f64>() / n.max(1) as f64;
                scores
                    .iter()
                    .map(|s| {
                        if mean > 0.0 {
                            (script.exec_fail_prob * s / mean).clamp(0.0, 0.95)
                        } else {
                            script.exec_fail_prob
                        }
                    })
                    .collect()
            }
        };
        FaultInjector {
            seed: script.seed,
            per_device_fail,
        }
    }

    /// The fault seed (shared with the retry policy's jitter).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The resolved per-device failure probabilities.
    pub fn per_device_fail(&self) -> &[f64] {
        &self.per_device_fail
    }

    /// Whether attempt `attempt` (1-based) of `job`, running on `parts`,
    /// fails at the end of its execution phase. Deterministic in
    /// `(seed, job, attempt)`; the combined probability is
    /// `1 − Π_d (1 − p_d)` over the partition's devices.
    pub fn exec_failure(&self, job: JobId, attempt: u32, parts: &[(DeviceId, u64)]) -> bool {
        let p_ok: f64 = parts
            .iter()
            .map(|&(d, _)| 1.0 - self.per_device_fail[d.index()])
            .product();
        let p_fail = 1.0 - p_ok;
        if p_fail <= 0.0 {
            return false;
        }
        hash_u01(self.seed, job.0, attempt as u64) < p_fail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_u01_is_deterministic_and_uniform_ish() {
        assert_eq!(hash_u01(1, 2, 3), hash_u01(1, 2, 3));
        assert_ne!(hash_u01(1, 2, 3), hash_u01(1, 2, 4));
        assert_ne!(hash_u01(1, 2, 3), hash_u01(2, 2, 3));
        let n = 10_000;
        let mean = (0..n).map(|i| hash_u01(7, i, 0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
        assert!((0..n).all(|i| (0.0..1.0).contains(&hash_u01(7, i, 0))));
    }

    #[test]
    fn script_validation_catches_bad_inputs() {
        let ok = FaultScript::new(1).with_crash(0, 100.0, 50.0);
        assert!(ok.validate(2).is_ok());
        assert!(ok.validate(0).is_err(), "device out of range");
        assert!(FaultScript::new(1)
            .with_exec_failures(1.5)
            .validate(2)
            .is_err());
        assert!(FaultScript::new(1)
            .with_crash(0, -1.0, 10.0)
            .validate(2)
            .is_err());
        assert!(FaultScript::new(1)
            .with_crash(0, 10.0, 0.0)
            .validate(2)
            .is_err());
        // Same-device overlap rejected; different devices may overlap.
        assert!(FaultScript::new(1)
            .with_crash(0, 10.0, 100.0)
            .with_crash(0, 50.0, 10.0)
            .validate(2)
            .is_err());
        assert!(FaultScript::new(1)
            .with_crash(0, 10.0, 100.0)
            .with_crash(1, 50.0, 100.0)
            .validate(2)
            .is_ok());
    }

    #[test]
    fn spec_parsing_round_trips() {
        let (s, r) = FaultScript::parse("crash:0@500+300,2@1000+200;pfail:0.05;retries:4;seed:9")
            .expect("valid spec");
        assert_eq!(s.seed, 9);
        assert_eq!(s.exec_fail_prob, 0.05);
        assert_eq!(
            s.crashes,
            vec![
                CrashEvent {
                    device: 0,
                    at: 500.0,
                    down_for: 300.0
                },
                CrashEvent {
                    device: 2,
                    at: 1000.0,
                    down_for: 200.0
                },
            ]
        );
        assert_eq!(r.max_attempts, 4);

        let (s, r) = FaultScript::parse("pfail:0.1;drift:3600;backoff:5").unwrap();
        assert!(s.drift.is_some());
        assert_eq!(s.drift.unwrap().horizon, 3600.0);
        assert_eq!(r.base_backoff_s, 5.0);

        // Retries are never steered away from the failed devices, so there
        // is no `avoid` clause to accept.
        let err = FaultScript::parse("pfail:0.1;avoid").unwrap_err();
        assert!(err.contains("'avoid'"), "{err}");

        assert!(FaultScript::parse("crash:0@5").is_err());
        assert!(FaultScript::parse("bogus:1").is_err());
        assert!(FaultScript::parse("retries:0").is_err(), "policy validated");
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff_s: 10.0,
            backoff_factor: 2.0,
            max_backoff_s: 100.0,
            jitter_frac: 0.1,
        };
        let b1 = p.backoff_seconds(1, JobId(5), 1);
        let b2 = p.backoff_seconds(1, JobId(5), 2);
        let b7 = p.backoff_seconds(1, JobId(5), 7);
        assert!((9.0..=11.0).contains(&b1), "b1 = {b1}");
        assert!((18.0..=22.0).contains(&b2), "b2 = {b2}");
        // 10 · 2⁶ = 640 capped at 100, ±10%.
        assert!((90.0..=110.0).contains(&b7), "b7 = {b7}");
        assert_eq!(b1, p.backoff_seconds(1, JobId(5), 1), "deterministic");
        assert_ne!(b1, p.backoff_seconds(1, JobId(6), 1), "per-job jitter");
    }

    #[test]
    fn injector_flat_and_exec_failure_determinism() {
        let profiles = qcs_calibration::ibm_fleet(3);
        let script = FaultScript::new(11).with_exec_failures(0.3);
        let inj = FaultInjector::resolve(&script, &profiles, &ErrorScoreWeights::default());
        assert!(inj.per_device_fail().iter().all(|&p| p == 0.3));
        let parts = vec![(DeviceId(0), 50), (DeviceId(1), 50)];
        let a = inj.exec_failure(JobId(1), 1, &parts);
        assert_eq!(a, inj.exec_failure(JobId(1), 1, &parts));
        // Over many jobs roughly 1 − 0.7² = 51% fail.
        let fails = (0..2000)
            .filter(|&i| inj.exec_failure(JobId(i), 1, &parts))
            .count();
        let rate = fails as f64 / 2000.0;
        assert!((0.45..0.57).contains(&rate), "failure rate {rate}");
        // Zero probability never fails.
        let none = FaultInjector::resolve(
            &FaultScript::new(11),
            &profiles,
            &ErrorScoreWeights::default(),
        );
        assert!((0..2000).all(|i| !none.exec_failure(JobId(i), 1, &parts)));
    }

    #[test]
    fn drift_scaled_probabilities_track_device_noise() {
        let profiles = qcs_calibration::ibm_fleet(3);
        let script = FaultScript::new(11)
            .with_exec_failures(0.1)
            .with_drift(DriftModel::default(), 86_400.0);
        let inj = FaultInjector::resolve(&script, &profiles, &ErrorScoreWeights::default());
        let probs = inj.per_device_fail();
        assert_eq!(probs.len(), profiles.len());
        assert!(probs.iter().all(|&p| (0.0..0.95).contains(&p)));
        // Scaled around the base: mean stays near 0.1 and devices differ.
        let mean = probs.iter().sum::<f64>() / probs.len() as f64;
        assert!((0.05..0.2).contains(&mean), "mean {mean}");
        assert!(
            probs.iter().any(|&p| (p - probs[0]).abs() > 1e-9),
            "drift must differentiate devices: {probs:?}"
        );
        // Deterministic resolution.
        let again = FaultInjector::resolve(&script, &profiles, &ErrorScoreWeights::default());
        assert_eq!(probs, again.per_device_fail());
    }
}
