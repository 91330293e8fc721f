//! Rolling action-duration profiles (§5.3 "action profiles").
//!
//! The controller predicts how long every action will take before sending it.
//! Predictions come from two sources: a *seed* estimate — the model's
//! latency table for an INFER (what the paper's offline profiling step
//! measures), its weights' transfer time for a LOAD — and a rolling window of
//! the most recent measurements reported by workers — the paper uses the last
//! 10 measurements, stratified by action type, model and batch size, and
//! predicts with a rolling 99th percentile so it errs on the side of slight
//! over-prediction (Fig. 9 shows the resulting asymmetry).
//!
//! Estimates are read far more often than measurements arrive, so each key
//! stores its current estimate and rewrites it when a seed or a measurement
//! changes it; a read never touches the window.

use serde::{Deserialize, Serialize};

use clockwork_metrics::OrderStatWindow;
use clockwork_model::{ModelId, ModelTable};
use clockwork_sim::time::Nanos;

/// Which kind of action a profile describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProfileKind {
    /// Weights transfer host → device.
    Load,
    /// Kernel execution at a specific batch size.
    Exec,
}

/// Key identifying one profile: action type, model, and batch size (0 for
/// LOAD).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProfileKey {
    /// The model.
    pub model: ModelId,
    /// The action type.
    pub kind: ProfileKind,
    /// Batch size (0 for LOAD).
    pub batch: u32,
}

impl ProfileKey {
    /// Profile key for loading a model's weights.
    pub fn load(model: ModelId) -> Self {
        ProfileKey {
            model,
            kind: ProfileKind::Load,
            batch: 0,
        }
    }

    /// Profile key for executing a model at a batch size.
    pub fn exec(model: ModelId, batch: u32) -> Self {
        ProfileKey {
            model,
            kind: ProfileKind::Exec,
            batch,
        }
    }
}

/// One key's current estimate and rolling window. The estimate is the
/// seed until the first measurement and the window's percentile from then
/// on, written when either changes so that a read — many per scheduling
/// pass — is one field. Most keys of a large zoo are seeded but never
/// measured, so the window is created by the first measurement, as one
/// allocation.
#[derive(Clone, Debug)]
struct Profile {
    estimate: Nanos,
    window: Option<OrderStatWindow>,
}

/// Everything profiled about one model: its epoch and its handful of keys
/// (one LOAD, one EXEC per compiled batch size) — few enough that a linear
/// scan beats hashing the key.
#[derive(Clone, Debug, Default)]
struct ModelProfiles {
    epoch: u64,
    profiles: Vec<(ProfileKind, u32, Profile)>,
}

impl ModelProfiles {
    fn get(&self, key: ProfileKey) -> Option<&Profile> {
        self.profiles
            .iter()
            .find(|(kind, batch, _)| *kind == key.kind && *batch == key.batch)
            .map(|(_, _, profile)| profile)
    }

    /// The profile behind `key`, created with `estimate` if new.
    fn get_or_insert(&mut self, key: ProfileKey, estimate: Nanos) -> &mut Profile {
        let at = self
            .profiles
            .iter()
            .position(|(kind, batch, _)| *kind == key.kind && *batch == key.batch)
            .unwrap_or_else(|| {
                // Exact capacity: a model's keys are seeded once and then
                // live for the run, and doubling would leave a quarter of
                // every model's vector unused across a zoo of thousands.
                self.profiles.reserve_exact(1);
                let profile = Profile {
                    estimate,
                    window: None,
                };
                self.profiles.push((key.kind, key.batch, profile));
                self.profiles.len() - 1
            });
        &mut self.profiles[at].2
    }
}

/// Rolling per-key duration estimator. Keys are stored per model in a dense
/// id-indexed table, so the estimate lookups under the scheduler's per-model
/// loops never hash.
#[derive(Clone, Debug)]
pub struct ActionProfiler {
    window_size: usize,
    percentile: f64,
    models: ModelTable<ModelProfiles>,
    measurements: u64,
    epoch: u64,
}

impl Default for ActionProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl ActionProfiler {
    /// Creates a profiler with the paper's defaults: 10-measurement window,
    /// 99th percentile estimates.
    pub fn new() -> Self {
        Self::with_params(10, 99.0)
    }

    /// Creates a profiler with an explicit window size and percentile.
    ///
    /// # Panics
    /// Panics if `window_size` is zero, or if `percentile` is NaN or outside
    /// `[0, 100]`: a NaN rank would read every window's minimum.
    pub fn with_params(window_size: usize, percentile: f64) -> Self {
        assert!(window_size > 0, "profile window must be non-empty");
        assert!(
            (0.0..=100.0).contains(&percentile),
            "profile percentile must be in [0, 100], got {percentile}"
        );
        ActionProfiler {
            window_size,
            percentile,
            models: ModelTable::default(),
            measurements: 0,
            epoch: 0,
        }
    }

    /// Installs a seed estimate for a key. Overwrites any previous seed; once
    /// the key has measurements they outrank every seed, so it changes
    /// nothing.
    pub fn seed(&mut self, key: ProfileKey, estimate: Nanos) {
        let profile = self.touch(key, estimate);
        if profile.window.is_none() {
            profile.estimate = estimate;
        }
    }

    /// Records a measured duration reported by a worker.
    pub fn record(&mut self, key: ProfileKey, measured: Nanos) {
        self.measurements += 1;
        let (window_size, percentile) = (self.window_size, self.percentile);
        let profile = self.touch(key, measured);
        let window = profile
            .window
            .get_or_insert_with(|| OrderStatWindow::new(window_size));
        window.push(measured);
        profile.estimate = window
            .percentile(percentile)
            .expect("the window holds the sample just pushed");
    }

    /// The profile behind `key`, created with `estimate` if new, with the
    /// global and the model's epoch advanced: every caller is about to
    /// change an estimate.
    fn touch(&mut self, key: ProfileKey, estimate: Nanos) -> &mut Profile {
        self.epoch += 1;
        let model = self.models.get_or_default(key.model);
        model.epoch += 1;
        model.get_or_insert(key, estimate)
    }

    /// The current estimate for a key: the rolling percentile if measurements
    /// exist, otherwise the seed, otherwise `None`.
    pub fn estimate(&self, key: ProfileKey) -> Option<Nanos> {
        Some(self.models.get(key.model)?.get(key)?.estimate)
    }

    /// Like [`estimate`](Self::estimate) but falls back to a caller-provided
    /// default.
    pub fn estimate_or(&self, key: ProfileKey, default: Nanos) -> Nanos {
        self.estimate(key).unwrap_or(default)
    }

    /// Total number of measurements recorded.
    pub fn measurement_count(&self) -> u64 {
        self.measurements
    }

    /// A counter that advances whenever any estimate may have changed (a new
    /// measurement or seed). Callers that cache values derived from estimates
    /// compare epochs instead of re-reading every profile.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Like [`ActionProfiler::epoch`], but scoped to one model: advances only
    /// when one of *that model's* estimates may have changed, so a stream of
    /// measurements for other models does not invalidate caches derived from
    /// this one.
    pub fn model_epoch(&self, model: ModelId) -> u64 {
        self.models.get(model).map_or(0, |m| m.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_prefers_measurements_over_seed() {
        let mut p = ActionProfiler::new();
        let key = ProfileKey::exec(ModelId(1), 4);
        assert_eq!(p.estimate(key), None);
        p.seed(key, Nanos::from_millis(5));
        assert_eq!(p.estimate(key), Some(Nanos::from_millis(5)));
        p.record(key, Nanos::from_millis(6));
        assert_eq!(p.estimate(key), Some(Nanos::from_millis(6)));
        assert_eq!(p.measurement_count(), 1);
    }

    #[test]
    fn rolling_window_forgets_old_measurements() {
        let mut p = ActionProfiler::with_params(3, 99.0);
        let key = ProfileKey::load(ModelId(2));
        p.record(key, Nanos::from_millis(100));
        for _ in 0..3 {
            p.record(key, Nanos::from_millis(8));
        }
        // The 100 ms outlier has been pushed out of the window.
        assert_eq!(p.estimate(key), Some(Nanos::from_millis(8)));
    }

    #[test]
    fn high_percentile_tracks_the_slowest_recent_sample() {
        let mut p = ActionProfiler::new();
        let key = ProfileKey::exec(ModelId(3), 1);
        for us in [2_890u64, 2_900, 2_895, 2_910, 2_893] {
            p.record(key, Nanos::from_micros(us));
        }
        assert_eq!(p.estimate(key), Some(Nanos::from_micros(2_910)));
    }

    #[test]
    fn keys_are_stratified_by_model_kind_and_batch() {
        let mut p = ActionProfiler::new();
        p.record(ProfileKey::exec(ModelId(1), 1), Nanos::from_millis(3));
        p.record(ProfileKey::exec(ModelId(1), 16), Nanos::from_millis(16));
        p.record(ProfileKey::load(ModelId(1)), Nanos::from_millis(8));
        assert_eq!(
            p.estimate(ProfileKey::exec(ModelId(1), 1)),
            Some(Nanos::from_millis(3))
        );
        assert_eq!(
            p.estimate(ProfileKey::exec(ModelId(1), 16)),
            Some(Nanos::from_millis(16))
        );
        assert_eq!(
            p.estimate(ProfileKey::load(ModelId(1))),
            Some(Nanos::from_millis(8))
        );
        assert_eq!(p.estimate(ProfileKey::exec(ModelId(2), 1)), None);
    }

    #[test]
    fn estimate_or_falls_back() {
        let p = ActionProfiler::new();
        assert_eq!(
            p.estimate_or(ProfileKey::load(ModelId(9)), Nanos::from_millis(10)),
            Nanos::from_millis(10)
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_window_panics() {
        let _ = ActionProfiler::with_params(0, 99.0);
    }

    #[test]
    #[should_panic(expected = "profile percentile")]
    fn nan_percentile_panics() {
        let _ = ActionProfiler::with_params(10, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "profile percentile")]
    fn negative_percentile_panics() {
        let _ = ActionProfiler::with_params(10, -1.0);
    }

    #[test]
    #[should_panic(expected = "profile percentile")]
    fn percentile_above_100_panics() {
        let _ = ActionProfiler::with_params(10, 101.0);
    }

    #[test]
    fn a_seed_after_measurements_changes_no_estimate_but_moves_the_epochs() {
        let mut p = ActionProfiler::new();
        let key = ProfileKey::exec(ModelId(4), 2);
        p.record(key, Nanos::from_millis(6));
        let epochs = (p.epoch(), p.model_epoch(ModelId(4)));
        p.seed(key, Nanos::from_millis(1));
        assert_eq!(p.estimate(key), Some(Nanos::from_millis(6)));
        assert_eq!(
            (p.epoch(), p.model_epoch(ModelId(4))),
            (epochs.0 + 1, epochs.1 + 1)
        );
    }

    /// The stored estimate against the one PR 24 derived on every read:
    /// the percentile of the window, recomputed from the raw measurements,
    /// or else the last seed.
    mod recomputed {
        use super::*;
        use clockwork_metrics::percentile::percentile_nanos;
        use proptest::prelude::*;

        #[derive(Clone, Copy, Debug)]
        enum Op {
            Seed { key: usize, ms: u64 },
            Record { key: usize, us: u64 },
        }

        fn keys() -> [ProfileKey; 4] {
            [
                ProfileKey::load(ModelId(0)),
                ProfileKey::exec(ModelId(0), 1),
                ProfileKey::exec(ModelId(0), 8),
                ProfileKey::load(ModelId(3)),
            ]
        }

        proptest! {
            #[test]
            fn estimate_is_the_window_percentile_or_else_the_seed(
                window in 1usize..64,
                percentile in 0.0f64..100.0,
                ops in proptest::collection::vec(
                    prop_oneof![
                        (0usize..4, 1u64..50).prop_map(|(key, ms)| Op::Seed { key, ms }),
                        (0usize..4, 1u64..50_000).prop_map(|(key, us)| Op::Record { key, us }),
                        (0usize..4, 1u64..50_000).prop_map(|(key, us)| Op::Record { key, us }),
                    ],
                    0..800,
                ),
            ) {
                let mut p = ActionProfiler::with_params(window, percentile);
                let mut seeds: [Option<Nanos>; 4] = [None; 4];
                let mut measured: [Vec<Nanos>; 4] = Default::default();
                for op in ops {
                    match op {
                        Op::Seed { key, ms } => {
                            p.seed(keys()[key], Nanos::from_millis(ms));
                            seeds[key] = Some(Nanos::from_millis(ms));
                        }
                        Op::Record { key, us } => {
                            p.record(keys()[key], Nanos::from_micros(us));
                            measured[key].push(Nanos::from_micros(us));
                        }
                    }
                    for (key, profile_key) in keys().into_iter().enumerate() {
                        let recent = &measured[key][measured[key].len().saturating_sub(window)..];
                        let expected = percentile_nanos(recent, percentile).or(seeds[key]);
                        prop_assert_eq!(p.estimate(profile_key), expected);
                    }
                }
            }
        }
    }
}
