//! Per-step feature vectors.
//!
//! "Extract the records from all statistical profiles and aggregate records
//! together using the TPU step numbers. For each step, we define dimensions
//! in terms of TensorFlow operations, the accumulated number of invocations,
//! and total durations" (Section IV-A). Each step therefore contributes a
//! vector with two dimensions per operator: invocation count and total
//! duration. Dimensions are min-max scaled so that counts (small integers)
//! and durations (microseconds) are comparable, then optionally reduced
//! with PCA to at most 100 dimensions.

use crate::pca;
use tpupoint_profiler::Profile;

/// Maximum feature dimensionality after PCA, per the paper.
pub const MAX_DIMS: usize = 100;

/// Step count below which feature construction and scaling stay serial.
const PAR_MIN_ROWS: usize = 256;

/// A dense steps × features matrix with its row labels.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    /// Profile step number of each row.
    pub steps: Vec<u64>,
    /// Row-major feature rows; all rows have equal length.
    pub rows: Vec<Vec<f64>>,
}

impl FeatureMatrix {
    /// Number of rows (steps).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature dimensionality.
    pub fn dims(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// Builds raw (count, duration) features for every record in the
    /// profile, including the synthetic init/shutdown records, min-max
    /// scaled per dimension.
    ///
    /// Each step's row depends only on that step's record, so construction
    /// fans out over the pool for large profiles with identical results
    /// at any thread count.
    pub fn from_profile(profile: &Profile) -> FeatureMatrix {
        let n_ops = profile.op_names.len();
        let build = |record: &tpupoint_profiler::StepRecord| -> Vec<f64> {
            let mut row = vec![0.0; 2 * n_ops];
            for (op, stats) in &record.ops {
                let i = op.0 as usize;
                row[2 * i] = stats.count as f64;
                row[2 * i + 1] = stats.total.as_micros() as f64;
            }
            row
        };
        let pool = tpupoint_par::pool();
        let rows: Vec<Vec<f64>> = if profile.steps.len() >= PAR_MIN_ROWS && pool.size() > 1 {
            pool.par_map(&profile.steps, |_, record| build(record))
        } else {
            profile.steps.iter().map(build).collect()
        };
        let steps = profile.steps.iter().map(|record| record.step).collect();
        let mut matrix = FeatureMatrix { steps, rows };
        matrix.minmax_scale();
        matrix
    }

    /// Min-max scales each dimension into `[0, 1]`; constant dimensions
    /// become 0.
    ///
    /// Per-dimension bounds and the per-row rescale are both independent,
    /// so each fans out over the pool for large matrices; every cell gets
    /// the same arithmetic as the serial loop.
    pub fn minmax_scale(&mut self) {
        let dims = self.dims();
        if dims == 0 {
            return;
        }
        let pool = tpupoint_par::pool();
        let parallel = self.len() >= PAR_MIN_ROWS && pool.size() > 1;
        let bounds: Vec<(f64, f64)> = {
            let rows = &self.rows;
            let bounds_of = |d: usize| -> (f64, f64) {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for row in rows {
                    lo = lo.min(row[d]);
                    hi = hi.max(row[d]);
                }
                (lo, hi)
            };
            if parallel {
                pool.par_map_index(dims, bounds_of)
            } else {
                (0..dims).map(bounds_of).collect()
            }
        };
        let scale = |row: &[f64]| -> Vec<f64> {
            row.iter()
                .zip(&bounds)
                .map(|(&x, &(lo, hi))| {
                    let range = hi - lo;
                    if range > 0.0 {
                        (x - lo) / range
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        if parallel {
            self.rows = pool.par_map(&self.rows, |_, row| scale(row));
        } else {
            for row in &mut self.rows {
                *row = scale(row);
            }
        }
    }

    /// Applies PCA, keeping at most `max_dims` components (and at most the
    /// number of informative components). Returns the reduced matrix.
    pub fn reduced(&self, max_dims: usize) -> FeatureMatrix {
        if self.is_empty() || self.dims() <= max_dims {
            return self.clone();
        }
        let projected = pca::project(&self.rows, max_dims);
        FeatureMatrix {
            steps: self.steps.clone(),
            rows: projected,
        }
    }

    /// Squared Euclidean distance between two rows.
    pub fn dist2(&self, a: usize, b: usize) -> f64 {
        dist2(&self.rows[a], &self.rows[b])
    }
}

/// Squared Euclidean distance between two equal-length vectors.
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Terms [`dist2_within`] adds between two checks against its bound.
const WITHIN_BLOCK: usize = 4;

/// [`dist2`] with an early exit: returns exactly `dist2(a, b)` whenever
/// that is `<= bound`, and otherwise some value `> bound`.
///
/// The terms are added one by one in `dist2`'s order, starting from the
/// same `-0.0` that `f64`'s `Sum` starts from, so a run to the end yields
/// the same bits. Every term is a square, hence non-negative, and adding
/// a non-negative number under IEEE-754 round-to-nearest never lowers a
/// sum: once a partial sum is strictly greater than `bound`, so is the
/// full sum, and returning the partial sum changes no `<=` or `<`
/// comparison a caller makes against `bound`. A NaN partial sum never
/// compares greater, so it runs to the end and comes out NaN like
/// `dist2`'s.
#[inline]
pub fn dist2_within(a: &[f64], b: &[f64], bound: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(test)]
    if full_scans::enabled() {
        return dist2(a, b);
    }
    let mut sum = -0.0;
    let a_blocks = a.chunks_exact(WITHIN_BLOCK);
    let b_blocks = b.chunks_exact(WITHIN_BLOCK);
    let (a_rest, b_rest) = (a_blocks.remainder(), b_blocks.remainder());
    for (xs, ys) in a_blocks.zip(b_blocks) {
        for (x, y) in xs.iter().zip(ys) {
            sum += (x - y) * (x - y);
        }
        if sum > bound {
            return sum;
        }
    }
    for (x, y) in a_rest.iter().zip(b_rest) {
        sum += (x - y) * (x - y);
    }
    sum
}

/// A test switch that turns [`dist2_within`] into the full-length
/// [`dist2`] on the current thread (still a valid answer: exact at or
/// below the bound, above it otherwise), so whole runs can be replayed
/// against the scans the bounded kernel replaced.
#[cfg(test)]
pub(crate) mod full_scans {
    use std::cell::Cell;

    thread_local! {
        static ENABLED: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn enabled() -> bool {
        ENABLED.with(Cell::get)
    }

    /// Runs `f` with this thread's bounded kernel switched off.
    pub(crate) fn with<R>(f: impl FnOnce() -> R) -> R {
        ENABLED.with(|on| on.set(true));
        let out = f();
        ENABLED.with(|on| on.set(false));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpupoint_profiler::StepRecord;
    use tpupoint_simcore::{OpId, SimDuration, SimTime, Track};

    /// `(op id, invocation count, total duration)` triples per step.
    type StepSpec<'a> = (u64, &'a [(u32, u64, u64)]);

    fn profile_with_steps(specs: &[StepSpec<'_>]) -> Profile {
        let max_op = specs
            .iter()
            .flat_map(|(_, ops)| ops.iter().map(|(o, _, _)| *o))
            .max()
            .unwrap_or(0) as usize;
        let steps = specs
            .iter()
            .map(|(step, ops)| {
                let mut r = StepRecord::new(*step);
                for &(op, count, dur) in ops.iter() {
                    for i in 0..count {
                        r.absorb(
                            OpId(op),
                            Track::TpuCore(0),
                            SimTime::from_micros(i),
                            SimDuration::from_micros(dur / count.max(1)),
                            SimDuration::ZERO,
                        );
                    }
                }
                r
            })
            .collect();
        Profile {
            model: "m".into(),
            dataset: "d".into(),
            op_names: (0..=max_op).map(|i| format!("op{i}")).collect(),
            op_uses_mxu: vec![false; max_op + 1],
            op_on_host: vec![false; max_op + 1],
            steps,
            windows: vec![],
            step_marks: vec![],
            checkpoints: vec![],
            dropped_windows: 0,
            lost_events: 0,
            store_errors: 0,
            store_error: None,
        }
    }

    #[test]
    fn rows_align_with_steps_and_ops() {
        let p = profile_with_steps(&[(1, &[(0, 2, 100)]), (2, &[(1, 1, 50)])]);
        let m = FeatureMatrix::from_profile(&p);
        assert_eq!(m.len(), 2);
        assert_eq!(m.dims(), 4); // 2 ops x (count, duration)
        assert_eq!(m.steps, vec![1, 2]);
    }

    #[test]
    fn scaling_maps_each_dimension_to_unit_interval() {
        let p = profile_with_steps(&[(1, &[(0, 1, 10)]), (2, &[(0, 3, 30)]), (3, &[(0, 5, 50)])]);
        let m = FeatureMatrix::from_profile(&p);
        for d in 0..m.dims() {
            let vals: Vec<f64> = m.rows.iter().map(|r| r[d]).collect();
            assert!(vals.iter().cloned().fold(f64::INFINITY, f64::min) >= 0.0);
            assert!(vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max) <= 1.0);
        }
        // The count dimension of op0 spans 1..5 → scaled endpoints 0 and 1.
        assert_eq!(m.rows[0][0], 0.0);
        assert_eq!(m.rows[2][0], 1.0);
    }

    #[test]
    fn identical_steps_produce_identical_rows() {
        let p = profile_with_steps(&[(1, &[(0, 2, 100)]), (2, &[(0, 2, 100)])]);
        let m = FeatureMatrix::from_profile(&p);
        assert_eq!(m.rows[0], m.rows[1]);
        assert_eq!(m.dist2(0, 1), 0.0);
    }

    #[test]
    fn reduction_caps_dimensionality() {
        // 60 ops → 120 raw dims; reduce to 10.
        let ops: Vec<(u32, u64, u64)> = (0..60).map(|i| (i, 1, 10 + i as u64)).collect();
        let specs: Vec<StepSpec<'_>> = vec![(1, &ops[..]), (2, &ops[..]), (3, &ops[..10])];
        let p = profile_with_steps(&specs);
        let m = FeatureMatrix::from_profile(&p);
        assert_eq!(m.dims(), 120);
        let r = m.reduced(10);
        assert!(r.dims() <= 10);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn reduction_is_identity_when_small() {
        let p = profile_with_steps(&[(1, &[(0, 1, 10)]), (2, &[(0, 2, 20)])]);
        let m = FeatureMatrix::from_profile(&p);
        assert_eq!(m.reduced(MAX_DIMS), m);
    }

    #[test]
    fn dist2_is_symmetric_and_zero_on_self() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![0.0, 1.0, 5.0];
        assert_eq!(dist2(&a, &b), dist2(&b, &a));
        assert_eq!(dist2(&a, &a), 0.0);
        assert_eq!(dist2(&a, &b), 1.0 + 1.0 + 4.0);
    }

    #[test]
    fn dist2_within_is_exact_at_and_below_the_bound() {
        // 11 dims: two full blocks and a remainder.
        let a: Vec<f64> = (0..11).map(|i| i as f64 * 0.25).collect();
        let b: Vec<f64> = (0..11).map(|i| (i * i) as f64 * 0.125).collect();
        let full = dist2(&a, &b);
        for bound in [full, full * 2.0, f64::INFINITY, f64::NAN] {
            assert_eq!(dist2_within(&a, &b, bound).to_bits(), full.to_bits());
        }
        let below = full - full * 1e-9;
        assert!(dist2_within(&a, &b, below) > below);
        assert!(dist2_within(&a, &b, 0.0) > 0.0);
        // Zero dims: the same -0.0 `dist2`'s sum starts from.
        assert_eq!(
            dist2_within(&[], &[], 0.0).to_bits(),
            dist2(&[], &[]).to_bits()
        );
    }

    #[test]
    fn dist2_within_passes_non_finite_sums_through() {
        let a = [f64::NAN, 0.0, 0.0, 0.0, 9.0];
        assert!(dist2_within(&a, &[0.0; 5], 1.0).is_nan());
        let b = [0.0, 0.0, 0.0, 0.0, 0.0, f64::INFINITY];
        assert!(dist2_within(&b, &[1.0; 6], 1.0) > 1.0);
        assert_eq!(dist2_within(&b, &[1.0; 6], f64::INFINITY), f64::INFINITY);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn dist2_within_agrees_with_dist2(
            pairs in proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 0..40),
            bound in 0.0..200.0f64,
        ) {
            let (a, b): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            let full = dist2(&a, &b);
            let within = dist2_within(&a, &b, bound);
            if full <= bound {
                proptest::prop_assert_eq!(within.to_bits(), full.to_bits());
            } else {
                proptest::prop_assert!(within > bound, "{within} <= {bound} < {full}");
            }
            // The full distance is always a bound it stays exact at.
            proptest::prop_assert_eq!(dist2_within(&a, &b, full).to_bits(), full.to_bits());
        }
    }
}
