//! k-means clustering, "implemented like SimPoint does" (Section IV-A):
//! run for k = 1..15 and pick the knee of the sum-of-squared-distances
//! curve with the elbow method.
//!
//! Two layers of performance work live here, both bit-deterministic for
//! any thread count:
//!
//! * the per-iteration **assignment step** fans out over the pool for
//!   large step counts (each row's nearest centroid is independent);
//! * the k-**sweep** either runs every k in parallel (cold start) or
//!   **warm-starts** run k from run k-1's final centroids plus one
//!   k-means++ pick ([`KmeansConfig::warm_start`], the default), which
//!   replaces `n_init` full restarts per k with a single Lloyd descent
//!   and keeps the SSD curve monotone non-increasing by construction.

use crate::elbow::elbow_index;
use crate::features::{dist2, dist2_within, FeatureMatrix};
use tpupoint_simcore::SimRng;

/// Row count below which the assignment step stays serial; smaller
/// matrices lose more to task hand-off than they gain from the pool.
const PAR_ASSIGN_MIN_ROWS: usize = 256;

/// Configuration of one k-means run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KmeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Lloyd iterations cap.
    pub max_iters: usize,
    /// Independent restarts; the lowest-SSE run wins.
    pub n_init: usize,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
    /// Seed run k of a [`sweep`] from run k-1's centroids plus one
    /// k-means++ pick instead of `n_init` fresh restarts. Ignored by
    /// single [`run`]s.
    pub warm_start: bool,
}

impl Default for KmeansConfig {
    fn default() -> Self {
        KmeansConfig {
            k: 5,
            max_iters: 50,
            n_init: 3,
            seed: 0x7e57,
            warm_start: true,
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Cluster index of each row.
    pub assignments: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of rows to their centroids.
    pub sse: f64,
}

/// Runs k-means on the rows of `matrix`.
///
/// # Panics
///
/// Panics if `config.k` is zero.
pub fn run(matrix: &FeatureMatrix, config: &KmeansConfig) -> KmeansResult {
    assert!(config.k > 0, "k must be positive");
    let n = matrix.len();
    if n == 0 {
        return KmeansResult {
            assignments: Vec::new(),
            centroids: Vec::new(),
            sse: 0.0,
        };
    }
    let k = config.k.min(n);
    let mut best: Option<KmeansResult> = None;
    for restart in 0..config.n_init.max(1) {
        let mut rng = SimRng::seed_from(config.seed ^ (restart as u64).wrapping_mul(0x9E37));
        let result = lloyd(matrix, k, config.max_iters, &mut rng);
        if best.as_ref().is_none_or(|b| result.sse < b.sse) {
            best = Some(result);
        }
    }
    best.expect("at least one restart ran")
}

/// One weighted k-means++ pick against the current squared distances.
pub(crate) fn kmeanspp_pick(min_d2: &[f64], rng: &mut SimRng) -> usize {
    let n = min_d2.len();
    let total: f64 = min_d2.iter().sum();
    if total <= 0.0 {
        return rng.uniform_u64(0, n as u64 - 1) as usize;
    }
    let mut target = rng.uniform_f64() * total;
    let mut chosen = n - 1;
    for (i, &w) in min_d2.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            chosen = i;
            break;
        }
    }
    chosen
}

/// k-means++ seeding of `k` centroids.
pub(crate) fn seed_centroids(matrix: &FeatureMatrix, k: usize, rng: &mut SimRng) -> Vec<Vec<f64>> {
    let n = matrix.len();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(matrix.rows[rng.uniform_u64(0, n as u64 - 1) as usize].clone());
    let mut min_d2: Vec<f64> = matrix
        .rows
        .iter()
        .map(|r| dist2(r, &centroids[0]))
        .collect();
    while centroids.len() < k {
        let idx = kmeanspp_pick(&min_d2, rng);
        centroids.push(matrix.rows[idx].clone());
        let latest = centroids.last().expect("just pushed");
        for (row, min) in matrix.rows.iter().zip(&mut min_d2) {
            // Abandoned only when above the current minimum, which then
            // stays: the same value the unbounded `min` would keep.
            *min = min.min(dist2_within(row, latest, *min));
        }
    }
    centroids
}

/// The nearest centroid of one row; the first one on ties.
///
/// Each distance goes through the exact bounded kernel [`dist2_within`]
/// with the running best as its bound. A candidate is abandoned only once
/// its partial sum is strictly greater than the best, and its full
/// distance would be too, so it could not have won; an exact tie runs to
/// the end and loses the `<` test, keeping the first minimum. The
/// assignment is therefore the same as a full scan's.
pub(crate) fn nearest(row: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best_c = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let dd = dist2_within(row, centroid, best_d);
        if dd < best_d {
            best_d = dd;
            best_c = c;
        }
    }
    best_c
}

/// Lloyd iterations from the given initial centroids.
///
/// The assignment step — the O(rows × k × dims) hot loop — fans out over
/// the pool for large matrices; every row's nearest centroid is computed
/// independently and the SSE is folded serially in row order, so the
/// result is bit-identical for any thread count.
pub(crate) fn lloyd_from(
    matrix: &FeatureMatrix,
    mut centroids: Vec<Vec<f64>>,
    max_iters: usize,
) -> KmeansResult {
    let n = matrix.len();
    let d = matrix.dims();
    let k = centroids.len();
    let pool = tpupoint_par::pool();
    let parallel = n >= PAR_ASSIGN_MIN_ROWS && pool.size() > 1;
    let mut assignments = vec![0usize; n];
    for _ in 0..max_iters {
        // Assign.
        let fresh: Vec<usize> = if parallel {
            pool.par_map(&matrix.rows, |_, row| nearest(row, &centroids))
        } else {
            matrix
                .rows
                .iter()
                .map(|row| nearest(row, &centroids))
                .collect()
        };
        let changed = fresh != assignments;
        assignments = fresh;
        // Update.
        let mut sums = vec![vec![0.0; d]; k];
        let mut counts = vec![0usize; k];
        for (i, row) in matrix.rows.iter().enumerate() {
            counts[assignments[i]] += 1;
            for (s, x) in sums[assignments[i]].iter_mut().zip(row) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for s in &mut sums[c] {
                    *s /= counts[c] as f64;
                }
                centroids[c] = sums[c].clone();
            }
        }
        if !changed {
            break;
        }
    }

    let row_d2: Vec<f64> = if parallel {
        pool.par_map(&matrix.rows, |i, row| {
            dist2(row, &centroids[assignments[i]])
        })
    } else {
        matrix
            .rows
            .iter()
            .zip(&assignments)
            .map(|(row, &c)| dist2(row, &centroids[c]))
            .collect()
    };
    let sse = row_d2.iter().sum();
    KmeansResult {
        assignments,
        centroids,
        sse,
    }
}

fn lloyd(matrix: &FeatureMatrix, k: usize, max_iters: usize, rng: &mut SimRng) -> KmeansResult {
    let centroids = seed_centroids(matrix, k, rng);
    lloyd_from(matrix, centroids, max_iters)
}

/// One warm-started sweep step: the previous run's final centroids plus a
/// single k-means++ pick, then one Lloyd descent. Adding a centroid can
/// only shrink each row's nearest-centroid distance and Lloyd never
/// increases the SSE, so `result.sse <= previous.sse` by construction.
fn run_warm(
    matrix: &FeatureMatrix,
    previous: &KmeansResult,
    config: &KmeansConfig,
) -> KmeansResult {
    let mut rng = SimRng::seed_from(
        config
            .seed
            .wrapping_add((previous.centroids.len() as u64 + 1).wrapping_mul(0x51ab)),
    );
    let mut centroids = previous.centroids.clone();
    let min_d2: Vec<f64> = matrix
        .rows
        .iter()
        .zip(&previous.assignments)
        .map(|(row, &c)| dist2(row, &centroids[c]))
        .collect();
    centroids.push(matrix.rows[kmeanspp_pick(&min_d2, &mut rng)].clone());
    lloyd_from(matrix, centroids, config.max_iters)
}

/// Sweeps k over `range`, returning `(k, sse)` pairs — the data behind
/// Figure 4.
///
/// With [`KmeansConfig::warm_start`] (the default) the sweep walks k
/// upward, seeding each run from the previous one; the per-iteration
/// assignment step still uses the pool. With `warm_start` off every k is
/// an independent fresh run and the sweep itself fans out over the pool.
/// Both modes produce the same output for any thread count.
pub fn sweep(
    matrix: &FeatureMatrix,
    range: std::ops::RangeInclusive<usize>,
    config: &KmeansConfig,
) -> Vec<(usize, f64)> {
    let n = matrix.len();
    if config.warm_start && n > 0 {
        let mut out = Vec::new();
        let mut previous: Option<KmeansResult> = None;
        for k in range {
            let result = match &previous {
                // Warm-start only while k actually grows the centroid
                // set (k is capped at the row count in `run`).
                Some(prev) if k.min(n) == prev.centroids.len() + 1 => {
                    run_warm(matrix, prev, config)
                }
                _ => run(matrix, &KmeansConfig { k, ..*config }),
            };
            out.push((k, result.sse));
            previous = Some(result);
        }
        return out;
    }
    let ks: Vec<usize> = range.collect();
    tpupoint_par::pool().par_map(&ks, |_, &k| {
        let result = run(matrix, &KmeansConfig { k, ..*config });
        (k, result.sse)
    })
}

/// Applies the elbow method to a sweep, returning the chosen k.
pub fn elbow_k(sweep: &[(usize, f64)]) -> Option<usize> {
    let xs: Vec<f64> = sweep.iter().map(|(k, _)| *k as f64).collect();
    let ys: Vec<f64> = sweep.iter().map(|(_, s)| *s).collect();
    elbow_index(&xs, &ys).map(|i| sweep[i].0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::full_scans;
    use crate::testdata::{grid_rows, random_rows, SHAPES};

    /// Three well-separated blobs of 20 points each.
    fn blobs() -> FeatureMatrix {
        let mut rng = SimRng::seed_from(5);
        let centers = [(0.0, 0.0), (10.0, 0.0), (5.0, 12.0)];
        let mut rows = Vec::new();
        let mut steps = Vec::new();
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..20 {
                rows.push(vec![
                    cx + rng.standard_normal() * 0.3,
                    cy + rng.standard_normal() * 0.3,
                ]);
                steps.push((ci * 20 + i) as u64);
            }
        }
        FeatureMatrix { steps, rows }
    }

    #[test]
    fn recovers_three_blobs() {
        let m = blobs();
        let result = run(
            &m,
            &KmeansConfig {
                k: 3,
                ..KmeansConfig::default()
            },
        );
        // All points of one blob share a label.
        for blob in 0..3 {
            let labels: Vec<usize> = (blob * 20..(blob + 1) * 20)
                .map(|i| result.assignments[i])
                .collect();
            assert!(labels.iter().all(|&l| l == labels[0]), "blob {blob} split");
        }
        assert!(result.sse < 60.0 * 1.0, "sse {}", result.sse);
    }

    #[test]
    fn sse_decreases_with_k() {
        let m = blobs();
        let sweep = sweep(&m, 1..=6, &KmeansConfig::default());
        for pair in sweep.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1 + 1e-9,
                "sse should not increase: {pair:?}"
            );
        }
    }

    #[test]
    fn elbow_picks_the_true_cluster_count() {
        let m = blobs();
        let s = sweep(&m, 1..=8, &KmeansConfig::default());
        let k = elbow_k(&s).expect("elbow exists");
        assert!((2..=4).contains(&k), "elbow k = {k}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m = blobs();
        let a = run(&m, &KmeansConfig::default());
        let b = run(&m, &KmeansConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn k_capped_at_point_count() {
        let m = FeatureMatrix {
            steps: vec![1, 2],
            rows: vec![vec![0.0], vec![1.0]],
        };
        let result = run(
            &m,
            &KmeansConfig {
                k: 10,
                ..KmeansConfig::default()
            },
        );
        assert!(result.centroids.len() <= 2);
        assert_eq!(result.sse, 0.0);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = FeatureMatrix {
            steps: vec![],
            rows: vec![],
        };
        let result = run(&m, &KmeansConfig::default());
        assert!(result.assignments.is_empty());
    }

    #[test]
    fn warm_sweep_is_monotone_non_increasing() {
        let m = blobs();
        let s = sweep(
            &m,
            1..=10,
            &KmeansConfig {
                warm_start: true,
                ..KmeansConfig::default()
            },
        );
        for pair in s.windows(2) {
            assert!(pair[1].1 <= pair[0].1 + 1e-12, "ssd increased: {pair:?}");
        }
    }

    #[test]
    fn cold_sweep_matches_independent_runs() {
        let m = blobs();
        let config = KmeansConfig {
            warm_start: false,
            ..KmeansConfig::default()
        };
        let s = sweep(&m, 1..=6, &config);
        let independent: Vec<(usize, f64)> = (1..=6)
            .map(|k| (k, run(&m, &KmeansConfig { k, ..config }).sse))
            .collect();
        assert_eq!(s, independent);
    }

    #[test]
    fn parallel_assignment_is_bit_identical_to_serial() {
        // Big enough to cross PAR_ASSIGN_MIN_ROWS so the pooled
        // assignment path actually runs.
        let mut rng = SimRng::seed_from(9);
        let rows: Vec<Vec<f64>> = (0..600)
            .map(|_| {
                vec![
                    rng.uniform_f64() * 8.0,
                    rng.uniform_f64() * 8.0,
                    rng.uniform_f64(),
                ]
            })
            .collect();
        let m = FeatureMatrix {
            steps: (0..600u64).collect(),
            rows,
        };
        tpupoint_par::set_threads(1);
        let serial_run = run(&m, &KmeansConfig::default());
        let serial_sweep = sweep(&m, 1..=5, &KmeansConfig::default());
        tpupoint_par::set_threads(4);
        assert_eq!(run(&m, &KmeansConfig::default()), serial_run);
        assert_eq!(sweep(&m, 1..=5, &KmeansConfig::default()), serial_sweep);
        tpupoint_par::set_threads(0);
    }

    /// Bit patterns of a k-means result, so `-0.0`/`0.0` and NaN
    /// payloads count as differences.
    fn bits(result: &KmeansResult) -> (Vec<usize>, Vec<Vec<u64>>, u64) {
        let centroids = result
            .centroids
            .iter()
            .map(|c| c.iter().map(|x| x.to_bits()).collect())
            .collect();
        (result.assignments.clone(), centroids, result.sse.to_bits())
    }

    fn sweep_bits(m: &FeatureMatrix, config: &KmeansConfig) -> Vec<(usize, u64)> {
        sweep(m, 1..=6, config)
            .into_iter()
            .map(|(k, sse)| (k, sse.to_bits()))
            .collect()
    }

    /// Replays runs and sweeps with `dist2_within` switched back to the
    /// full-length `dist2`, which makes `nearest` and `seed_centroids` the
    /// scans the bounded kernel replaced. Every shape stays below
    /// `PAR_ASSIGN_MIN_ROWS`, so assignment runs on the switched thread.
    #[test]
    fn bounded_scans_match_the_full_scans_bit_for_bit() {
        for (n, dims) in SHAPES {
            for m in [random_rows(n as u64, n, dims), grid_rows(n as u64, n, dims)] {
                for k in 1..=6 {
                    let config = KmeansConfig {
                        k,
                        ..KmeansConfig::default()
                    };
                    let fast = bits(&run(&m, &config));
                    let naive = bits(&full_scans::with(|| run(&m, &config)));
                    assert_eq!(fast, naive, "run k={k} n={n} dims={dims}");
                }
                let config = KmeansConfig::default();
                assert_eq!(
                    sweep_bits(&m, &config),
                    full_scans::with(|| sweep_bits(&m, &config)),
                    "sweep n={n} dims={dims}"
                );
            }
        }
    }

    #[test]
    fn nearest_keeps_the_first_of_tied_centroids() {
        let centroids = vec![vec![2.0, 0.0], vec![0.0, 2.0], vec![-2.0, 0.0]];
        assert_eq!(nearest(&[0.0, 0.0], &centroids), 0);
        assert_eq!(nearest(&[0.0, 0.0], &centroids[1..]), 0);
        assert_eq!(nearest(&[-1.0, 1.0], &centroids), 1);
    }

    #[test]
    fn non_finite_cells_do_not_panic() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = random_rows(3, 40, 7);
            m.rows[5][2] = bad;
            m.rows[17][0] = bad;
            for warm_start in [true, false] {
                let config = KmeansConfig {
                    warm_start,
                    ..KmeansConfig::default()
                };
                assert_eq!(sweep(&m, 1..=6, &config).len(), 6);
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let m = blobs();
        let _ = run(
            &m,
            &KmeansConfig {
                k: 0,
                ..KmeansConfig::default()
            },
        );
    }
}
