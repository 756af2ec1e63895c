//! DBSCAN (Ester et al., 1996), the paper's second clustering method.
//!
//! The paper sweeps the *minimum samples* parameter from 5 to 200 and
//! plots the ratio of noise (unclustered) points, applying the elbow
//! method to pick the knee (Figure 5). The neighborhood radius `eps` is
//! chosen by a k-nearest-neighbor heuristic on a sample of the data.
//!
//! Section VI-B notes that k-means and DBSCAN "reach memory limitations
//! for larger workloads such as RetinaNet and ResNet"; [`DbscanConfig::
//! max_points`] reproduces that operational limit explicitly.

use crate::elbow::elbow_index;
use crate::features::{dist2_within, FeatureMatrix};
use std::collections::VecDeque;
use std::fmt;

/// Label DBSCAN gives to unclustered points.
pub const NOISE: isize = -1;

/// Row count below which the neighbor-cache build stays serial.
const PAR_NEIGHBOR_MIN_ROWS: usize = 128;

/// Pairwise eps-neighborhoods of a matrix, computed once and shared by
/// every run of a [`sweep`] — the sweep varies only `min_samples`, so
/// recomputing the O(n²) neighbor scan per grid point is pure waste.
///
/// The build scans each unordered pair once, with the exact bounded
/// kernel [`dist2_within`] cut off at `eps²`, and mirrors every hit into
/// both rows' lists. Both steps are bit-exact: `(x−y)² == (y−x)²` in
/// IEEE-754, so `dist2` is symmetric, and the kernel stops only once its
/// partial sum already exceeds `eps²`, which the full sum then does too.
/// Each list keeps ascending row order (the order a full
/// `(0..n).filter(dist2 <= eps²)` scan produces), so BFS expansion and
/// therefore the cluster labels are unchanged.
#[derive(Debug, Clone)]
pub struct NeighborCache {
    eps: f64,
    lists: Vec<Vec<usize>>,
}

impl NeighborCache {
    /// Builds the cache for `matrix` at radius `eps`. Rows scan their
    /// upper triangle independently, so the scan fans out over the pool
    /// for large matrices with identical results at any thread count.
    pub fn build(matrix: &FeatureMatrix, eps: f64) -> Self {
        let _span = tpupoint_obs::span!("dbscan.neighbor_cache");
        let n = matrix.len();
        let eps2 = eps * eps;
        let rows = Rows::new(matrix);
        // Row i's neighbors j >= i, itself included when within eps.
        let scan = |i: usize| -> Vec<usize> {
            let a = rows.row(i);
            (i..n)
                .filter(|&j| dist2_within(a, rows.row(j), eps2) <= eps2)
                .collect()
        };
        let pool = tpupoint_par::pool();
        let upper: Vec<Vec<usize>> = if n >= PAR_NEIGHBOR_MIN_ROWS && pool.size() > 1 {
            pool.par_map_index(n, scan)
        } else {
            (0..n).map(scan).collect()
        };
        // Mirror the upper triangle. Visiting rows in ascending order
        // appends each row's lower neighbors ascending before its own
        // upper list, so every list comes out sorted.
        let mut degree: Vec<usize> = upper.iter().map(Vec::len).collect();
        for (i, up) in upper.iter().enumerate() {
            for &j in up.iter().filter(|&&j| j != i) {
                degree[j] += 1;
            }
        }
        let mut lists: Vec<Vec<usize>> = degree.into_iter().map(Vec::with_capacity).collect();
        for (i, up) in upper.into_iter().enumerate() {
            for &j in up.iter().filter(|&&j| j != i) {
                lists[j].push(i);
            }
            lists[i].extend_from_slice(&up);
        }
        NeighborCache { eps, lists }
    }

    /// The radius the cache was built for.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Rows covered by the cache.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether the cache covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Neighbors of row `i` (including `i` itself), ascending.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.lists[i]
    }
}

/// A matrix's rows copied into one contiguous buffer, so the pairwise
/// scans stream through memory rather than visit one allocation per row.
struct Rows {
    flat: Vec<f64>,
    dims: usize,
    len: usize,
}

impl Rows {
    fn new(matrix: &FeatureMatrix) -> Self {
        Rows {
            flat: matrix.rows.concat(),
            dims: matrix.dims(),
            len: matrix.len(),
        }
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.flat[i * self.dims..(i + 1) * self.dims]
    }
}

/// DBSCAN configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanConfig {
    /// Neighborhood radius; `None` selects it automatically via the kNN
    /// heuristic.
    pub eps: Option<f64>,
    /// Minimum neighbors (including self) for a core point.
    pub min_samples: usize,
    /// Refuse inputs with more rows than this (the paper's observed memory
    /// limitation on large workloads). `None` = unlimited.
    pub max_points: Option<usize>,
}

impl Default for DbscanConfig {
    fn default() -> Self {
        DbscanConfig {
            eps: None,
            min_samples: 30,
            max_points: Some(200_000),
        }
    }
}

/// DBSCAN failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbscanError {
    /// The input exceeded [`DbscanConfig::max_points`].
    MemoryLimit {
        /// Rows in the input.
        points: usize,
        /// The configured cap.
        limit: usize,
    },
}

impl fmt::Display for DbscanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbscanError::MemoryLimit { points, limit } => write!(
                f,
                "dbscan memory limit: {points} points exceed the {limit}-point cap"
            ),
        }
    }
}

impl std::error::Error for DbscanError {}

/// Result of a DBSCAN run.
#[derive(Debug, Clone, PartialEq)]
pub struct DbscanResult {
    /// Cluster label per row; [`NOISE`] for unclustered points.
    pub labels: Vec<isize>,
    /// Number of clusters found.
    pub clusters: usize,
    /// The eps actually used.
    pub eps: f64,
}

impl DbscanResult {
    /// Fraction of points labeled noise — the paper's Figure 5 metric.
    pub fn noise_ratio(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|&&l| l == NOISE).count() as f64 / self.labels.len() as f64
    }
}

/// Chooses eps as 1.5 × the median distance to the 4th-nearest neighbor.
/// The median is estimated over at most 512 sampled seed rows, but each
/// seed's 4th-nearest neighbor is found against the *full* matrix: the
/// 4th-nearest within a 1-in-`stride` subsample is really the
/// ~`4×stride`-th neighbor of the full data, so restricting the search to
/// the sample inflates eps and (time-weighted) phase coverage degrades as
/// dense step clusters get merged across real boundaries.
///
/// Each seed's search ([`kth_nearest_d2`]) prunes with the exact bounded
/// kernel and returns the same value a full sort would, so eps is
/// bit-identical to an exhaustive scan. Seeds are independent and fan
/// out over the pool for large matrices.
pub fn auto_eps(matrix: &FeatureMatrix) -> f64 {
    let _span = tpupoint_obs::span!("dbscan.auto_eps");
    let n = matrix.len();
    if n < 2 {
        return 1.0;
    }
    let stride = n.div_ceil(512);
    let sample: Vec<usize> = (0..n).step_by(stride).collect();
    let k = KNN_RANK.min(n - 2);
    let rows = Rows::new(matrix);
    let knn_of = |&i: &usize| kth_nearest_d2(&rows, i, k).sqrt();
    let pool = tpupoint_par::pool();
    let mut knn: Vec<f64> = if n >= PAR_NEIGHBOR_MIN_ROWS && pool.size() > 1 {
        pool.par_map(&sample, |_, i| knn_of(i))
    } else {
        sample.iter().map(knn_of).collect()
    };
    knn.sort_by(f64::total_cmp);
    let median = knn[knn.len() / 2];
    (1.5 * median).max(1e-9)
}

/// Zero-based rank of the neighbor whose distance sets eps: the 4th
/// nearest other row.
const KNN_RANK: usize = 3;

/// Squared distance from row `i` to its `(k+1)`-th nearest other row:
/// index `k` of the ascending distances to every other row.
///
/// Keeps the `k + 1` smallest distances seen so far, sorted, and visits
/// rows outward from `i` (`i−1`, `i+1`, `i−2`, …) because neighboring
/// steps tend to be the nearest, which tightens the cut-off early. Once
/// `k + 1` are held, a candidate is abandoned when its partial sum is
/// strictly greater than the largest kept: it cannot enter the kept set,
/// so the result equals a full sort's and does not depend on the visit
/// order. Comparisons use `total_cmp`, so NaN distances cannot panic.
fn kth_nearest_d2(rows: &Rows, i: usize, k: usize) -> f64 {
    let n = rows.len;
    let row = rows.row(i);
    let mut best: Vec<f64> = Vec::with_capacity(k + 2);
    let reach = i.max(n - 1 - i);
    let outward = (1..=reach)
        .flat_map(|off| [i.checked_sub(off), Some(i + off).filter(|&j| j < n)])
        .flatten();
    for j in outward {
        let bound = best.get(k).copied().unwrap_or(f64::INFINITY);
        let d = dist2_within(row, rows.row(j), bound);
        if best.len() <= k || d.total_cmp(&bound).is_lt() {
            let at = best.partition_point(|b| b.total_cmp(&d).is_le());
            best.insert(at, d);
            best.truncate(k + 1);
        }
    }
    best[k]
}

/// Runs DBSCAN.
///
/// # Errors
///
/// Returns [`DbscanError::MemoryLimit`] when the input exceeds the
/// configured point cap.
pub fn run(matrix: &FeatureMatrix, config: &DbscanConfig) -> Result<DbscanResult, DbscanError> {
    let n = matrix.len();
    if let Some(limit) = config.max_points {
        if n > limit {
            return Err(DbscanError::MemoryLimit { points: n, limit });
        }
    }
    let eps = config.eps.unwrap_or_else(|| auto_eps(matrix));
    let cache = NeighborCache::build(matrix, eps);
    Ok(run_with_cache(&cache, config.min_samples))
}

/// Runs DBSCAN against a prebuilt [`NeighborCache`]. The BFS itself is
/// serial (its expansion order defines the labels); the parallelism and
/// the savings both live in the shared cache.
pub fn run_with_cache(cache: &NeighborCache, min_samples: usize) -> DbscanResult {
    let n = cache.len();
    let min_samples = min_samples.max(1);
    let mut labels = vec![isize::MIN; n]; // MIN = unvisited
    let mut cluster: isize = 0;
    for i in 0..n {
        if labels[i] != isize::MIN {
            continue;
        }
        let nbrs = cache.neighbors(i);
        if nbrs.len() < min_samples {
            labels[i] = NOISE;
            continue;
        }
        labels[i] = cluster;
        let mut queue: VecDeque<usize> = nbrs.iter().copied().collect();
        while let Some(j) = queue.pop_front() {
            if labels[j] == NOISE {
                labels[j] = cluster; // border point adopted by the cluster
            }
            if labels[j] != isize::MIN {
                continue;
            }
            labels[j] = cluster;
            let jn = cache.neighbors(j);
            if jn.len() >= min_samples {
                queue.extend(jn.iter().copied());
            }
        }
        cluster += 1;
    }
    DbscanResult {
        labels,
        clusters: cluster as usize,
        eps: cache.eps(),
    }
}

/// Sweeps `min_samples` over the paper's grid (default 5..=180 step 25),
/// returning `(min_samples, noise_ratio, clusters)` triples — Figure 5.
///
/// eps and the O(n²) neighbor lists are computed once and shared by every
/// grid point; the per-point runs then fan out over the pool (each BFS is
/// independent given the cache, and results are ordered by grid index).
///
/// # Errors
///
/// Returns [`DbscanError::MemoryLimit`] when the input exceeds
/// `base.max_points`.
pub fn sweep(
    matrix: &FeatureMatrix,
    grid: &[usize],
    base: &DbscanConfig,
) -> Result<Vec<(usize, f64, usize)>, DbscanError> {
    let n = matrix.len();
    if let Some(limit) = base.max_points {
        if n > limit {
            return Err(DbscanError::MemoryLimit { points: n, limit });
        }
    }
    // eps is computed once so the sweep varies only min_samples.
    let eps = base.eps.unwrap_or_else(|| auto_eps(matrix));
    let cache = NeighborCache::build(matrix, eps);
    Ok(tpupoint_par::pool().par_map(grid, |_, &m| {
        let result = run_with_cache(&cache, m);
        (m, result.noise_ratio(), result.clusters)
    }))
}

/// The paper's sweep grid: 5 to 180 in steps of 25.
pub fn paper_grid() -> Vec<usize> {
    (0..8).map(|i| 5 + 25 * i).collect()
}

/// Applies the elbow method to a sweep, returning the chosen min-samples.
pub fn elbow_min_samples(sweep: &[(usize, f64, usize)]) -> Option<usize> {
    let xs: Vec<f64> = sweep.iter().map(|(m, _, _)| *m as f64).collect();
    let ys: Vec<f64> = sweep.iter().map(|(_, r, _)| *r).collect();
    elbow_index(&xs, &ys).map(|i| sweep[i].0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::dist2;
    use crate::testdata::{grid_rows, random_rows, SHAPES};
    use tpupoint_simcore::SimRng;

    /// The full `(0..n).filter(dist2 <= eps²)` scan the cache replaced.
    fn oracle_lists(matrix: &FeatureMatrix, eps: f64) -> Vec<Vec<usize>> {
        let n = matrix.len();
        (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| dist2(&matrix.rows[i], &matrix.rows[j]) <= eps * eps)
                    .collect()
            })
            .collect()
    }

    /// The exhaustive per-seed scan and selection `auto_eps` replaced.
    fn oracle_auto_eps(matrix: &FeatureMatrix) -> f64 {
        let n = matrix.len();
        if n < 2 {
            return 1.0;
        }
        let stride = n.div_ceil(512);
        let sample: Vec<usize> = (0..n).step_by(stride).collect();
        let mut knn: Vec<f64> = Vec::with_capacity(sample.len());
        for &i in &sample {
            let mut d: Vec<f64> = (0..n)
                .filter(|&j| j != i)
                .map(|j| matrix.dist2(i, j))
                .collect();
            if d.is_empty() {
                continue;
            }
            let k = 3.min(d.len() - 1);
            d.select_nth_unstable_by(k, |a, b| {
                a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
            });
            knn.push(d[k].sqrt());
        }
        if knn.is_empty() {
            return 1.0;
        }
        knn.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = knn[knn.len() / 2];
        (1.5 * median).max(1e-9)
    }

    fn cache_lists(cache: &NeighborCache) -> Vec<Vec<usize>> {
        (0..cache.len())
            .map(|i| cache.neighbors(i).to_vec())
            .collect()
    }

    #[test]
    fn auto_eps_matches_the_exhaustive_scan_bit_for_bit() {
        for (n, dims) in SHAPES.into_iter().chain([(600, 13), (1100, 7)]) {
            for m in [random_rows(n as u64, n, dims), grid_rows(n as u64, n, dims)] {
                assert_eq!(
                    auto_eps(&m).to_bits(),
                    oracle_auto_eps(&m).to_bits(),
                    "n={n} dims={dims}"
                );
            }
        }
    }

    #[test]
    fn neighbor_lists_match_the_full_scan() {
        for (n, dims) in SHAPES {
            let m = random_rows(n as u64, n, dims);
            for eps in [auto_eps(&m), 0.5, 1.0] {
                let cache = NeighborCache::build(&m, eps);
                assert_eq!(
                    cache_lists(&cache),
                    oracle_lists(&m, eps),
                    "n={n} dims={dims}"
                );
            }
            // Whole-number squared distances land exactly on eps² = 1
            // and eps² = 4, exercising the `<=` boundary.
            let grid = grid_rows(n as u64, n, dims);
            for eps in [1.0, 2.0, auto_eps(&grid)] {
                let cache = NeighborCache::build(&grid, eps);
                assert_eq!(
                    cache_lists(&cache),
                    oracle_lists(&grid, eps),
                    "grid n={n} dims={dims}"
                );
            }
        }
    }

    #[test]
    fn neighbor_lists_match_at_any_thread_count() {
        let m = grid_rows(4, 150, 13);
        let oracle = oracle_lists(&m, 2.0);
        for threads in [1, 2, 4] {
            tpupoint_par::set_threads(threads);
            assert_eq!(cache_lists(&NeighborCache::build(&m, 2.0)), oracle);
        }
        tpupoint_par::set_threads(0);
    }

    #[test]
    fn non_finite_cells_do_not_panic() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = random_rows(5, 150, 7);
            m.rows[3][1] = bad;
            m.rows[90][6] = bad;
            let eps = auto_eps(&m);
            let cache = NeighborCache::build(&m, eps);
            assert_eq!(cache.len(), 150);
            // A non-finite row is never within eps of anything, itself
            // included, exactly as the full scan decides.
            assert_eq!(cache_lists(&cache), oracle_lists(&m, eps));
            assert!(cache.neighbors(3).is_empty());
            let swept = sweep(&m, &paper_grid(), &DbscanConfig::default()).expect("within limits");
            assert_eq!(swept.len(), paper_grid().len());
            for radius in [f64::NAN, f64::INFINITY] {
                let cache = NeighborCache::build(&m, radius);
                assert_eq!(cache_lists(&cache), oracle_lists(&m, radius));
            }
        }
    }

    fn blobs(sizes: &[usize]) -> FeatureMatrix {
        let mut rng = SimRng::seed_from(9);
        let centers = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)];
        let mut rows = Vec::new();
        let mut steps = Vec::new();
        for (b, &size) in sizes.iter().enumerate() {
            let (cx, cy) = centers[b % centers.len()];
            for _ in 0..size {
                rows.push(vec![
                    cx + rng.standard_normal() * 0.5,
                    cy + rng.standard_normal() * 0.5,
                ]);
                steps.push(rows.len() as u64);
            }
        }
        FeatureMatrix { steps, rows }
    }

    #[test]
    fn separates_two_blobs() {
        let m = blobs(&[40, 40]);
        let result = run(
            &m,
            &DbscanConfig {
                eps: Some(3.0),
                min_samples: 5,
                max_points: None,
            },
        )
        .expect("within limits");
        assert_eq!(result.clusters, 2);
        assert_eq!(result.noise_ratio(), 0.0);
        assert!(result.labels[..40].iter().all(|&l| l == result.labels[0]));
        assert!(result.labels[40..].iter().all(|&l| l == result.labels[40]));
        assert_ne!(result.labels[0], result.labels[40]);
    }

    #[test]
    fn small_blobs_become_noise_as_min_samples_rises() {
        // One big blob (60) and one small (8).
        let m = blobs(&[60, 8]);
        let lo = run(
            &m,
            &DbscanConfig {
                eps: Some(3.0),
                min_samples: 5,
                max_points: None,
            },
        )
        .unwrap();
        let hi = run(
            &m,
            &DbscanConfig {
                eps: Some(3.0),
                min_samples: 20,
                max_points: None,
            },
        )
        .unwrap();
        assert_eq!(lo.clusters, 2);
        assert_eq!(hi.clusters, 1, "small blob no longer clusters");
        assert!(hi.noise_ratio() > lo.noise_ratio());
        assert!((hi.noise_ratio() - 8.0 / 68.0).abs() < 1e-9);
    }

    #[test]
    fn noise_ratio_is_monotone_in_min_samples() {
        let m = blobs(&[50, 30, 12]);
        let grid: Vec<usize> = vec![5, 10, 20, 40, 60];
        let sweep = sweep(
            &m,
            &grid,
            &DbscanConfig {
                eps: Some(3.0),
                ..DbscanConfig::default()
            },
        )
        .unwrap();
        for pair in sweep.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1 - 1e-9,
                "noise must not drop: {pair:?}"
            );
        }
    }

    #[test]
    fn memory_limit_is_enforced() {
        let m = blobs(&[50]);
        let err = run(
            &m,
            &DbscanConfig {
                eps: Some(1.0),
                min_samples: 5,
                max_points: Some(10),
            },
        )
        .expect_err("limit exceeded");
        assert_eq!(
            err,
            DbscanError::MemoryLimit {
                points: 50,
                limit: 10
            }
        );
        assert!(err.to_string().contains("memory limit"));
    }

    #[test]
    fn auto_eps_is_positive_and_scales_with_spread() {
        let tight = blobs(&[50]);
        let eps_tight = auto_eps(&tight);
        assert!(eps_tight > 0.0);
        let mut wide = tight.clone();
        for row in &mut wide.rows {
            for x in row.iter_mut() {
                *x *= 10.0;
            }
        }
        assert!(auto_eps(&wide) > eps_tight * 5.0);
    }

    #[test]
    fn paper_grid_matches_figure_5() {
        assert_eq!(paper_grid(), vec![5, 30, 55, 80, 105, 130, 155, 180]);
    }

    #[test]
    fn cached_sweep_matches_per_run_results() {
        let m = blobs(&[50, 30, 12]);
        let base = DbscanConfig {
            eps: Some(3.0),
            ..DbscanConfig::default()
        };
        let grid = vec![5, 10, 20, 40];
        for &(ms, noise, clusters) in &sweep(&m, &grid, &base).unwrap() {
            let solo = run(
                &m,
                &DbscanConfig {
                    min_samples: ms,
                    ..base
                },
            )
            .unwrap();
            assert_eq!((noise, clusters), (solo.noise_ratio(), solo.clusters));
        }
    }

    #[test]
    fn sweep_enforces_memory_limit() {
        let m = blobs(&[50]);
        let err = sweep(
            &m,
            &paper_grid(),
            &DbscanConfig {
                eps: Some(1.0),
                min_samples: 5,
                max_points: Some(10),
            },
        )
        .expect_err("limit exceeded");
        assert_eq!(
            err,
            DbscanError::MemoryLimit {
                points: 50,
                limit: 10
            }
        );
    }

    #[test]
    fn sweep_is_bit_identical_across_thread_counts() {
        // Big enough to cross PAR_NEIGHBOR_MIN_ROWS so the pooled cache
        // build actually runs.
        let m = blobs(&[120, 80, 40]);
        tpupoint_par::set_threads(1);
        let serial = sweep(&m, &paper_grid(), &DbscanConfig::default()).unwrap();
        tpupoint_par::set_threads(4);
        assert_eq!(
            sweep(&m, &paper_grid(), &DbscanConfig::default()).unwrap(),
            serial
        );
        tpupoint_par::set_threads(0);
    }

    #[test]
    fn border_points_join_clusters() {
        // A dense line of points: all should be one cluster, no noise.
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.5, 0.0]).collect();
        let m = FeatureMatrix {
            steps: (0..30).collect(),
            rows,
        };
        let result = run(
            &m,
            &DbscanConfig {
                eps: Some(1.1),
                min_samples: 3,
                max_points: None,
            },
        )
        .unwrap();
        assert_eq!(result.clusters, 1);
        assert_eq!(result.noise_ratio(), 0.0);
    }
}
