//! Shared test matrices for the distance-kernel oracle tests.

use crate::features::FeatureMatrix;
use tpupoint_simcore::SimRng;

/// `(rows, dims)` shapes the oracle tests cover: every row count up to
/// five, dims that are zero or not a multiple of the kernel's block
/// width, and two larger matrices, one past the neighbor-cache build's
/// parallel threshold but below the k-means assignment's.
pub(crate) const SHAPES: [(usize, usize); 26] = [
    (0, 0),
    (0, 7),
    (1, 0),
    (1, 1),
    (1, 7),
    (1, 13),
    (2, 0),
    (2, 1),
    (2, 7),
    (2, 13),
    (3, 0),
    (3, 1),
    (3, 7),
    (3, 13),
    (4, 0),
    (4, 1),
    (4, 7),
    (4, 13),
    (5, 0),
    (5, 1),
    (5, 7),
    (5, 13),
    (60, 1),
    (60, 7),
    (150, 13),
    (150, 0),
];

fn matrix(rows: Vec<Vec<f64>>) -> FeatureMatrix {
    FeatureMatrix {
        steps: (0..rows.len() as u64).collect(),
        rows,
    }
}

/// Uniform cells in `[0, 1)`; every third row repeats an earlier one.
pub(crate) fn random_rows(seed: u64, n: usize, dims: usize) -> FeatureMatrix {
    let mut rng = SimRng::seed_from(seed);
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let row = if i % 3 == 2 {
            rows[i / 2].clone()
        } else {
            (0..dims).map(|_| rng.uniform_f64()).collect()
        };
        rows.push(row);
    }
    matrix(rows)
}

/// Cells of 0 or 1, so every squared distance is a whole number and
/// many pairs sit exactly on a radius such as 2 (squared: 4).
pub(crate) fn grid_rows(seed: u64, n: usize, dims: usize) -> FeatureMatrix {
    let mut rng = SimRng::seed_from(seed);
    matrix(
        (0..n)
            .map(|_| (0..dims).map(|_| rng.uniform_u64(0, 1) as f64).collect())
            .collect(),
    )
}
