//! High-dimensional landscape reshaping (paper §4.2.4).
//!
//! For p=2 QAOA the landscape is 4-D with shape `(nb, nb, ng, ng)`
//! (indices `β1, β2, γ1, γ2`). OSCAR reshapes it into a 2-D grid of shape
//! `(nb·nb, ng·ng)` — pairing the two β indices into the row coordinate
//! and the two γ indices into the column coordinate — and reconstructs
//! with the 2-D machinery. The paper notes this introduces artificial
//! repeating patterns that cost some accuracy (Figure 4 C/D), which our
//! benchmarks reproduce.

/// Flattens a 4-D landscape, indexed `v[b1][b2][g1][g2]` row-major as
/// `((b1 * nb + b2) * ng + g1) * ng + g2`, into a row-major 2-D array of
/// shape `(nb*nb, ng*ng)` with row `b1 * nb + b2` and column
/// `g1 * ng + g2`.
///
/// Because the linearized orderings agree, this is the identity on
/// storage — the function exists to make that invariant explicit and
/// checked.
///
/// # Panics
///
/// Panics if `values.len() != nb * nb * ng * ng`.
pub fn reshape_4d_to_2d(values: &[f64], nb: usize, ng: usize) -> Vec<f64> {
    assert_eq!(values.len(), nb * nb * ng * ng, "4-D size mismatch");
    values.to_vec()
}

/// Inverse of [`reshape_4d_to_2d`].
///
/// # Panics
///
/// Panics if `values.len() != nb * nb * ng * ng`.
pub fn reshape_2d_to_4d(values: &[f64], nb: usize, ng: usize) -> Vec<f64> {
    assert_eq!(values.len(), nb * nb * ng * ng, "2-D size mismatch");
    values.to_vec()
}

/// The flat index of 4-D coordinates under the paper's reshaping.
pub fn index_4d(b1: usize, b2: usize, g1: usize, g2: usize, nb: usize, ng: usize) -> usize {
    assert!(
        b1 < nb && b2 < nb && g1 < ng && g2 < ng,
        "index out of range"
    );
    ((b1 * nb + b2) * ng + g1) * ng + g2
}

/// The (row, col) coordinates in the reshaped 2-D grid.
pub fn reshaped_coords(
    b1: usize,
    b2: usize,
    g1: usize,
    g2: usize,
    nb: usize,
    ng: usize,
) -> (usize, usize) {
    assert!(
        b1 < nb && b2 < nb && g1 < ng && g2 < ng,
        "index out of range"
    );
    (b1 * nb + b2, g1 * ng + g2)
}

/// Generates a 4-D p=2 QAOA landscape and returns it in the reshaped 2-D
/// layout, ready for reconstruction.
///
/// `f(i, betas, gammas)` receives the point's flat [`index_4d`] and
/// 2-element angle slices; the index is the key for a per-point counter
/// stream.
pub fn generate_p2_landscape(
    grid: &crate::grid::Grid4d,
    mut f: impl FnMut(usize, &[f64], &[f64]) -> f64,
) -> Vec<f64> {
    let nb = grid.beta.n;
    let ng = grid.gamma.n;
    let mut out = vec![0.0; nb * nb * ng * ng];
    for b1 in 0..nb {
        for b2 in 0..nb {
            for g1 in 0..ng {
                for g2 in 0..ng {
                    let (bv1, bv2, gv1, gv2) = grid.point(b1, b2, g1, g2);
                    let i = index_4d(b1, b2, g1, g2, nb, ng);
                    out[i] = f(i, &[bv1, bv2], &[gv1, gv2]);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid4d;

    #[test]
    fn index_and_coords_consistent() {
        let (nb, ng) = (3, 4);
        for b1 in 0..nb {
            for b2 in 0..nb {
                for g1 in 0..ng {
                    for g2 in 0..ng {
                        let flat = index_4d(b1, b2, g1, g2, nb, ng);
                        let (r, c) = reshaped_coords(b1, b2, g1, g2, nb, ng);
                        assert_eq!(flat, r * (ng * ng) + c);
                    }
                }
            }
        }
    }

    #[test]
    fn reshape_roundtrip() {
        let v: Vec<f64> = (0..(2 * 2 * 3 * 3)).map(|i| i as f64).collect();
        let two_d = reshape_4d_to_2d(&v, 2, 3);
        let back = reshape_2d_to_4d(&two_d, 2, 3);
        assert_eq!(v, back);
    }

    #[test]
    fn generate_p2_evaluates_all_points() {
        let grid = Grid4d::small_p2(3, 3);
        let mut calls = 0usize;
        let v = generate_p2_landscape(&grid, |i, _, _| {
            calls += 1;
            i as f64
        });
        assert_eq!(calls, 81);
        // Each point's value lands at the index it was handed.
        let expect: Vec<f64> = (0..81).map(|i| i as f64).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn generate_p2_orders_parameters() {
        let grid = Grid4d::small_p2(2, 2);
        let v = generate_p2_landscape(&grid, |_, betas, gammas| {
            betas[0] * 1000.0 + betas[1] * 100.0 + gammas[0] * 10.0 + gammas[1]
        });
        // First entry uses all-lo values; last all-hi.
        let lo = grid.beta.lo * 1100.0 + grid.gamma.lo * 11.0;
        let hi = grid.beta.hi * 1100.0 + grid.gamma.hi * 11.0;
        assert!((v[0] - lo).abs() < 1e-9);
        assert!((v[v.len() - 1] - hi).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn index_rejects_out_of_range() {
        let _ = index_4d(3, 0, 0, 0, 3, 4);
    }
}
