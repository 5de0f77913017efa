//! The query-lane entity-table sweep behind the batched scoring kernels.
//!
//! Every dot-product-family model reduces a side query to a *query vector*
//! (or a translation point) that is then combined with each row of the
//! entity table. The single-query kernels therefore sweep the whole
//! `N × dim` table once per query, and their reduction over `dim` is an
//! in-order `f32` sum that the compiler cannot vectorize without changing
//! its bits. [`sweep`] instead takes the queries in tiles of
//! [`QUERY_TILE`], transposes each tile once so that coordinate `d` of every
//! query sits in one `[f32; QUERY_TILE]` lane group, and reads each entity
//! row once per tile. Each lane folds its own query's reduction over `dim`
//! in the single-query order, so the vector runs *across* queries while every
//! per-pair sum stays sequential.
//!
//! A model describes its per-pair expression as a per-coordinate `step`
//! (`acc + q·e` for the dot products, `acc + |e − q|` or `acc + (e − q)²` for
//! TransE's distances) plus a `finish` applied to the folded sum (identity,
//! negation or `−√`). Only this crate's models call it: DistMult, ComplEx,
//! HolE, RESCAL and ConvE fold a dot, and TransE folds its L1 or L2
//! distance and negates it.
//!
//! **Bit-identical-scores contract:** the fold starts from the identity
//! `Iterator::sum` starts from, which [`sum_identity`] takes from `Sum`
//! itself (it is `-0.0` on current compilers and was `+0.0` before), applies
//! the same step in the same order over `dim`, and the same finish. Batched
//! scores are therefore bitwise equal to looped single-query scores — the
//! differential suites in `tests/batch_kernels.rs` and `kgfd-eval` hold
//! both paths to that.
//!
//! Output layout is query-major: `out[q * N + e]` is query `q`'s score for
//! entity `e`, with `N = entities.rows()`.

use crate::ParamTable;

/// Queries per entity-table sweep: one lane each. Eight `f32` lanes fill
/// one 256-bit vector or two 128-bit ones.
pub(crate) const QUERY_TILE: usize = 8;

/// The value `Iterator::sum::<f32>` starts its fold from. Taken from `Sum`
/// rather than written as a literal, because it changed between compiler
/// releases (from `+0.0` to `-0.0`), and a lane that starts elsewhere gives
/// a different sign when every term is `-0.0`.
#[inline]
pub(crate) fn sum_identity() -> f32 {
    std::iter::empty::<f32>().sum()
}

/// The per-coordinate step of [`crate::math::dot`]: `acc + q·e`.
#[inline]
pub(crate) fn dot_step(acc: f32, q: f32, e: f32) -> f32 {
    acc + q * e
}

/// The per-coordinate step of [`crate::math::l1_distance`]`(e, p)`:
/// `acc + |e − p|`.
#[inline]
pub(crate) fn l1_step(acc: f32, p: f32, e: f32) -> f32 {
    acc + (e - p).abs()
}

/// The per-coordinate step of [`crate::math::l2_distance`]`(e, p)` before
/// its square root: `acc + (e − p)²`.
#[inline]
pub(crate) fn l2_step(acc: f32, p: f32, e: f32) -> f32 {
    let d = e - p;
    acc + d * d
}

/// `out[q·N + e] = finish(fold(step))` for every `dim`-float query row of
/// `queries` and every entity row `e`, where the fold runs
/// `acc = step(acc, query[d], entity[d])` for `d` in `0..dim` from
/// [`sum_identity`]. Each model passes the step and finish of its
/// single-query kernel; every instantiation compiles to its own inner loop.
#[inline]
pub(crate) fn sweep(
    entities: &ParamTable,
    queries: &[f32],
    dim: usize,
    out: &mut [f32],
    step: impl Fn(f32, f32, f32) -> f32,
    finish: impl Fn(f32) -> f32,
) {
    debug_assert!(dim > 0);
    debug_assert_eq!(entities.cols(), dim);
    debug_assert_eq!(queries.len() % dim, 0);
    let n = entities.rows();
    debug_assert_eq!(out.len(), queries.len() / dim * n);
    let identity = sum_identity();
    // `lanes[d][l]` is coordinate `d` of the tile's query `l`. Lanes past a
    // ragged tile's end keep stale values; their results are never stored.
    let mut lanes = vec![[0.0f32; QUERY_TILE]; dim];
    for (tile, out_tile) in queries
        .chunks(QUERY_TILE * dim)
        .zip(out.chunks_mut(QUERY_TILE * n))
    {
        for (l, query) in tile.chunks_exact(dim).enumerate() {
            for (lane, &v) in lanes.iter_mut().zip(query) {
                lane[l] = v;
            }
        }
        let width = tile.len() / dim;
        for (e, row) in entities.data().chunks_exact(dim).enumerate() {
            let mut acc = [identity; QUERY_TILE];
            for (lane, &x) in lanes.iter().zip(row) {
                for (a, &q) in acc.iter_mut().zip(lane) {
                    *a = step(*a, q, x);
                }
            }
            for (l, &a) in acc[..width].iter().enumerate() {
                out_tile[l * n + e] = finish(a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{dot, l1_distance, l2_distance};
    use std::convert::identity;

    fn table(rows: usize, cols: usize, seed: u64) -> ParamTable {
        let mut t = ParamTable::zeros(rows, cols);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        crate::init::xavier_uniform(&mut t, &mut rng);
        t
    }

    #[test]
    fn dot_sweep_matches_per_query_dots_bitwise() {
        let entities = table(13, 6, 1);
        let qvecs = table(11, 6, 2);
        let mut out = vec![0.0; 11 * 13];
        sweep(&entities, qvecs.data(), 6, &mut out, dot_step, identity);
        for qi in 0..11 {
            for e in 0..13 {
                let expect = dot(qvecs.row(qi), entities.row(e));
                assert_eq!(out[qi * 13 + e].to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn scaled_dot_sweep_applies_scale_after_the_dot() {
        let entities = table(5, 4, 3);
        let qvecs = table(3, 4, 4);
        let mut out = vec![0.0; 3 * 5];
        sweep(&entities, qvecs.data(), 4, &mut out, dot_step, |acc| {
            0.5 * acc
        });
        for qi in 0..3 {
            for e in 0..5 {
                let expect = 0.5 * dot(qvecs.row(qi), entities.row(e));
                assert_eq!(out[qi * 5 + e].to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn distance_sweeps_match_per_query_distances_bitwise() {
        // More queries than one tile, so the tile loop is exercised.
        let entities = table(7, 4, 5);
        let points = table(QUERY_TILE + 3, 4, 6);
        let q = QUERY_TILE + 3;
        let mut l1 = vec![0.0; q * 7];
        let mut l2 = vec![0.0; q * 7];
        sweep(&entities, points.data(), 4, &mut l1, l1_step, |acc| -acc);
        sweep(&entities, points.data(), 4, &mut l2, l2_step, |acc| {
            -acc.sqrt()
        });
        for qi in 0..q {
            for e in 0..7 {
                let e1 = -l1_distance(entities.row(e), points.row(qi));
                let e2 = -l2_distance(entities.row(e), points.row(qi));
                assert_eq!(l1[qi * 7 + e].to_bits(), e1.to_bits());
                assert_eq!(l2[qi * 7 + e].to_bits(), e2.to_bits());
            }
        }
    }

    #[test]
    fn ragged_tiles_are_bitwise_stable() {
        // Two full tiles plus a ragged one, after which the unused lanes
        // still hold the previous tile's queries, over enough entity rows
        // that every lane folds many sums.
        let rows = 100;
        let q = 2 * QUERY_TILE + 3;
        let entities = table(rows, 6, 9);
        let qvecs = table(q, 6, 10);
        let mut out = vec![0.0; q * rows];
        sweep(&entities, qvecs.data(), 6, &mut out, dot_step, identity);
        for qi in 0..q {
            for e in 0..rows {
                let expect = dot(qvecs.row(qi), entities.row(e));
                assert_eq!(out[qi * rows + e].to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn signed_zero_sums_start_from_the_sum_identity() {
        // Every product and every difference is a zero: `-0.0 · +0.0` is
        // `-0.0`, so the dot's sign is the sign of the fold's start.
        // Xavier-initialised tables never produce exact zeros.
        let entities = ParamTable::zeros(3, 5);
        let queries = vec![-0.0f32; 2 * 5];
        let mut dots = vec![1.0; 2 * 3];
        let mut l1 = vec![1.0; 2 * 3];
        sweep(&entities, &queries, 5, &mut dots, dot_step, identity);
        sweep(&entities, &queries, 5, &mut l1, l1_step, identity);
        for qi in 0..2 {
            let query = &queries[qi * 5..(qi + 1) * 5];
            for e in 0..3 {
                let row = entities.row(e);
                assert_eq!(dots[qi * 3 + e].to_bits(), dot(query, row).to_bits());
                assert_eq!(l1[qi * 3 + e].to_bits(), l1_distance(row, query).to_bits());
            }
        }
    }
}
