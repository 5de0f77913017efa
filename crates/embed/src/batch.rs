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
//! per-pair sum stays sequential. One pass over the lanes folds
//! [`ROW_BLOCK`] entity rows, so each `d` step carries that many
//! independent add chains instead of one; the rows left over when `N` is not
//! a multiple of the block are folded one at a time.
//!
//! A model describes its per-pair expression as a per-coordinate `step`
//! (`acc + q·e` for the dot products, `acc + |e − q|` or `acc + (e − q)²` for
//! TransE's distances) plus a `finish` applied to the folded sum (identity,
//! negation or `−√`). Only this crate's models call it: DistMult, ComplEx,
//! HolE, RESCAL and ConvE fold a dot, and TransE folds its L1 or L2
//! distance and negates it.
//!
//! **Two codegens of one body.** The sweep's body is compiled twice: once
//! for the build's baseline target (SSE2 on x86-64) and once with `avx2`
//! enabled, whose 256-bit vectors hold a whole tile. [`sweep`] runs the
//! AVX2 one when the CPU reports AVX2 and the portable one otherwise;
//! [`kernel_path`] names the choice for run manifests. Only `avx2` is
//! enabled, never `fma`: a fused `acc + q·e` rounds once where the
//! single-query kernels round twice.
//!
//! **Bit-identical-scores contract:** the fold starts from the identity
//! `Iterator::sum` starts from, which [`sum_identity`] takes from `Sum`
//! itself (it is `-0.0` on current compilers and was `+0.0` before), applies
//! the same step in the same order over `dim`, and the same finish, in
//! either codegen. Batched scores are therefore bitwise equal to looped
//! single-query scores — the differential suites in `tests/batch_kernels.rs`
//! and `kgfd-eval` hold both paths to that, this module's tests hold each
//! codegen to it, and `tests/kernel_bits.rs` pins the scores' bits.
//!
//! Output layout is query-major: `out[q * N + e]` is query `q`'s score for
//! entity `e`, with `N = entities.rows()`.

use crate::ParamTable;

/// Queries per entity-table sweep: one lane each. Eight `f32` lanes fill
/// one 256-bit vector or two 128-bit ones.
pub(crate) const QUERY_TILE: usize = 8;

/// Entity rows folded per pass over a tile's lanes: each `d` step loads the
/// lane group once and carries this many independent add chains.
pub(crate) const ROW_BLOCK: usize = 4;

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

/// `true` when this CPU has AVX2, so [`sweep`] runs its AVX2 codegen.
fn avx2_detected() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        false
    }
}

/// The codegen the batched scoring kernels run on this CPU: `"avx2"` or
/// `"portable"`. It makes the same detection as the kernels' dispatch, so
/// a run manifest that records it names the code that produced its scores.
pub fn kernel_path() -> &'static str {
    if avx2_detected() {
        "avx2"
    } else {
        "portable"
    }
}

/// `out[q·N + e] = finish(fold(step))` for every `dim`-float query row of
/// `queries` and every entity row `e`, where the fold runs
/// `acc = step(acc, query[d], entity[d])` for `d` in `0..dim` from
/// [`sum_identity`]. Each model passes the step and finish of its
/// single-query kernel; every instantiation compiles to its own inner loops,
/// in both codegens: the AVX2 one when the CPU has it, the portable one
/// otherwise.
#[allow(unsafe_code)]
#[inline]
pub(crate) fn sweep(
    entities: &ParamTable,
    queries: &[f32],
    dim: usize,
    out: &mut [f32],
    step: impl Fn(f32, f32, f32) -> f32,
    finish: impl Fn(f32) -> f32,
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if avx2_detected() {
        // SAFETY: `avx2_detected()` on the line above found AVX2 on this
        // CPU, the only target feature `sweep_avx2` enables.
        return unsafe { sweep_avx2(entities, queries, dim, out, step, finish) };
    }
    sweep_body(entities, queries, dim, out, step, finish);
}

/// [`sweep_body`] compiled with `avx2` enabled (and not `fma`: see the
/// module docs). The step and finish closures inline into it.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn sweep_avx2(
    entities: &ParamTable,
    queries: &[f32],
    dim: usize,
    out: &mut [f32],
    step: impl Fn(f32, f32, f32) -> f32,
    finish: impl Fn(f32) -> f32,
) {
    sweep_body(entities, queries, dim, out, step, finish);
}

/// The one source of both codegens, `inline(always)` so that each caller's
/// target features compile it: called directly, it is the portable one.
#[inline(always)]
fn sweep_body(
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
        let mut store = |e: usize, acc: &[[f32; QUERY_TILE]]| {
            for (k, acc) in acc.iter().enumerate() {
                for (l, &a) in acc[..width].iter().enumerate() {
                    out_tile[l * n + e + k] = finish(a);
                }
            }
        };
        let mut blocks = entities.data().chunks_exact(ROW_BLOCK * dim);
        let mut e = 0;
        for block in blocks.by_ref() {
            store(e, &fold::<ROW_BLOCK>(&lanes, block, identity, &step));
            e += ROW_BLOCK;
        }
        for row in blocks.remainder().chunks_exact(dim) {
            store(e, &fold::<1>(&lanes, row, identity, &step));
            e += 1;
        }
    }
}

/// Folds the `ROWS` entity rows of `block` (`ROWS · dim` floats) against
/// every lane: `acc[k][l]` is row `k`'s sum for query lane `l`.
#[inline(always)]
fn fold<const ROWS: usize>(
    lanes: &[[f32; QUERY_TILE]],
    block: &[f32],
    identity: f32,
    step: &impl Fn(f32, f32, f32) -> f32,
) -> [[f32; QUERY_TILE]; ROWS] {
    let dim = lanes.len();
    let rows: [&[f32]; ROWS] = std::array::from_fn(|k| &block[k * dim..(k + 1) * dim]);
    let mut acc = [[identity; QUERY_TILE]; ROWS];
    for (d, lane) in lanes.iter().enumerate() {
        for (acc, row) in acc.iter_mut().zip(&rows) {
            let x = row[d];
            for (a, &q) in acc.iter_mut().zip(lane) {
                *a = step(*a, q, x);
            }
        }
    }
    acc
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

    /// The codegens this CPU runs, as [`sweep_on`]'s `avx2` argument: the
    /// portable one always, the AVX2 one when it is detected. The public
    /// kernels run only the latter on an AVX2 CPU.
    fn codegens() -> Vec<bool> {
        let mut codegens = vec![false];
        if avx2_detected() {
            codegens.push(true);
        }
        codegens
    }

    /// [`sweep`], which runs the AVX2 codegen on a CPU that has it, or with
    /// `avx2` false the portable codegen, [`sweep_body`] compiled for the
    /// build's baseline target.
    fn sweep_on(
        avx2: bool,
        entities: &ParamTable,
        queries: &[f32],
        dim: usize,
        out: &mut [f32],
        step: impl Fn(f32, f32, f32) -> f32,
        finish: impl Fn(f32) -> f32,
    ) {
        if avx2 {
            sweep(entities, queries, dim, out, step, finish);
        } else {
            sweep_body(entities, queries, dim, out, step, finish);
        }
    }

    /// Sweeps `queries` over `entities` on one codegen with each of the
    /// three kernels (dot, negated L1, negated L2 distance) and compares
    /// every score's bits with the single-query functions'. The output
    /// starts as NaN, so a score the sweep fails to write shows.
    fn assert_codegen_matches_single_queries(
        avx2: bool,
        entities: &ParamTable,
        queries: &[f32],
        dim: usize,
    ) {
        let n = entities.rows();
        let q = queries.len() / dim;
        let mut dots = vec![f32::NAN; q * n];
        let mut l1 = vec![f32::NAN; q * n];
        let mut l2 = vec![f32::NAN; q * n];
        sweep_on(avx2, entities, queries, dim, &mut dots, dot_step, identity);
        sweep_on(avx2, entities, queries, dim, &mut l1, l1_step, |acc| -acc);
        sweep_on(avx2, entities, queries, dim, &mut l2, l2_step, |acc| {
            -acc.sqrt()
        });
        for (qi, query) in queries.chunks_exact(dim).enumerate() {
            for e in 0..n {
                let row = entities.row(e);
                let at = format!("avx2 {avx2}, {q} queries × {n} rows, query {qi}, row {e}");
                let slot = qi * n + e;
                assert_eq!(dots[slot].to_bits(), dot(query, row).to_bits(), "{at}");
                let expect = -l1_distance(row, query);
                assert_eq!(l1[slot].to_bits(), expect.to_bits(), "{at}");
                let expect = -l2_distance(row, query);
                assert_eq!(l2[slot].to_bits(), expect.to_bits(), "{at}");
            }
        }
    }

    #[test]
    fn dot_sweep_matches_per_query_dots_bitwise() {
        let entities = table(13, 6, 1);
        let qvecs = table(11, 6, 2);
        for avx2 in codegens() {
            assert_codegen_matches_single_queries(avx2, &entities, qvecs.data(), 6);
        }
    }

    #[test]
    fn scaled_dot_sweep_applies_scale_after_the_dot() {
        let entities = table(5, 4, 3);
        let qvecs = table(3, 4, 4);
        for avx2 in codegens() {
            let mut out = vec![0.0; 3 * 5];
            sweep_on(
                avx2,
                &entities,
                qvecs.data(),
                4,
                &mut out,
                dot_step,
                |acc| 0.5 * acc,
            );
            for qi in 0..3 {
                for e in 0..5 {
                    let expect = 0.5 * dot(qvecs.row(qi), entities.row(e));
                    assert_eq!(out[qi * 5 + e].to_bits(), expect.to_bits());
                }
            }
        }
    }

    #[test]
    fn distance_sweeps_match_per_query_distances_bitwise() {
        // More queries than one tile, so the tile loop is exercised.
        let entities = table(7, 4, 5);
        let points = table(QUERY_TILE + 3, 4, 6);
        for avx2 in codegens() {
            assert_codegen_matches_single_queries(avx2, &entities, points.data(), 4);
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
        for avx2 in codegens() {
            assert_codegen_matches_single_queries(avx2, &entities, qvecs.data(), 6);
        }
    }

    #[test]
    fn every_row_remainder_and_tile_width_matches_bitwise() {
        // Entity counts from below one block to three blocks cover every
        // remainder modulo the block, and the query counts every way a tile
        // can end: one lane, one short of full, full, and ragged after two.
        for rows in 1..=3 * ROW_BLOCK {
            for q in [1, QUERY_TILE - 1, QUERY_TILE, 2 * QUERY_TILE + 3] {
                for dim in [1, 5, 32] {
                    let seed = (rows * 100 + q * 10 + dim) as u64;
                    let entities = table(rows, dim, seed);
                    let queries = table(q, dim, seed + 1);
                    for avx2 in codegens() {
                        assert_codegen_matches_single_queries(avx2, &entities, queries.data(), dim);
                    }
                }
            }
        }
    }

    #[test]
    fn signed_zero_sums_start_from_the_sum_identity() {
        // Every product and every difference is a zero: `-0.0 · +0.0` is
        // `-0.0`, so the dot's sign is the sign of the fold's start, in the
        // blocked rows and in the remainder row alike. Xavier-initialised
        // tables never produce exact zeros.
        let rows = ROW_BLOCK + 1;
        let entities = ParamTable::zeros(rows, 5);
        let queries = vec![-0.0f32; 2 * 5];
        for avx2 in codegens() {
            let mut dots = vec![1.0; 2 * rows];
            let mut l1 = vec![1.0; 2 * rows];
            let mut l2 = vec![1.0; 2 * rows];
            sweep_on(avx2, &entities, &queries, 5, &mut dots, dot_step, identity);
            sweep_on(avx2, &entities, &queries, 5, &mut l1, l1_step, identity);
            sweep_on(avx2, &entities, &queries, 5, &mut l2, l2_step, |acc| {
                acc.sqrt()
            });
            for (qi, query) in queries.chunks_exact(5).enumerate() {
                for e in 0..rows {
                    let row = entities.row(e);
                    let slot = qi * rows + e;
                    assert_eq!(dots[slot].to_bits(), dot(query, row).to_bits());
                    assert_eq!(l1[slot].to_bits(), l1_distance(row, query).to_bits());
                    assert_eq!(l2[slot].to_bits(), l2_distance(row, query).to_bits());
                }
            }
        }
    }
}
