//! The tiled entity-table sweep behind the batched scoring kernels.
//!
//! Every dot-product-family model reduces a side query to a *query vector*
//! (or a translation point) that is then combined with each row of the
//! entity table. The single-query kernels therefore sweep the whole
//! `N × dim` table once per query. [`sweep`] sweeps it once per
//! **tile of [`QUERY_TILE`] queries** instead, and walks the table in
//! blocks of [`ENTITY_BLOCK`] rows: within a block, the inner loops run
//! query-then-entity, so
//!
//! - a block of entity rows is reused by every query of the tile while it
//!   is still cache-resident, and
//! - each query writes its `out[q·N + block]` slots as one contiguous run
//!   instead of the old stride-`N` scatter (one write per entity per
//!   query), which lets the stores stream.
//!
//! The sweep is generic over the per-`(query, entity)` expression, and only
//! this crate's models call it: DistMult, ComplEx, HolE and RESCAL pass
//! `dot`, SimplE `½·dot`, TransE its negated L1 or L2 distance, and RotatE
//! its own `neg_complex_l1`.
//!
//! **Bit-identical-scores contract:** for each `(query, entity)` pair the
//! expression is the exact one of the corresponding single-query kernel, in
//! the same summation order over `dim`. Tiling and entity blocking only
//! reorder *independent* output slots, so batched scores are bitwise equal
//! to looped single-query scores — the differential suites in
//! `tests/batch_kernels.rs` and `kgfd-eval` hold both paths to that.
//!
//! Output layout is query-major: `out[q * N + e]` is query `q`'s score for
//! entity `e`, with `N = entities.rows()`.

use crate::ParamTable;

/// Queries per entity-table sweep. Sized so a tile of query vectors stays
/// resident in L1 alongside the streamed entity row at typical dims.
pub(crate) const QUERY_TILE: usize = 8;

/// Entity rows per block of the sweep. At dim ≈ 128 a block is
/// `64 × 128 × 4 B = 32 KiB` of entity rows — within L1 on current cores —
/// reused [`QUERY_TILE`] times before moving on, while each query's output
/// slice is written in contiguous 256-byte runs.
pub(crate) const ENTITY_BLOCK: usize = 64;

/// `out[q·N + e] = score(queries[q], entity_e)` for every `dim`-float query
/// row of `queries`, one table sweep per tile of [`QUERY_TILE`] queries in
/// blocks of [`ENTITY_BLOCK`] entity rows. Each model passes the exact
/// per-pair expression of its single-query kernel as `score`; every
/// instantiation compiles to its own inner loop.
#[inline]
pub(crate) fn sweep(
    entities: &ParamTable,
    queries: &[f32],
    dim: usize,
    out: &mut [f32],
    score: impl Fn(&[f32], &[f32]) -> f32,
) {
    debug_assert!(dim > 0);
    debug_assert_eq!(entities.cols(), dim);
    debug_assert_eq!(queries.len() % dim, 0);
    let q = queries.len() / dim;
    let n = entities.rows();
    debug_assert_eq!(out.len(), q * n);
    for tile_start in (0..q).step_by(QUERY_TILE) {
        let tile_end = (tile_start + QUERY_TILE).min(q);
        for block_start in (0..n).step_by(ENTITY_BLOCK) {
            let block_end = (block_start + ENTITY_BLOCK).min(n);
            for qi in tile_start..tile_end {
                let query = &queries[qi * dim..(qi + 1) * dim];
                let out_row = &mut out[qi * n + block_start..qi * n + block_end];
                for (slot, e) in out_row.iter_mut().zip(block_start..block_end) {
                    *slot = score(query, entities.row(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{dot, l1_distance, l2_distance};
    use crate::KgeModel;
    use kgfd_kg::{EntityId, RelationId};

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
        sweep(&entities, qvecs.data(), 6, &mut out, dot);
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
        sweep(&entities, qvecs.data(), 4, &mut out, |q, e| 0.5 * dot(q, e));
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
        sweep(&entities, points.data(), 4, &mut l1, |p, e| {
            -l1_distance(e, p)
        });
        sweep(&entities, points.data(), 4, &mut l2, |p, e| {
            -l2_distance(e, p)
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
    fn entity_blocking_is_exercised_and_bitwise_stable() {
        // More entities than one block, plus a ragged tail, so the block
        // loop takes both the full-block and partial-block paths.
        let rows = ENTITY_BLOCK + ENTITY_BLOCK / 2 + 3;
        let entities = table(rows, 6, 9);
        let qvecs = table(QUERY_TILE + 1, 6, 10);
        let q = QUERY_TILE + 1;
        let mut out = vec![0.0; q * rows];
        sweep(&entities, qvecs.data(), 6, &mut out, dot);
        for qi in 0..q {
            for e in 0..rows {
                let expect = dot(qvecs.row(qi), entities.row(e));
                assert_eq!(out[qi * rows + e].to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn complex_sweep_matches_scalar_formula_bitwise() {
        // RotatE's batched kernel through the sweep against its
        // single-query kernel.
        let model = crate::models::RotatE::new(6, 2, 8, 7);
        let queries = [
            (EntityId(0), RelationId(0)),
            (EntityId(3), RelationId(1)),
            (EntityId(5), RelationId(0)),
        ];
        let mut out = vec![0.0; queries.len() * 6];
        model.score_objects_batch(&queries, &mut out);
        let mut row = vec![0.0; 6];
        for (qi, &(s, r)) in queries.iter().enumerate() {
            model.score_objects(s, r, &mut row);
            for e in 0..6 {
                assert_eq!(out[qi * 6 + e].to_bits(), row[e].to_bits());
            }
        }
    }
}
