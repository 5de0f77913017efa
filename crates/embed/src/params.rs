//! Parameter storage shared by all models and optimizers.
//!
//! A model's parameters are a list of row-major [`ParamTable`]s. By
//! convention table 0 holds entity embeddings and table 1 relation
//! embeddings; models with shared weights (RESCAL matrices, ConvE filters)
//! add more tables. Gradients are accumulated sparsely per `(table, row)` so
//! an optimizer only touches the rows a batch actually used — the standard
//! "sparse Adam" arrangement for embedding models.
//!
//! [`Gradients`] keeps those rows in one slab: the touched rows sit back to
//! back in a single `Vec<f32>`, in the order of their first touch, and an
//! FxHash index maps `(table, row)` to its slot. [`Gradients::clear`] only
//! resets lengths, so a buffer reused batch after batch stops allocating
//! once it has seen its largest batch.
//!
//! Iteration order cannot change results. The shard reduction, Adam and the
//! TransE renormalization each compute a row's new values from that row
//! alone, so the order in which rows are visited never enters a result.
//! Only the order of the contributions *within* a row does, and the backward
//! passes and the ascending-shard reduction fix that.

use fxhash::FxHashMap;

/// A dense row-major matrix of `f32` parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamTable {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl ParamTable {
    /// Allocates a zeroed table.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        ParamTable {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps existing data; `data.len()` must be `rows * cols`.
    pub fn from_data(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "table shape mismatch");
        ParamTable { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (row width).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The full backing buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable full backing buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// All parameter tables of one model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Parameters {
    tables: Vec<ParamTable>,
}

/// Index of the entity-embedding table (by convention).
pub const ENTITY_TABLE: usize = 0;
/// Index of the relation-embedding table (by convention).
pub const RELATION_TABLE: usize = 1;

impl Parameters {
    /// Creates an empty parameter set; push tables in conventional order.
    pub fn new(tables: Vec<ParamTable>) -> Self {
        Parameters { tables }
    }

    /// The table list.
    pub fn tables(&self) -> &[ParamTable] {
        &self.tables
    }

    /// Table `i`.
    #[inline]
    pub fn table(&self, i: usize) -> &ParamTable {
        &self.tables[i]
    }

    /// Mutable table `i`.
    #[inline]
    pub fn table_mut(&mut self, i: usize) -> &mut ParamTable {
        &mut self.tables[i]
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.tables.iter().map(|t| t.data.len()).sum()
    }
}

/// Sparse gradient accumulator keyed by `(table, row)`: one flat slab of
/// rows in first-touch order (see the module docs).
#[derive(Debug, Default)]
pub struct Gradients {
    /// `(table, row)` → index into `slots`.
    index: FxHashMap<(usize, usize), usize>,
    /// The touched rows in first-touch order.
    slots: Vec<Slot>,
    /// Every touched row's gradient, back to back in `slots` order.
    data: Vec<f32>,
}

/// Where one touched row's gradient lives in [`Gradients::data`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    table: usize,
    row: usize,
    start: usize,
    width: usize,
}

impl Slot {
    #[inline]
    fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.width
    }
}

impl Gradients {
    /// An empty accumulator.
    pub fn new() -> Self {
        Gradients::default()
    }

    /// Accumulates `alpha * grad` into the gradient of `(table, row)`.
    pub fn add(&mut self, table: usize, row: usize, grad: &[f32], alpha: f32) {
        let slot = self.slot(table, row, grad.len());
        debug_assert_eq!(slot.len(), grad.len());
        crate::math::add_scaled(slot, grad, alpha);
    }

    /// Mutable access to the gradient of `(table, row)`, creating a zeroed
    /// row of width `width` on first touch. Lets backward passes write
    /// in place instead of allocating temporaries.
    pub fn slot(&mut self, table: usize, row: usize, width: usize) -> &mut [f32] {
        let next = self.slots.len();
        let i = *self.index.entry((table, row)).or_insert(next);
        if i == next {
            let start = self.data.len();
            self.data.resize(start + width, 0.0);
            self.slots.push(Slot {
                table,
                row,
                start,
                width,
            });
        }
        let range = self.slots[i].range();
        &mut self.data[range]
    }

    /// The gradient of `(table, row)` if touched.
    pub fn get(&self, table: usize, row: usize) -> Option<&[f32]> {
        let &i = self.index.get(&(table, row))?;
        Some(&self.data[self.slots[i].range()])
    }

    /// Iterates over all touched `(table, row)` gradients, in first-touch
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &[f32])> {
        self.slots
            .iter()
            .map(|s| (s.table, s.row, &self.data[s.range()]))
    }

    /// Number of touched rows.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if nothing was accumulated.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Clears all accumulated gradients, keeping allocations.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.data.clear();
    }

    /// Accumulates every gradient of `other` into `self`.
    ///
    /// A row absent from `self` starts from zeros, exactly as a row a
    /// backward pass touches first, so a merged row is `0 + 1·x`: that is
    /// `x`, except that `−0.0` becomes `+0.0`, which no Adam update can tell
    /// apart. Rows are independent, so calling this once per shard buffer
    /// in ascending shard order reproduces the float-addition order of a
    /// sequential pass.
    pub fn merge_from(&mut self, other: &Gradients) {
        for (table, row, grad) in other.iter() {
            self.add(table, row, grad, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_are_disjoint_views() {
        let mut t = ParamTable::zeros(3, 2);
        t.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(t.row(0), &[0.0, 0.0]);
        assert_eq!(t.row(1), &[1.0, 2.0]);
        assert_eq!(t.row(2), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_data_validates_shape() {
        ParamTable::from_data(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn parameters_count_scalars() {
        let p = Parameters::new(vec![ParamTable::zeros(4, 3), ParamTable::zeros(2, 5)]);
        assert_eq!(p.num_parameters(), 22);
        assert_eq!(p.num_tables(), 2);
    }

    #[test]
    fn gradients_accumulate() {
        let mut g = Gradients::new();
        g.add(0, 7, &[1.0, 2.0], 1.0);
        g.add(0, 7, &[1.0, 1.0], 2.0);
        assert_eq!(g.get(0, 7), Some(&[3.0, 4.0][..]));
        assert_eq!(g.len(), 1);
        g.clear();
        assert!(g.is_empty());
    }

    #[test]
    fn slot_creates_zeroed_buffer() {
        let mut g = Gradients::new();
        g.slot(1, 3, 4)[2] = 5.0;
        assert_eq!(g.get(1, 3), Some(&[0.0, 0.0, 5.0, 0.0][..]));
    }
}
