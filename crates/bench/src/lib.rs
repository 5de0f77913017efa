//! Shared fixtures for the Criterion benches: mini-scale datasets and
//! zoo-trained models (disk-cached, so repeated `cargo bench` runs skip
//! training).

#![forbid(unsafe_code)]

use kgfd_embed::KgeModel;
use kgfd_harness::{trained_model, DatasetRef, Scale};
use kgfd_kg::Dataset;

/// The FB15K-237-like mini dataset with a trained TransE — the workhorse
/// fixture (the paper's §4.3 sweeps all run on FB15K-237 + TransE).
pub fn fb_mini_transe() -> (Dataset, Box<dyn KgeModel>) {
    mini_fixture(DatasetRef::Fb15k237, kgfd_embed::ModelKind::TransE)
}

/// A mini dataset with a trained model of the given kind.
pub fn mini_fixture(
    dataset: DatasetRef,
    model: kgfd_embed::ModelKind,
) -> (Dataset, Box<dyn KgeModel>) {
    let data = dataset.load(Scale::Mini);
    let m = trained_model(dataset, model, Scale::Mini, &data);
    (data, m)
}

/// Prints a banner before a bench group's figure rows so `cargo bench`
/// output doubles as a (mini-scale) figure regeneration log.
pub fn banner(figure: &str) {
    println!("\n===== {figure} =====");
}
