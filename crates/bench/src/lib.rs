//! The fixture of the ranking Criterion bench: the FB15K-237-like mini
//! dataset with a zoo-trained TransE (disk-cached, so repeated `cargo bench`
//! runs skip training).

#![forbid(unsafe_code)]

use kgfd_embed::{KgeModel, ModelKind};
use kgfd_harness::{trained_model, DatasetRef, Scale};
use kgfd_kg::Dataset;

/// The FB15K-237-like mini dataset with a trained TransE.
pub fn fb_mini_transe() -> (Dataset, Box<dyn KgeModel>) {
    let data = DatasetRef::Fb15k237.load(Scale::Mini);
    let model = trained_model(
        DatasetRef::Fb15k237,
        ModelKind::TransE,
        Scale::Mini,
        &data,
        kgfd_pool::default_threads(),
    );
    (data, model)
}

/// Prints a banner before the bench's rows in the `cargo bench` output.
pub fn banner(title: &str) {
    println!("\n===== {title} =====");
}
