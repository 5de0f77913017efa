//! # kgfd-datasets — synthetic benchmark knowledge graphs
//!
//! Generators that reproduce the *structural shape* of the paper's four
//! evaluation datasets (FB15K-237, WN18RR, YAGO3-10, CoDEx-L — Table 1)
//! without their raw files: Zipf-skewed popularity, community structure
//! controlling the clustering coefficient, relation locality, and
//! leakage-free train/valid/test splits. See DESIGN.md §1 for why each
//! substitution preserves the behaviour the paper measures. Beside the
//! generator sit the inverse-relation leakage audit ([`find_inverse_pairs`])
//! and profile fitting from an existing graph ([`fit_profile`]).
//!
//! ```
//! use kgfd_datasets::{generate, mini, fb15k237_like};
//!
//! let dataset = generate(&mini(&fb15k237_like())).unwrap();
//! assert_eq!(dataset.train.num_entities(), 145);
//! assert!(dataset.train.len() > 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builtin;
mod fit;
mod generator;
mod inverse;
mod profile;
mod toy;
mod zipf;

pub use builtin::{codexl_like, fb15k237_like, mini, wn18rr_like, yago310_like};
pub use fit::fit_profile;
pub use generator::generate;
pub use inverse::{find_inverse_pairs, InversePair};
pub use profile::DatasetProfile;
pub use toy::toy_biomedical;
pub use zipf::Zipf;
