//! `KGFD_THREADS` decides every default thread count. This binary holds a
//! single test, so setting the variable races no other test.

use fact_discovery::DiscoveryConfig;
use kgfd_embed::TrainConfig;
use kgfd_harness::{GridOptions, Scale, SweepOptions};

#[test]
fn kgfd_threads_sets_every_default_thread_count() {
    std::env::set_var("KGFD_THREADS", "3");
    assert_eq!(TrainConfig::default().threads, 3, "training");
    assert_eq!(DiscoveryConfig::default().threads, 3, "discovery");
    assert_eq!(GridOptions::for_scale(Scale::Mini).threads, 3, "grid");
    assert_eq!(SweepOptions::for_scale(Scale::Mini).threads, 3, "sweep");
}
