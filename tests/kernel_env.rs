//! The kernel path is chosen by `AggregateConfig::kernel` alone. An
//! `HSA_KERNEL` variable once overrode it; a stale export of it in some
//! deployment must no longer move a run onto the reference loops.
//!
//! Alone in its file on purpose: the test mutates the process environment,
//! which no concurrently running test may observe.

use hashing_is_sorting::kernels::{select, KernelKind, KernelPref};
use hashing_is_sorting::{try_aggregate_observed, AggregateConfig, ExecEnv, ObsConfig};

#[test]
fn hsa_kernel_env_var_is_ignored() {
    std::env::set_var("HSA_KERNEL", "scalar");
    assert_eq!(select(KernelPref::Auto), KernelKind::Batched);

    let keys: Vec<u64> = (0..10_000u64).map(|i| i % 97).collect();
    let (out, report) = try_aggregate_observed(
        &keys,
        &[],
        &[],
        &AggregateConfig::default(),
        &ExecEnv::unrestricted(),
        &ObsConfig::disabled(),
    )
    .unwrap();
    assert_eq!(out.n_groups(), 97);
    assert_eq!(report.kernel, "batched");
    assert_eq!(report.stats.kernel_scalar_rows, 0);
    assert!(report.stats.kernel_batched_rows >= keys.len() as u64);
}
