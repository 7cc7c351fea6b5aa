//! External-memory analysis of aggregation (§2, Figure 1).
//!
//! The paper argues in the external memory model of Aggarwal & Vitter: a
//! fast memory of `M` elements, transfers in lines of `B` elements, and an
//! unbounded slow memory. This crate provides
//!
//! * [`model`] — closed-form cache-line-transfer counts for the four
//!   textbook algorithms of §2 (`SORTAGG`, `SORTAGG_OPT`, `HASHAGG`,
//!   `HASHAGG_OPT`), which regenerate Figure 1, and
//! * [`cache`] + [`traced`] — a set-associative write-back LRU cache
//!   simulator and instrumented implementations of naive hash and sort
//!   aggregation, which validate the formulas *empirically* instead of
//!   trusting our own algebra.
//!
//! The central claim the model supports: with the two classic optimizations
//! (merge the last sort pass into the aggregation pass; partition before
//! hashing), sort- and hash-based aggregation transfer **the same** number
//! of cache lines — "hashing is sorting".

#![forbid(unsafe_code)]

pub mod cache;
pub mod model;
pub mod traced;

pub use cache::CacheSim;
pub use model::{hash_agg, hash_agg_opt, sort_agg, sort_agg_opt, sort_agg_static, ModelParams};
