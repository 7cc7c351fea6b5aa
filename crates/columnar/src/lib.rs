//! Columnar storage substrate for the aggregation operator.
//!
//! The paper's operator never materializes a contiguous output whose size it
//! would have to guess. Instead it produces **runs** backed by a **two-level
//! data structure — a list of arrays** (§4.2) — which grows in O(1) chunks
//! without relocation, giving the benefit of Wassenberg's virtual-memory
//! over-allocation trick "with only very low overhead" and without requiring
//! special memory management.
//!
//! * [`ChunkedVec`] — the two-level list-of-arrays, the backing store of
//!   every run and partition, built from chunks the process-wide
//!   [`depot`] lends and takes back.
//! * [`Run`] — a sequence of rows (a key column plus any number of state
//!   columns) produced by one invocation of `HASHING` or `PARTITIONING`,
//!   carrying the metadata the framework needs: whether its rows are
//!   partial aggregates (so the *super-aggregate* function must be used to
//!   combine them, §3.1) and how many source rows it represents.
//! * [`RunHandle`] / [`RunStore`] — the storage identity of a run: resident
//!   in memory or spilled to a [`FileStore`] scratch file, so the operator
//!   can degrade to disk instead of failing when its memory budget is
//!   exhausted.

#![forbid(unsafe_code)]

mod chunked;
mod codec;
mod crc;
pub mod depot;
mod format;
mod io;
mod run;
mod store;
mod sweep;

pub use chunked::{ChunkedVec, DEFAULT_CHUNK_LEN};
pub use crc::{crc32c, Crc32c};
pub use depot::{DepotAccount, DepotUsage};
pub use format::EXTENT_WORDS;
pub use run::Run;
pub use store::{FileStore, RunHandle, RunStore, SpillConfig, SpilledRun, StoreIoStats};
