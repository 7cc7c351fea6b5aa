//! The four workloads and the inputs they run on. Sizes, thread counts and
//! budgets are fixed here, not flags: two results are comparable only if
//! they ran the same table.

use hashing_is_sorting::datagen::{generate, generate_values, Distribution};

/// Rows per `AggStream::push` on the out-of-core workload.
pub const SPILL_CHUNK_ROWS: usize = 1 << 16;
/// Bytes of operator state per group (key + COUNT + SUM) the spill budget
/// is sized by.
const STATE_BYTES_PER_GROUP: u64 = 24;
/// Client connections of the serving workload (never more than `nproc`).
pub const SERVE_CONNECTIONS: usize = 2;
/// Rows per `rows` request of a served query (four requests per query).
pub const SERVE_CHUNK_ROWS: usize = 1 << 14;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Door {
    /// `try_aggregate_observed` over the whole slice.
    LibSlice { threads: usize },
    /// `AggStream` in [`SPILL_CHUNK_ROWS`] chunks under a memory budget of
    /// twice the output state, with a spill directory.
    LibSpill { threads: usize },
    /// `hsa serve` over loopback TCP.
    Serve,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line, restated in `BENCHMARK.json`.
    pub why: &'static str,
    pub door: Door,
    /// log2 of the input rows of one query.
    rows_log2: u32,
    /// log2 of the distinct keys, or `None` for a quarter of the rows.
    groups_log2: Option<u32>,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "lib_hot",
        why: "library call, K=2^10 at 1 thread: all rows hash into a cache-resident table, so hash/kernels/hashtbl/agg carry the wall and partition, spill, tasks and cli do nothing",
        door: Door::LibSlice { threads: 1 },
        rows_log2: 22,
        groups_log2: Some(10),
    },
    Workload {
        name: "lib_spread",
        why: "library call, K=N/4 at 2 threads: about half the rows take PARTITIONING and recurse two levels into 1M groups, so partition, seal, grow-merge, output and the tasks runtime dominate",
        door: Door::LibSlice { threads: 2 },
        rows_log2: 22,
        groups_log2: None,
    },
    Workload {
        name: "lib_spill",
        why: "lib_spread's input in 2^16-row chunks at 1 thread under a budget of twice the output state: denied reservations become spill writes and restores, so columnar store/codec/crc and fault budgets carry it",
        // One thread, not lib_spread's two: with two, one worker's output
        // reservation (which cannot spill) races the other's restores for
        // the last bytes of a full budget, and at this budget about one
        // query in ten fails with BudgetExceeded. See the README.
        door: Door::LibSpill { threads: 1 },
        rows_log2: 22,
        groups_log2: None,
    },
    Workload {
        name: "serve_small",
        why: "two clients looping 2^16-row queries (K=2^10) through hsa serve on loopback: JSON, socket framing, admission and per-query set-up do the work, the operator under 5 percent",
        door: Door::Serve,
        rows_log2: 16,
        groups_log2: Some(10),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Input rows of one query; the smoke run shrinks the library inputs
    /// to 2^18 rows (at 2^16 no budget of `lib_spill` is both above the
    /// resident floor and below what the query needs).
    pub fn rows(&self, smoke: bool) -> usize {
        1usize << if smoke { self.rows_log2.min(18) } else { self.rows_log2 }
    }

    /// Distinct keys the generator targets.
    pub fn groups(&self, smoke: bool) -> u64 {
        match self.groups_log2 {
            Some(k) => 1 << k,
            None => self.rows(smoke) as u64 / 4,
        }
    }

    /// Memory budget of the out-of-core workload: twice the output state.
    pub fn spill_budget(&self, smoke: bool) -> u64 {
        // At smoke size the fixed costs (the cache-sized table, the
        // write-combining buffers) outweigh the output state, and twice
        // the state is below the resident floor.
        let factor = if smoke { 4 } else { 2 };
        factor * self.groups(smoke) * STATE_BYTES_PER_GROUP
    }

    /// Independent inputs the workload needs: one per client connection.
    pub fn inputs(&self, smoke: bool, seed: u64) -> Vec<Input> {
        let copies = if self.door == Door::Serve { SERVE_CONNECTIONS } else { 1 };
        (0..copies as u64)
            .map(|c| Input::generate(self.rows(smoke), self.groups(smoke), seed.wrapping_add(c)))
            .collect()
    }
}

/// One generated table: a key column and one value column.
pub struct Input {
    pub keys: Vec<u64>,
    pub vals: Vec<u64>,
}

impl Input {
    pub fn generate(rows: usize, groups: u64, seed: u64) -> Self {
        Self {
            keys: generate(Distribution::Uniform, rows, groups, seed),
            vals: generate_values(rows, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_follow_the_table() {
        let spread = find("lib_spread").unwrap();
        assert_eq!((spread.rows(false), spread.groups(false)), (1 << 22, 1 << 20));
        assert_eq!((spread.rows(true), spread.groups(true)), (1 << 18, 1 << 16));
        assert_eq!(find("lib_spill").unwrap().spill_budget(false), 48 << 20);
        let serve = find("serve_small").unwrap();
        assert_eq!(serve.rows(false), 4 * SERVE_CHUNK_ROWS);
        assert_eq!(serve.rows(true), serve.rows(false));
        assert!(find("lib_skew").is_none());
    }

    #[test]
    fn same_seed_same_input_and_connections_differ() {
        let serve = find("serve_small").unwrap();
        let (a, b) = (serve.inputs(false, 7), serve.inputs(false, 7));
        assert_eq!(a.len(), SERVE_CONNECTIONS);
        assert_eq!(a[0].keys, b[0].keys);
        assert_eq!(a[1].vals, b[1].vals);
        assert_ne!(a[0].keys, a[1].keys);
        assert_ne!(a[0].keys, serve.inputs(false, 8)[0].keys);
    }
}
