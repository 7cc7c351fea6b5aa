//! End-to-end tests of the `hsa serve` NDJSON protocol: an in-process
//! server on an OS-assigned port, real TCP clients, concurrent queries.
//!
//! The CI smoke job drives the same protocol against the released
//! binary; these tests pin the semantics — bit-identical concurrent
//! results, cancel-by-id isolation, typed budget failures, and zero
//! leaked scratch files.

use hashing_is_sorting::obs::json::{parse as parse_json, JsonValue};
use hsa_cli::{serve_on, ServeArgs};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

fn start_server(args: ServeArgs) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || serve_on(listener, &args));
    addr
}

fn default_args() -> ServeArgs {
    ServeArgs {
        listen: String::new(),
        threads: 2,
        mem_total: None,
        disk_total: None,
        max_queries: None,
        spill_dir: None,
        admit_timeout_ms: 2_000,
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let writer = stream.try_clone().expect("clone");
        Self { reader: BufReader::new(stream), writer }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
    }

    fn recv(&mut self) -> JsonValue {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection");
        parse_json(&line).unwrap_or_else(|e| panic!("bad server JSON {line:?}: {e}"))
    }

    /// Submit, returning the assigned query id.
    fn submit(&mut self, spec: &str) -> u64 {
        self.send(spec);
        let mut reply = self.recv();
        // A saturated server says "queued" first, then resolves.
        if reply.get("ok").and_then(JsonValue::as_str) == Some("queued") {
            reply = self.recv();
        }
        assert_eq!(reply.get("ok").and_then(JsonValue::as_str), Some("admitted"), "{reply:?}");
        reply.get("query_id").and_then(JsonValue::as_u64).expect("query_id")
    }

    fn push_ok(&mut self, keys: &[u64], cols: &[&[u64]]) {
        self.send(&rows_line(keys, cols));
        let reply = self.recv();
        assert_eq!(reply.get("ok").and_then(JsonValue::as_str), Some("rows"), "{reply:?}");
    }

    /// Finish and collect `(sorted rows, final done object)`.
    fn finish(&mut self) -> (Vec<(u64, Vec<u64>)>, JsonValue) {
        self.send(r#"{"op":"finish"}"#);
        let mut rows = Vec::new();
        loop {
            let reply = self.recv();
            if let Some(block) = reply.get("block") {
                let keys = u64s(block.get("keys").expect("block keys"));
                let cols: Vec<Vec<u64>> = block
                    .get("cols")
                    .and_then(JsonValue::as_array)
                    .expect("block cols")
                    .iter()
                    .map(u64s)
                    .collect();
                for (i, k) in keys.iter().enumerate() {
                    rows.push((*k, cols.iter().map(|c| c[i]).collect()));
                }
                continue;
            }
            assert!(reply.get("done").is_some(), "unexpected reply {reply:?}");
            return (rows, reply);
        }
    }
}

fn u64s(v: &JsonValue) -> Vec<u64> {
    v.as_array().expect("array").iter().map(|x| x.as_u64().expect("u64")).collect()
}

fn rows_line(keys: &[u64], cols: &[&[u64]]) -> String {
    let fmt = |xs: &[u64]| {
        let inner = xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        format!("[{inner}]")
    };
    let cols = cols.iter().map(|c| fmt(c)).collect::<Vec<_>>().join(",");
    format!(r#"{{"op":"rows","keys":{},"cols":[{cols}]}}"#, fmt(keys))
}

/// The workload every test reuses: skewed keys, deterministic values.
fn test_data(n: u64) -> (Vec<u64>, Vec<u64>) {
    let keys = (0..n).map(|i| i.wrapping_mul(2654435761) % 500).collect();
    let vals = (0..n).collect();
    (keys, vals)
}

fn expected_rows(keys: &[u64], vals: &[u64]) -> Vec<(u64, Vec<u64>)> {
    let specs = [hashing_is_sorting::AggSpec::count(), hashing_is_sorting::AggSpec::sum(0)];
    let cfg = hashing_is_sorting::AggregateConfig::default();
    let (out, _) = hashing_is_sorting::aggregate(keys, &[vals], &specs, &cfg);
    out.sorted_rows()
}

const SUBMIT: &str = r#"{"op":"submit","aggs":[["count"],["sum",0]]}"#;

#[test]
fn round_trip_single_query() {
    let addr = start_server(default_args());
    let (keys, vals) = test_data(20_000);
    let mut client = Client::connect(addr);
    let id = client.submit(SUBMIT);
    for chunk in keys.chunks(7_000).zip(vals.chunks(7_000)) {
        client.push_ok(chunk.0, &[chunk.1]);
    }
    let (rows, done) = client.finish();
    assert_eq!(rows, expected_rows(&keys, &vals));
    let done = done.get("done").unwrap();
    assert_eq!(done.get("query_id").and_then(JsonValue::as_u64), Some(id));
    let report = done.get("report").unwrap();
    assert_eq!(report.get("report_version").and_then(JsonValue::as_u64), Some(4));
    assert_eq!(report.get("query_id").and_then(JsonValue::as_u64), Some(id));
    assert_eq!(report.get("rows_in").and_then(JsonValue::as_u64), Some(20_000));
}

#[test]
fn concurrent_queries_are_bit_identical_to_sequential() {
    let addr = start_server(default_args());
    let (keys, vals) = test_data(30_000);
    // Sequential reference through the same wire protocol.
    let sequential = {
        let mut c = Client::connect(addr);
        c.submit(SUBMIT);
        for chunk in keys.chunks(5_000).zip(vals.chunks(5_000)) {
            c.push_ok(chunk.0, &[chunk.1]);
        }
        c.finish().0
    };
    assert_eq!(sequential, expected_rows(&keys, &vals));
    // Now four at once, interleaving chunk pushes on their own threads.
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (keys, vals) = (&keys, &vals);
                s.spawn(move || {
                    let mut c = Client::connect(addr);
                    let id = c.submit(SUBMIT);
                    for chunk in keys.chunks(3_000).zip(vals.chunks(3_000)) {
                        c.push_ok(chunk.0, &[chunk.1]);
                    }
                    let (rows, done) = c.finish();
                    let done = done.get("done").unwrap().clone();
                    let report_rows = done
                        .get("report")
                        .and_then(|r| r.get("rows_in"))
                        .and_then(JsonValue::as_u64);
                    (id, rows, report_rows)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut seen_ids = Vec::new();
    for (id, rows, report_rows) in results {
        assert_eq!(rows, sequential, "concurrent result must be bit-identical to sequential");
        assert_eq!(report_rows, Some(30_000), "per-query stats must be conserved");
        seen_ids.push(id);
    }
    seen_ids.sort_unstable();
    seen_ids.dedup();
    assert_eq!(seen_ids.len(), 4, "every query got its own id");
}

#[test]
fn cancel_by_id_kills_only_its_query() {
    let addr = start_server(default_args());
    let (keys, vals) = test_data(10_000);

    let mut victim = Client::connect(addr);
    let victim_id = victim.submit(SUBMIT);
    victim.push_ok(&keys, &[&vals]);

    // A survivor in flight on another connection.
    let mut survivor = Client::connect(addr);
    survivor.submit(SUBMIT);
    survivor.push_ok(&keys, &[&vals]);

    // A third connection cancels the victim by id.
    let mut controller = Client::connect(addr);
    controller.send(&format!(r#"{{"op":"cancel","query_id":{victim_id}}}"#));
    let reply = controller.recv();
    assert_eq!(reply.get("ok").and_then(JsonValue::as_str), Some("cancelled"), "{reply:?}");

    // The victim's next step fails with the timeout/cancel class.
    victim.send(&rows_line(&keys, &[&vals]));
    let reply = victim.recv();
    let err = reply.get("error").and_then(JsonValue::as_str).expect("cancel error");
    assert!(err.contains("cancel"), "error: {err}");
    assert_eq!(reply.get("class").and_then(JsonValue::as_str), Some("timeout"), "{reply:?}");
    assert_eq!(reply.get("exit_class").and_then(JsonValue::as_u64), Some(3));

    // Cancelling again fails: the id is gone.
    controller.send(&format!(r#"{{"op":"cancel","query_id":{victim_id}}}"#));
    assert!(controller.recv().get("error").is_some());

    // The survivor is unaffected and its result is exact.
    survivor.push_ok(&keys, &[&vals]);
    let (rows, _) = survivor.finish();
    let doubled: Vec<u64> = keys.iter().chain(keys.iter()).copied().collect();
    let vals2: Vec<u64> = vals.iter().chain(vals.iter()).copied().collect();
    assert_eq!(rows, expected_rows(&doubled, &vals2));

    // The victim's connection survives for a fresh query.
    let id2 = victim.submit(SUBMIT);
    assert_ne!(id2, victim_id);
    victim.push_ok(&keys, &[&vals]);
    let (rows, _) = victim.finish();
    assert_eq!(rows, expected_rows(&keys, &vals));
}

#[test]
fn budget_slice_exhaustion_is_a_typed_budget_error() {
    let mut args = default_args();
    args.mem_total = Some(64 << 20);
    let addr = start_server(args);
    let (keys, vals) = test_data(50_000);
    let mut client = Client::connect(addr);
    // A 1 KiB slice cannot hold a single worker table and there is no
    // spill directory: the query must die with the budget class.
    client.submit(r#"{"op":"submit","aggs":[["count"],["sum",0]],"mem_budget":1024}"#);
    client.send(&rows_line(&keys, &[&vals]));
    let reply = client.recv();
    assert!(reply.get("error").is_some(), "{reply:?}");
    assert_eq!(reply.get("class").and_then(JsonValue::as_str), Some("budget"), "{reply:?}");
    assert_eq!(reply.get("exit_class").and_then(JsonValue::as_u64), Some(2));
    // The connection is reusable afterwards.
    client.submit(SUBMIT);
    client.push_ok(&keys, &[&vals]);
    let (rows, _) = client.finish();
    assert_eq!(rows, expected_rows(&keys, &vals));
}

#[test]
fn impossible_asks_are_denied_and_saturation_queues() {
    let mut args = default_args();
    args.mem_total = Some(1 << 20);
    args.max_queries = Some(1);
    args.admit_timeout_ms = 200;
    let addr = start_server(args);

    // An ask beyond the whole pool is denied outright.
    let mut client = Client::connect(addr);
    client.send(r#"{"op":"submit","aggs":[["count"]],"mem_budget":2097152}"#);
    let reply = client.recv();
    let err = reply.get("error").and_then(JsonValue::as_str).expect("denial");
    assert!(err.contains("denied"), "error: {err}");
    assert_eq!(reply.get("class").and_then(JsonValue::as_str), Some("budget"));

    // Saturation: one query holds the only slot; the next gets queued and
    // then times out with a typed error naming what it waited for.
    let mut holder = Client::connect(addr);
    holder.submit(r#"{"op":"submit","aggs":[["count"]]}"#);
    let mut waiter = Client::connect(addr);
    waiter.send(r#"{"op":"submit","aggs":[["count"]]}"#);
    let queued = waiter.recv();
    assert_eq!(queued.get("ok").and_then(JsonValue::as_str), Some("queued"), "{queued:?}");
    assert_eq!(queued.get("waiting_for").and_then(JsonValue::as_str), Some("queries"));
    let timed_out = waiter.recv();
    let err = timed_out.get("error").and_then(JsonValue::as_str).expect("queue timeout");
    assert!(err.contains("timed out"), "error: {err}");

    // The slot frees when the holder finishes; the waiter can come back.
    holder.push_ok(&[1, 2, 3], &[]);
    let (rows, _) = holder.finish();
    assert_eq!(rows.len(), 3);
    waiter.submit(r#"{"op":"submit","aggs":[["count"]]}"#);
}

#[test]
fn spilled_queries_leave_no_scratch_files() {
    let scratch = std::env::temp_dir().join(format!("hsa-serve-scratch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let mut args = default_args();
    args.spill_dir = Some(scratch.to_string_lossy().into_owned());
    let addr = start_server(args);

    // High-cardinality keys over a small cache slice and a budget smaller
    // than the working set: the stream must go out of core.
    let keys: Vec<u64> = (0..60_000u64).map(|i| i.wrapping_mul(2654435761) % 20_000).collect();
    let vals: Vec<u64> = (0..60_000).collect();
    let mut client = Client::connect(addr);
    client.submit(r#"{"op":"submit","aggs":[["sum",0]],"mem_budget":1048576,"cache_kb":128}"#);
    for chunk in keys.chunks(8_192).zip(vals.chunks(8_192)) {
        client.push_ok(chunk.0, &[chunk.1]);
    }
    let (rows, done) = client.finish();
    let specs = [hashing_is_sorting::AggSpec::sum(0)];
    let cfg = hashing_is_sorting::AggregateConfig::default();
    let (expected, _) = hashing_is_sorting::aggregate(&keys, &[&vals], &specs, &cfg);
    assert_eq!(rows, expected.sorted_rows(), "spilled result must be exact");
    let spilled = done
        .get("done")
        .and_then(|d| d.get("report"))
        .and_then(|r| r.get("stats"))
        .and_then(|s| s.get("spilled_runs"))
        .and_then(JsonValue::as_u64);
    assert!(spilled.unwrap_or(0) > 0, "workload must actually spill (got {spilled:?})");

    let leftovers: Vec<_> = std::fs::read_dir(&scratch)
        .expect("read scratch")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    assert!(leftovers.is_empty(), "leaked scratch files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A reply of several lines must not stall between them. Written line by
/// line on a socket with Nagle's algorithm on, the `done` line waits for
/// the client's delayed ACK of the block before it — about 40 ms on every
/// query but a connection's first. The client here leaves `TCP_NODELAY`
/// off, as most do; the minimum over five queries keeps a slow host from
/// failing the test.
#[test]
fn done_follows_the_result_blocks_without_an_ack_wait() {
    let addr = start_server(default_args());
    let (keys, vals) = test_data(5_000);
    let mut client = Client::connect(addr);
    let mut gaps = Vec::new();
    for _ in 0..6 {
        client.submit(SUBMIT);
        client.push_ok(&keys, &[&vals]);
        client.send(r#"{"op":"finish"}"#);
        let first_block = client.recv();
        assert!(first_block.get("block").is_some(), "{first_block:?}");
        let block_at = std::time::Instant::now();
        while client.recv().get("done").is_none() {}
        gaps.push(block_at.elapsed());
    }
    let best = gaps[1..].iter().min().unwrap();
    assert!(*best < Duration::from_millis(20), "first block → done gaps: {gaps:?}");
}

/// A request line is read whole before anything looks at it, so its length
/// is bounded: past 64 MiB without a newline the server answers once and
/// closes, whoever the peer is and whatever admission would have said.
#[test]
fn an_endless_request_line_is_refused_and_the_connection_closed() {
    let addr = start_server(default_args());
    let mut client = Client::connect(addr);
    let chunk = vec![b' '; 1 << 20];
    for _ in 0..64 {
        client.writer.write_all(&chunk).expect("send");
    }
    let reply = client.recv();
    let err = reply.get("error").and_then(JsonValue::as_str).expect("refusal");
    assert!(err.contains("request line exceeds 67108864 bytes"), "error: {err}");
    assert_eq!(reply.get("class").and_then(JsonValue::as_str), Some("invalid-input"));
    assert_eq!(reply.get("exit_class").and_then(JsonValue::as_u64), Some(5));
    let mut rest = String::new();
    assert_eq!(client.reader.read_line(&mut rest).expect("eof"), 0, "left open: {rest:?}");

    // A line of exactly the limit, newline included, is still a request.
    let mut client = Client::connect(addr);
    for _ in 0..63 {
        client.writer.write_all(&chunk).expect("send");
    }
    client.writer.write_all(&chunk[..(1 << 20) - 18]).expect("send");
    client.send(r#"{"op":"finish"}  "#);
    let reply = client.recv();
    let err = reply.get("error").and_then(JsonValue::as_str).expect("no query in flight");
    assert!(err.contains("no query in flight"), "error: {err}");
}

/// A line that is not UTF-8 is a bad request like any other: one typed
/// `invalid-input` answer, tagged with the query in flight, and the query
/// and the connection go on.
#[test]
fn a_non_utf8_line_is_answered_and_the_query_goes_on() {
    let addr = start_server(default_args());
    let (keys, vals) = test_data(10_000);
    let mut client = Client::connect(addr);
    let id = client.submit(SUBMIT);
    client.push_ok(&keys[..4_000], &[&vals[..4_000]]);
    client.writer.write_all(b"\xff\n").expect("send");
    let reply = client.recv();
    let err = reply.get("error").and_then(JsonValue::as_str).expect("typed error");
    assert_eq!(err, "request line is not UTF-8");
    assert_eq!(reply.get("class").and_then(JsonValue::as_str), Some("invalid-input"));
    assert_eq!(reply.get("exit_class").and_then(JsonValue::as_u64), Some(5));
    assert_eq!(reply.get("query_id").and_then(JsonValue::as_u64), Some(id));
    client.push_ok(&keys[4_000..], &[&vals[4_000..]]);
    let (rows, _) = client.finish();
    assert_eq!(rows, expected_rows(&keys, &vals));
}

/// A client may shrink its tables below the default 2048 KiB, never grow
/// them: on a server without `--mem-total` nothing else bounds a table.
/// The refusal is `invalid-input`, and the connection stays usable.
#[test]
fn a_cache_above_the_default_is_refused_and_the_connection_kept() {
    let addr = start_server(default_args());
    let (keys, vals) = test_data(5_000);
    let mut client = Client::connect(addr);
    client.send(r#"{"op":"submit","aggs":[["count"],["sum",0]],"cache_kb":4096}"#);
    let reply = client.recv();
    assert_eq!(reply.get("class").and_then(JsonValue::as_str), Some("invalid-input"), "{reply:?}");
    client.submit(r#"{"op":"submit","aggs":[["count"],["sum",0]],"cache_kb":2048}"#);
    client.push_ok(&keys, &[&vals]);
    let (rows, _) = client.finish();
    assert_eq!(rows, expected_rows(&keys, &vals));
}
