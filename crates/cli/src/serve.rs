//! `hsa serve`: a std-only concurrent aggregation service over the
//! shared worker runtime.
//!
//! The server speaks newline-delimited JSON over TCP. Each connection
//! drives at most one query at a time through three phases — submit,
//! stream rows, finish — while any number of connections run
//! concurrently on the process-wide runtime, each with its own
//! [`QueryGrant`] carved out of the server's global budgets by the
//! [`AdmissionController`]. A query is cancellable *by id* from any
//! connection, so a controller connection can reap a runaway query it
//! did not start.
//!
//! Requests (one JSON object per line):
//!
//! ```text
//! {"op":"submit","aggs":[["count"],["sum",0]],"threads":2,
//!  "mem_budget":8388608,"disk_budget":1048576,"timeout_ms":5000}
//! {"op":"rows","keys":[1,2,1],"cols":[[10,20,30]]}
//! {"op":"finish"}
//! {"op":"cancel","query_id":7}
//! ```
//!
//! Responses: `{"ok":"admitted","query_id":N}` (or a
//! `{"ok":"queued",...}` notice while the admission controller waits for
//! capacity), one `{"ok":"rows",...}` ack per chunk, then on finish a
//! stream of `{"block":{"keys":[...],"cols":[[...],...]}}` rows in
//! sorted-key order followed by `{"done":{"query_id":N,"report":{...}}}`
//! with the full v2 [`RunReport`]. Failures are
//! `{"error":"<detail>","class":"<label>","exit_class":K}` with the same
//! error taxonomy as the batch CLI, and leave the connection usable for
//! the next submit.
//!
//! Framing: a response — however many lines — is assembled in one
//! per-connection buffer and written once, on a socket with
//! `TCP_NODELAY` set, so no line of a reply waits for the client's ACK of
//! the one before it (DESIGN §14). A request line is decoded in one pass
//! into reused buffers and may be at most 64 MiB; past that the server
//! answers `invalid-input` and closes the connection.

use crate::args::{parse_size, UsageError};
use crate::error::{CliError, ErrorClass};
use hashing_is_sorting::obs::json::{write_u64_array, JsonValue, ParseError, Reader};
use hashing_is_sorting::{
    AdmissionConfig, AdmissionController, AdmissionOutcome, AdmissionRequest, AggSpec, AggStream,
    AggregateConfig, CancelToken, ExecEnv, ObsConfig, QueryGrant,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Result rows per `block` line; small enough that a slow client sees
/// steady progress, large enough that framing cost stays negligible.
const BLOCK_ROWS: usize = 1024;

/// Longest request line accepted, terminator included. A line is read
/// whole before admission is ever consulted, so without a bound any peer
/// could make the server allocate without limit; this is far above what a
/// client has reason to send in one `rows` chunk.
const MAX_LINE_BYTES: usize = 64 << 20;

/// Response text buffered before it is written out early. Only a result of
/// tens of thousands of groups gets here; everything smaller is one write.
const FLUSH_BYTES: usize = 256 << 10;

/// Usage text shown by `hsa serve --help`.
pub const SERVE_USAGE: &str = "\
usage: hsa serve --listen <addr> [options]

Serve concurrent GROUP BY queries over newline-delimited JSON on a TCP
socket. Each connection submits one query at a time, streams rows in,
and receives result blocks plus the final run report; queries from all
connections execute concurrently on one shared worker runtime and can
be cancelled by id from any connection.

options:
  --listen <addr>         bind address, e.g. 127.0.0.1:7070 (required;
                          port 0 picks a free port, printed on stderr)
  --threads <n>           worker slots per query (default: all cores)
  --mem-total <size>      global memory pool carved into per-query
                          slices by the admission controller (K/M/G
                          suffixes; default unmetered)
  --disk-total <size>     global spill-disk pool (default unmetered)
  --max-queries <n>       concurrent-query cap (default unbounded)
  --spill-dir <path>      scratch directory every query spills into;
                          a query's files are removed when it
                          finishes, fails, or is dropped
  --admit-timeout-ms <n>  how long a saturated server keeps a new query
                          queued before failing it (default 10000)
  --help                  this text";

/// Parsed `hsa serve` command line.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Bind address (`--listen`).
    pub listen: String,
    /// Worker slots per admitted query (`--threads`).
    pub threads: usize,
    /// Global memory pool (`--mem-total`).
    pub mem_total: Option<u64>,
    /// Global spill-disk pool (`--disk-total`).
    pub disk_total: Option<u64>,
    /// Concurrent-query cap (`--max-queries`).
    pub max_queries: Option<usize>,
    /// Base scratch directory (`--spill-dir`).
    pub spill_dir: Option<String>,
    /// Queue wait bound for saturated admission (`--admit-timeout-ms`).
    pub admit_timeout_ms: u64,
}

/// Parse the argument vector after the `serve` subcommand word.
pub fn parse_serve_args(argv: impl IntoIterator<Item = String>) -> Result<ServeArgs, UsageError> {
    let mut args = argv.into_iter();
    let mut listen = None;
    let mut threads = None;
    let mut mem_total = None;
    let mut disk_total = None;
    let mut max_queries = None;
    let mut spill_dir = None;
    let mut admit_timeout_ms = 10_000u64;
    let need = |flag: &str, v: Option<String>| {
        v.ok_or_else(|| UsageError(format!("{flag} needs a value")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(UsageError(SERVE_USAGE.to_string())),
            "--listen" => listen = Some(need("--listen", args.next())?),
            "--threads" => {
                let v = need("--threads", args.next())?;
                threads =
                    Some(v.parse().map_err(|_| UsageError(format!("bad thread count {v:?}")))?);
            }
            "--mem-total" => mem_total = Some(parse_size(&need("--mem-total", args.next())?)?),
            "--disk-total" => disk_total = Some(parse_size(&need("--disk-total", args.next())?)?),
            "--max-queries" => {
                let v = need("--max-queries", args.next())?;
                max_queries =
                    Some(v.parse().map_err(|_| UsageError(format!("bad query cap {v:?}")))?);
            }
            "--spill-dir" => spill_dir = Some(need("--spill-dir", args.next())?),
            "--admit-timeout-ms" => {
                let v = need("--admit-timeout-ms", args.next())?;
                admit_timeout_ms =
                    v.parse().map_err(|_| UsageError(format!("bad timeout {v:?}")))?;
            }
            other => return Err(UsageError(format!("unknown serve option {other:?}"))),
        }
    }
    Ok(ServeArgs {
        listen: listen.ok_or_else(|| UsageError("serve needs --listen <addr>".into()))?,
        threads: threads.unwrap_or_else(|| AggregateConfig::default().threads),
        mem_total,
        disk_total,
        max_queries,
        spill_dir,
        admit_timeout_ms,
    })
}

/// Shared server state: the admission ledger plus the cancel-by-id
/// registry spanning all connections.
struct ServeState {
    admission: AdmissionController,
    /// Live queries' cancel tokens, keyed by query id. Entries are
    /// removed when the owning query finishes or fails, on every path.
    cancels: Mutex<HashMap<u64, CancelToken>>,
    threads: usize,
    spill_dir: Option<PathBuf>,
    admit_timeout: Duration,
}

/// Bind and serve until the process dies. Returns only on bind failure.
pub fn serve(args: &ServeArgs) -> Result<(), CliError> {
    let listener = TcpListener::bind(&args.listen)
        .map_err(|e| CliError::new(ErrorClass::Io, format!("cannot bind {}: {e}", args.listen)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CliError::new(ErrorClass::Io, format!("cannot read bound address: {e}")))?;
    eprintln!("[serve] listening on {addr}");
    serve_on(listener, args);
    Ok(())
}

/// Accept loop over an already-bound listener (tests bind port 0 first).
pub fn serve_on(listener: TcpListener, args: &ServeArgs) {
    let state = Arc::new(ServeState {
        admission: AdmissionController::new(AdmissionConfig {
            memory_bytes: args.mem_total,
            disk_bytes: args.disk_total,
            max_queries: args.max_queries,
        }),
        cancels: Mutex::new(HashMap::new()),
        threads: args.threads.max(1),
        spill_dir: args.spill_dir.as_ref().map(PathBuf::from),
        admit_timeout: Duration::from_millis(args.admit_timeout_ms),
    });
    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        let state = Arc::clone(&state);
        let _ = std::thread::Builder::new()
            .name("hsa-serve-conn".to_string())
            .spawn(move || handle_conn(stream, &state));
    }
}

/// One in-flight query on a connection.
struct ActiveQuery {
    id: u64,
    stream: AggStream,
    /// Holds this query's slice of the global pools until dropped.
    _grant: QueryGrant,
    /// Number of input columns the submitted specs reference.
    n_inputs: usize,
}

/// The operation a request line names.
enum Op {
    Submit,
    Rows,
    Finish,
    Cancel,
}

/// One request line, decoded in a single pass over its text. `op` may be
/// the last member of the line, so every operation's members are decoded
/// wherever they stand and each handler reads its own; a member of the
/// wrong type counts as absent, an unknown member is validated and
/// dropped.
#[derive(Default)]
struct Request {
    op: Option<Op>,
    aggs: Option<JsonValue>,
    threads: Option<u64>,
    cache_kb: Option<u64>,
    mem_budget: Option<u64>,
    disk_budget: Option<u64>,
    timeout_ms: Option<u64>,
    query_id: Option<u64>,
    /// `keys` was given; `true` if it was a `[u64]`, which then sits in
    /// [`Conn::keys`].
    keys: Option<bool>,
    /// `cols` was given; `Some(n)` if it was a `[[u64]]` of `n` columns,
    /// which then sit in `Conn::cols[..n]`.
    cols: Option<Option<usize>>,
}

impl Request {
    /// Decode `line`, landing a `rows` payload in the connection's reused
    /// `keys`/`cols` buffers without an intermediate value tree.
    fn decode(
        line: &str,
        keys: &mut Vec<u64>,
        cols: &mut Vec<Vec<u64>>,
    ) -> Result<Request, ParseError> {
        let mut req = Request::default();
        let mut reader = Reader::new(line);
        reader.object(|r, member| {
            match member {
                "op" => {
                    req.op = match r.str()?.as_deref() {
                        Some("submit") => Some(Op::Submit),
                        Some("rows") => Some(Op::Rows),
                        Some("finish") => Some(Op::Finish),
                        Some("cancel") => Some(Op::Cancel),
                        _ => None,
                    }
                }
                "aggs" => req.aggs = Some(r.value()?),
                "threads" => req.threads = r.u64()?,
                "cache_kb" => req.cache_kb = r.u64()?,
                "mem_budget" => req.mem_budget = r.u64()?,
                "disk_budget" => req.disk_budget = r.u64()?,
                "timeout_ms" => req.timeout_ms = r.u64()?,
                "query_id" => req.query_id = r.u64()?,
                "keys" => {
                    keys.clear();
                    req.keys = Some(r.u64_array(keys)?);
                }
                "cols" => {
                    let (mut n, mut all_u64) = (0, true);
                    let is_array = r.array(|r| {
                        if n == cols.len() {
                            cols.push(Vec::new());
                        }
                        cols[n].clear();
                        all_u64 &= r.u64_array(&mut cols[n])?;
                        n += 1;
                        Ok(())
                    })?;
                    req.cols = Some((is_array && all_u64).then_some(n));
                }
                _ => r.skip_value()?,
            }
            Ok(())
        })?;
        reader.finish()?;
        Ok(req)
    }

    /// How many of the decoded columns a `rows` request carries for a
    /// query that references `n_inputs` of them.
    fn rows_shape(&self, n_inputs: usize) -> Result<usize, CliError> {
        if self.keys != Some(true) {
            return Err(CliError::invalid("rows needs \"keys\": [u64]"));
        }
        let n_cols = match self.cols {
            None => 0,
            Some(Some(n)) => n,
            Some(None) => return Err(CliError::invalid("rows needs \"cols\": [[u64]]")),
        };
        if n_cols < n_inputs {
            return Err(CliError::invalid(format!(
                "query references {n_inputs} input column(s), got {n_cols}"
            )));
        }
        Ok(n_cols)
    }
}

/// One client connection: its socket, its query, and the buffers every
/// request on it reuses.
struct Conn<'s> {
    state: &'s ServeState,
    socket: TcpStream,
    /// The response under construction. A reply — an ack, an error, or a
    /// whole `block…done` stream — is assembled here and reaches the
    /// socket in one write (see [`Conn::flush`]).
    out: String,
    active: Option<ActiveQuery>,
    /// Payload of the current `rows` request.
    keys: Vec<u64>,
    cols: Vec<Vec<u64>>,
}

fn handle_conn(stream: TcpStream, state: &ServeState) {
    // Every reply leaves in one write, so there is nothing for Nagle's
    // algorithm to coalesce; left on, it holds the tail segment of a reply
    // that spans several until the client's delayed ACK (~40 ms) arrives.
    let _ = stream.set_nodelay(true);
    let Ok(socket) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut conn = Conn {
        state,
        socket,
        out: String::new(),
        active: None,
        keys: Vec::new(),
        cols: Vec::new(),
    };
    let mut line = Vec::new();
    loop {
        line.clear();
        match (&mut reader).take(MAX_LINE_BYTES as u64).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.len() == MAX_LINE_BYTES && line.last() != Some(&b'\n') {
            // The rest of the line cannot be skipped in bounded time, so
            // the connection ends with the answer.
            let err = CliError::invalid(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
            conn.error(&err, None);
            let _ = conn.flush();
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            let err = CliError::invalid("request line is not UTF-8");
            conn.error(&err, conn.active.as_ref().map(|a| a.id));
            if conn.flush().is_err() {
                break;
            }
            continue;
        };
        if text.trim().is_empty() {
            continue;
        }
        if conn.handle(text).is_err() {
            break; // the socket is gone; cleanup below
        }
    }
    // Connection torn down with a query in flight: release everything.
    if let Some(q) = conn.active.take() {
        cleanup_query(q, state);
    }
}

/// Deregister the cancel token; the stream's spill files and the grant
/// (and with it the global-pool slice) release on drop.
fn cleanup_query(q: ActiveQuery, state: &ServeState) {
    if let Ok(mut cancels) = state.cancels.lock() {
        cancels.remove(&q.id);
    }
}

impl Conn<'_> {
    /// Answer one request line. `Err` means the socket failed.
    fn handle(&mut self, line: &str) -> std::io::Result<()> {
        match Request::decode(line, &mut self.keys, &mut self.cols) {
            Err(e) => self.error(&CliError::invalid(format!("bad request JSON: {e}")), None),
            Ok(req) => match req.op {
                Some(Op::Submit) => self.op_submit(&req)?,
                Some(Op::Rows) => self.op_rows(&req),
                Some(Op::Finish) => self.op_finish()?,
                Some(Op::Cancel) => self.op_cancel(&req),
                None => {
                    let err = CliError::invalid("missing or unknown \"op\"");
                    self.error(&err, self.active.as_ref().map(|a| a.id));
                }
            },
        }
        self.flush()
    }

    /// Write out what the response buffer holds. Once per response, plus
    /// where a response has to be seen before it is complete: the `queued`
    /// notice ahead of the admission wait, and a result too large to hold
    /// as text (every [`FLUSH_BYTES`]).
    fn flush(&mut self) -> std::io::Result<()> {
        let written = self.socket.write_all(self.out.as_bytes());
        self.out.clear();
        written
    }

    /// Append one response line.
    fn reply(&mut self, value: &JsonValue) {
        value.write_compact(&mut self.out);
        self.out.push('\n');
    }

    /// Append one error line.
    fn error(&mut self, err: &CliError, query_id: Option<u64>) {
        let mut pairs = vec![
            ("error".to_string(), JsonValue::str(&err.message)),
            ("class".to_string(), JsonValue::str(err.class.label())),
            ("exit_class".to_string(), JsonValue::U64(u64::from(err.class.exit_code()))),
        ];
        if let Some(id) = query_id {
            pairs.push(("query_id".to_string(), JsonValue::U64(id)));
        }
        self.reply(&JsonValue::Object(pairs));
    }

    fn op_submit(&mut self, req: &Request) -> std::io::Result<()> {
        let state = self.state;
        if let Some(q) = &self.active {
            let err = CliError::invalid("a query is already in flight on this connection");
            self.error(&err, Some(q.id));
            return Ok(());
        }
        let specs = match parse_specs(req.aggs.as_ref()) {
            Ok(s) => s,
            Err(e) => {
                self.error(&e, None);
                return Ok(());
            }
        };
        let n_inputs = specs.iter().filter_map(|s| s.input).map(|i| i + 1).max().unwrap_or(0);
        let threads = match req.threads {
            // A query cannot claim more slots than the server allots.
            Some(n) => (n as usize).clamp(1, state.threads),
            None => state.threads,
        };
        let mut cfg = AggregateConfig { threads, ..AggregateConfig::default() };
        if let Some(kb) = req.cache_kb {
            // A client may shrink its tables, never grow them: on a server
            // without `--mem-total` nothing else bounds their size.
            let most = cfg.cache_bytes as u64 >> 10;
            if kb > most {
                let err = CliError::invalid(format!("cache_kb {kb} is above the default {most}"));
                self.error(&err, None);
                return Ok(());
            }
            cfg.cache_bytes = (kb.max(1) as usize) << 10;
        }
        let admission = AdmissionRequest {
            memory_bytes: req.mem_budget,
            disk_bytes: req.disk_budget,
            deadline: req.timeout_ms.map(Duration::from_millis),
        };
        // First a non-blocking probe so the client hears "queued" instead of
        // silence, then the bounded blocking wait.
        let outcome = match state.admission.try_admit(&admission) {
            AdmissionOutcome::Queued { active: n, waiting_for } => {
                self.reply(&JsonValue::obj([
                    ("ok", JsonValue::str("queued")),
                    ("active", JsonValue::U64(n as u64)),
                    ("waiting_for", JsonValue::str(waiting_for)),
                ]));
                self.flush()?;
                state.admission.admit_blocking(&admission, Some(state.admit_timeout))
            }
            outcome => outcome,
        };
        let grant = match outcome {
            AdmissionOutcome::Admitted(grant) => grant,
            AdmissionOutcome::Denied(denied) => {
                self.error(&CliError::new(ErrorClass::Budget, format!("denied: {denied}")), None);
                return Ok(());
            }
            AdmissionOutcome::Queued { waiting_for, .. } => {
                let err = CliError::new(
                    ErrorClass::Budget,
                    format!("admission timed out waiting for {waiting_for}"),
                );
                self.error(&err, None);
                return Ok(());
            }
        };
        let mut env = ExecEnv::unrestricted()
            .with_budget(grant.budget())
            .with_disk_budget(grant.disk())
            .with_cancel(grant.cancel());
        // Every query spills into the one directory: the stores of one
        // process name their files apart and share its liveness marker.
        if let Some(dir) = &state.spill_dir {
            env = env.with_spill_dir(dir);
        }
        let agg = match AggStream::new(&specs, &cfg, &env, &ObsConfig::disabled()) {
            Ok(s) => s,
            Err(e) => {
                self.error(&CliError::from(e), None);
                return Ok(());
            }
        };
        let id = agg.query_id();
        if let Ok(mut cancels) = state.cancels.lock() {
            cancels.insert(id, grant.cancel());
        }
        self.active = Some(ActiveQuery { id, stream: agg, _grant: grant, n_inputs });
        self.reply(&JsonValue::obj([
            ("ok", JsonValue::str("admitted")),
            ("query_id", JsonValue::U64(id)),
        ]));
        Ok(())
    }

    fn op_rows(&mut self, req: &Request) {
        let Some(mut q) = self.active.take() else {
            return self.error(&CliError::invalid("no query in flight (submit first)"), None);
        };
        let n_cols = match req.rows_shape(q.n_inputs) {
            Ok(n) => n,
            Err(e) => {
                self.error(&e, Some(q.id));
                self.active = Some(q);
                return;
            }
        };
        let cols: Vec<&[u64]> = self.cols[..n_cols].iter().map(Vec::as_slice).collect();
        match q.stream.push(&self.keys, &cols) {
            Ok(()) => {
                self.reply(&JsonValue::obj([
                    ("ok", JsonValue::str("rows")),
                    ("query_id", JsonValue::U64(q.id)),
                    ("pushed", JsonValue::U64(self.keys.len() as u64)),
                    ("total", JsonValue::U64(q.stream.rows_pushed())),
                ]));
                self.active = Some(q);
            }
            Err(e) => {
                // The stream is poisoned: tear the query down, keep the
                // connection; the client may submit a fresh query.
                let id = q.id;
                cleanup_query(q, self.state);
                self.error(&CliError::from(e), Some(id));
            }
        }
    }

    fn op_finish(&mut self) -> std::io::Result<()> {
        let Some(q) = self.active.take() else {
            self.error(&CliError::invalid("no query in flight (submit first)"), None);
            return Ok(());
        };
        let ActiveQuery { id, stream, _grant, .. } = q;
        let finished = stream.finish();
        // The query is over either way, its spill files gone with the
        // stream: free the id before streaming results (the output is
        // already materialized).
        if let Ok(mut cancels) = self.state.cancels.lock() {
            cancels.remove(&id);
        }
        let (out, report) = match finished {
            Ok(v) => v,
            Err(e) => {
                self.error(&CliError::from(e), Some(id));
                return Ok(());
            }
        };
        drop(_grant);
        // Sorted-key order makes served output deterministic — bit-identical
        // across runs and to a sequential execution of the same query. The
        // blocks are written column by column through the sort permutation,
        // straight from the output's columns.
        let mut order: Vec<usize> = (0..out.n_groups()).collect();
        order.sort_unstable_by_key(|&row| out.keys[row]);
        for block in order.chunks(BLOCK_ROWS) {
            self.out.push_str("{\"block\":{\"keys\":");
            write_u64_array(&mut self.out, block.iter().map(|&row| out.keys[row]));
            self.out.push_str(",\"cols\":[");
            for (c, col) in out.states.iter().enumerate() {
                if c > 0 {
                    self.out.push(',');
                }
                write_u64_array(&mut self.out, block.iter().map(|&row| col[row]));
            }
            self.out.push_str("]}}\n");
            if self.out.len() >= FLUSH_BYTES {
                self.flush()?;
            }
        }
        self.reply(&JsonValue::obj([(
            "done",
            JsonValue::obj([
                ("query_id", JsonValue::U64(id)),
                ("groups", JsonValue::U64(out.n_groups() as u64)),
                ("report", report.to_json()),
            ]),
        )]));
        Ok(())
    }

    fn op_cancel(&mut self, req: &Request) {
        let Some(id) = req.query_id else {
            return self.error(&CliError::invalid("cancel needs \"query_id\""), None);
        };
        let token = self.state.cancels.lock().ok().and_then(|c| c.get(&id).cloned());
        match token {
            Some(token) => {
                token.cancel();
                self.reply(&JsonValue::obj([
                    ("ok", JsonValue::str("cancelled")),
                    ("query_id", JsonValue::U64(id)),
                ]));
            }
            None => self.error(&CliError::invalid(format!("no live query {id}")), None),
        }
    }
}

/// Parse `"aggs": [["count"],["sum",0],...]` into specs. An omitted or
/// empty list is `DISTINCT` over the keys. Every function but `count`
/// names its input column as a u64.
fn parse_specs(aggs: Option<&JsonValue>) -> Result<Vec<AggSpec>, CliError> {
    let Some(aggs) = aggs else { return Ok(Vec::new()) };
    let Some(entries) = aggs.as_array() else {
        return Err(CliError::invalid("\"aggs\" must be an array of [fn, col?] pairs"));
    };
    let mut specs = Vec::with_capacity(entries.len());
    for entry in entries {
        let parts = entry.as_array();
        let func = parts
            .and_then(|p| p.first())
            .and_then(JsonValue::as_str)
            .ok_or_else(|| CliError::invalid("each agg needs a function name"))?;
        let col = || {
            let col = parts.and_then(|p| p.get(1)).and_then(JsonValue::as_u64);
            col.and_then(|c| usize::try_from(c).ok()).ok_or_else(|| {
                CliError::invalid(format!("{func:?} needs an input column index (a u64)"))
            })
        };
        specs.push(match func {
            "count" => AggSpec::count(),
            "sum" => AggSpec::sum(col()?),
            "min" => AggSpec::min(col()?),
            "max" => AggSpec::max(col()?),
            "avg" => AggSpec::avg(col()?),
            other => return Err(CliError::invalid(format!("unknown aggregate {other:?}"))),
        });
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<ServeArgs, UsageError> {
        parse_serve_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn serve_args_full() {
        let a = parse(&[
            "--listen",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--mem-total",
            "64M",
            "--disk-total",
            "1G",
            "--max-queries",
            "4",
            "--spill-dir",
            "/tmp/hsa-serve",
            "--admit-timeout-ms",
            "500",
        ])
        .unwrap();
        assert_eq!(a.listen, "127.0.0.1:0");
        assert_eq!(a.threads, 2);
        assert_eq!(a.mem_total, Some(64 << 20));
        assert_eq!(a.disk_total, Some(1 << 30));
        assert_eq!(a.max_queries, Some(4));
        assert_eq!(a.spill_dir.as_deref(), Some("/tmp/hsa-serve"));
        assert_eq!(a.admit_timeout_ms, 500);
    }

    #[test]
    fn serve_args_require_listen() {
        assert!(parse(&[]).unwrap_err().0.contains("--listen"));
        assert!(parse(&["--listen"]).is_err());
        assert!(parse(&["--listen", "x", "--frobnicate"]).is_err());
    }

    #[test]
    fn spec_parsing_accepts_the_protocol_forms() {
        let decode = |line| Request::decode(line, &mut Vec::new(), &mut Vec::new()).unwrap();
        let req = decode(r#"{"aggs":[["count"],["sum",0],["avg",1]]}"#);
        let specs = parse_specs(req.aggs.as_ref()).unwrap();
        assert_eq!(specs.len(), 3);
        let req = decode(r#"{"aggs":[["median",0]]}"#);
        assert!(parse_specs(req.aggs.as_ref()).is_err());
        // Only COUNT goes without a column: a missing, named, negative or
        // fractional one is not column 0.
        for aggs in [r#"[["sum"]]"#, r#"[["sum","amount"]]"#, r#"[["min",-1]]"#, r#"[["avg",1.5]]"#]
        {
            let line = format!(r#"{{"aggs":{aggs}}}"#);
            let req = Request::decode(&line, &mut Vec::new(), &mut Vec::new()).unwrap();
            let e = parse_specs(req.aggs.as_ref()).unwrap_err();
            assert_eq!(e.class, ErrorClass::InvalidInput, "{aggs}");
        }
        let req = decode(r#"{}"#);
        assert!(parse_specs(req.aggs.as_ref()).unwrap().is_empty(), "no aggs = DISTINCT");
    }
}
