//! The wire front door: an in-process `hsa serve` on a loopback listener
//! and two closed-loop client connections, each looping submit → four
//! `rows` requests → finish → result blocks → `done`.

use crate::check::{digest, Digest, Oracle};
use crate::runner::{Door, Window};
use crate::spans::{close, open, SpanLog, Tracing, NO_PARENT};
use crate::workloads::{Input, Workload, SERVE_CHUNK_ROWS};
use hashing_is_sorting::obs::json::{parse, JsonValue};
use hsa_cli::{serve_on, ServeArgs};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Worker slots per served query and the server's global limits.
const SERVER_THREADS: usize = 2;
const SERVER_MEM_TOTAL: u64 = 512 << 20;
const SERVER_MAX_QUERIES: usize = 4;

const SUBMIT: &str = "{\"op\":\"submit\",\"aggs\":[[\"count\"],[\"sum\",0]],\"threads\":1}\n";
const FINISH: &str = "{\"op\":\"finish\"}\n";

/// Bind a loopback port and serve on it from a background thread.
/// `serve_on` has no shutdown: the thread is left blocked in `accept` and
/// ends with the process.
fn start_server() -> Result<SocketAddr, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("no bound address: {e}"))?;
    let args = ServeArgs {
        listen: addr.to_string(),
        threads: SERVER_THREADS,
        mem_total: Some(SERVER_MEM_TOTAL),
        disk_total: None,
        max_queries: Some(SERVER_MAX_QUERIES),
        spill_dir: None,
        admit_timeout_ms: 10_000,
    };
    std::thread::Builder::new()
        .name("bench-serve-accept".into())
        .spawn(move || serve_on(listener, &args))
        .map_err(|e| format!("cannot start the server thread: {e}"))?;
    Ok(addr)
}

/// One `rows` request line for a chunk of the input.
pub fn rows_line(keys: &[u64], vals: &[u64]) -> String {
    let request = JsonValue::obj([
        ("op", JsonValue::str("rows")),
        ("keys", JsonValue::u64_array(keys.iter().copied())),
        ("cols", JsonValue::Array(vec![JsonValue::u64_array(vals.iter().copied())])),
    ]);
    request.to_string_compact() + "\n"
}

/// The raw reply to one query; parsed outside the timed span.
struct Reply {
    nanos: u64,
    blocks: Vec<String>,
    done: String,
}

/// A result as parallel columns.
#[derive(Debug, Default)]
struct Rows {
    keys: Vec<u64>,
    counts: Vec<u64>,
    sums: Vec<u64>,
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Pre-encoded `rows` requests of this connection's input.
    requests: Vec<String>,
    expected: Option<Digest>,
    last: Option<Rows>,
}

/// What one connection measured in a window.
struct ClientWindow {
    query_ns: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    done_stats: Vec<JsonValue>,
    log: Option<SpanLog>,
}

impl Client {
    fn connect(addr: SocketAddr, input: &Input) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        // The client never waits on Nagle; what the server's side of the
        // socket does is part of what is measured.
        writer.set_nodelay(true).map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        let requests = input
            .keys
            .chunks(SERVE_CHUNK_ROWS)
            .zip(input.vals.chunks(SERVE_CHUNK_ROWS))
            .map(|(k, v)| rows_line(k, v))
            .collect();
        Ok(Self { reader, writer, requests, expected: None, last: None })
    }

    /// Send a submit line and wait for the admission; `Ok(true)` if the
    /// server queued the query first.
    fn submit(&mut self, line: &str) -> Result<bool, String> {
        send(&mut self.writer, line)?;
        let mut queued = false;
        loop {
            let reply = recv(&mut self.reader)?;
            let doc = parse(&reply).map_err(|e| format!("bad reply {reply:?}: {e}"))?;
            match doc.get("ok").and_then(JsonValue::as_str) {
                Some("admitted") => return Ok(queued),
                Some("queued") => queued = true,
                _ => return Err(format!("submit refused: {}", reply.trim_end())),
            }
        }
    }

    /// One full query; submit sent → `done` line read is the timed span.
    fn query(&mut self, mut log: Tracing) -> Result<Reply, String> {
        let start = Instant::now();
        let query = open(&mut log, "query", NO_PARENT);
        let parent = query.unwrap_or(NO_PARENT);

        let id = open(&mut log, "cli.serve.submit", parent);
        self.submit(SUBMIT)?;
        close(&mut log, id);
        for request in &self.requests {
            let id = open(&mut log, "cli.serve.rows", parent);
            send(&mut self.writer, request)?;
            let ack = recv(&mut self.reader)?;
            close(&mut log, id);
            if !ack.starts_with("{\"ok\":\"rows\"") {
                return Err(format!("rows refused: {:?}", ack.trim_end()));
            }
        }
        let finish = open(&mut log, "cli.serve.finish", parent);
        let first = open(&mut log, "cli.serve.first_block", finish.unwrap_or(NO_PARENT));
        send(&mut self.writer, FINISH)?;
        let mut blocks = Vec::new();
        let done = loop {
            let line = recv(&mut self.reader)?;
            if blocks.is_empty() {
                close(&mut log, first);
            }
            if !line.starts_with("{\"block\"") {
                break line;
            }
            blocks.push(line);
        };
        close(&mut log, finish);
        close(&mut log, query);
        Ok(Reply { nanos: start.elapsed().as_nanos() as u64, blocks, done })
    }

    /// Parse a reply, digest it against the connection's common digest,
    /// and return the rows and the `done` report's stats.
    fn check(&mut self, reply: &Reply) -> Result<(Rows, JsonValue), String> {
        let done = parse(&reply.done).map_err(|e| format!("bad last line: {e}"))?;
        let Some(done) = done.get("done") else {
            return Err(format!("query failed: {}", reply.done.trim_end()));
        };
        let mut rows = Rows::default();
        for line in &reply.blocks {
            let doc = parse(line).map_err(|e| format!("bad block line: {e}"))?;
            let block = doc.get("block").ok_or("block line without a block")?;
            let cols = block.get("cols").and_then(JsonValue::as_array).unwrap_or(&[]);
            let [counts, sums] = cols else {
                return Err(format!("{} result columns, expected COUNT and SUM", cols.len()));
            };
            for (into, from) in [
                (&mut rows.keys, block.get("keys")),
                (&mut rows.counts, Some(counts)),
                (&mut rows.sums, Some(sums)),
            ] {
                let values = from.and_then(JsonValue::as_array).ok_or("block without arrays")?;
                for v in values {
                    into.push(v.as_u64().ok_or("a result value is not a u64")?);
                }
            }
        }
        if done.get("groups").and_then(JsonValue::as_u64) != Some(rows.keys.len() as u64) {
            return Err(format!("done line disagrees with the {} rows sent", rows.keys.len()));
        }
        digest(&rows.keys, &rows.counts, &rows.sums).hold(&mut self.expected)?;
        let stats = done.get("report").and_then(|r| r.get("stats")).cloned();
        Ok((rows, stats.ok_or("done line without report stats")?))
    }

    fn run_window(&mut self, start: Instant, length: Duration, traced: bool) -> ClientWindow {
        let mut w = ClientWindow {
            query_ns: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            done_stats: Vec::new(),
            log: traced.then(|| SpanLog::new(start)),
        };
        loop {
            w.attempted += 1;
            let log_arg = w.log.as_mut().map(|l| (l, w.attempted as u32 - 1));
            let outcome = self.query(log_arg).and_then(|reply| {
                let (rows, stats) = self.check(&reply)?;
                Ok((reply.nanos, rows, stats))
            });
            let over = start.elapsed() >= length;
            match outcome {
                Ok((nanos, rows, stats)) => {
                    w.query_ns.push(nanos as f64);
                    if traced {
                        w.done_stats.push(stats);
                    }
                    if over {
                        self.last = Some(rows);
                    }
                }
                // A broken connection cannot recover: stop instead of
                // failing at socket speed until the deadline.
                Err(e) => {
                    w.failures.push(e);
                    if self.writer.peer_addr().is_err() || w.failures.len() >= 100 {
                        break;
                    }
                }
            }
            if over {
                break;
            }
        }
        w
    }
}

fn send(writer: &mut TcpStream, line: &str) -> Result<(), String> {
    writer.write_all(line.as_bytes()).map_err(|e| format!("send failed: {e}"))
}

fn recv(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("the server closed the connection".into()),
        Ok(_) => Ok(line),
        Err(e) => Err(format!("receive failed: {e}")),
    }
}

pub struct ServeDoor {
    clients: Vec<Client>,
    inputs: Vec<Input>,
}

impl ServeDoor {
    /// Generate one input per connection, start the server, connect the
    /// clients and pre-encode their requests.
    pub fn open(w: &Workload, smoke: bool, seed: u64) -> Result<Self, String> {
        let inputs = w.inputs(smoke, seed);
        let addr = start_server()?;
        let clients =
            inputs.iter().map(|i| Client::connect(addr, i)).collect::<Result<Vec<_>, _>>()?;
        Ok(Self { clients, inputs })
    }
}

impl Door for ServeDoor {
    fn first_query(&mut self) -> Result<(), String> {
        for client in &mut self.clients {
            let reply = client.query(None)?;
            client.check(&reply)?;
        }
        Ok(())
    }

    fn run_window(&mut self, length: Duration, traced: bool) -> Window {
        let mut window = Window::new(self.inputs[0].keys.len() as u64);
        let start = Instant::now();
        let parts: Vec<ClientWindow> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| scope.spawn(move || c.run_window(start, length, traced)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
        });
        window.wall_ns = start.elapsed().as_nanos() as u64;
        for part in parts {
            window.query_ns.extend(part.query_ns);
            window.attempted += part.attempted;
            part.failures.into_iter().for_each(|e| window.fail(e));
            part.done_stats.iter().for_each(|s| window.ledger.add_stats(s));
            match (&mut window.spans, part.log) {
                (Some(all), Some(log)) => all.absorb(log),
                (spans, log) => *spans = log,
            }
        }
        window
    }

    fn verify(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, (client, input)) in self.clients.iter_mut().zip(&self.inputs).enumerate() {
            let oracle = Oracle::build(&input.keys, &input.vals);
            if client.expected != Some(oracle.digest()) {
                problems.push(format!("connection {i}: the run's digest is not the oracle's"));
            }
            match client.last.take() {
                Some(r) => problems.extend(
                    oracle
                        .compare(&r.keys, &r.counts, &r.sums)
                        .err()
                        .map(|e| format!("connection {i}, last query: {e}")),
                ),
                None => problems.push(format!("connection {i}: no completed query to compare")),
            }
        }
        problems
    }

    /// The server's budgets cannot be read from outside; what can be seen
    /// is that a query asking for the whole memory pool is admitted at
    /// once, which it only is when every earlier grant was returned.
    fn close(mut self: Box<Self>) -> Vec<String> {
        let whole_pool = format!(
            "{{\"op\":\"submit\",\"aggs\":[[\"count\"]],\"mem_budget\":{SERVER_MEM_TOTAL}}}\n"
        );
        let client = &mut self.clients[0];
        let probe = client.submit(&whole_pool).and_then(|queued| {
            send(&mut client.writer, FINISH)?;
            let done = recv(&mut client.reader)?;
            match (queued, done.starts_with("{\"done\"")) {
                (true, _) => Err("undrained budget: a whole-pool query had to queue".to_string()),
                (false, false) => Err(format!("whole-pool probe failed: {}", done.trim_end())),
                (false, true) => Ok(()),
            }
        });
        probe.err().into_iter().collect()
    }

    fn replay_input(&self) -> &Input {
        &self.inputs[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    #[test]
    fn a_served_query_is_checked_and_leaves_the_pool_drained() {
        let w = find("serve_small").unwrap();
        let mut door = ServeDoor::open(w, true, 11).unwrap();
        door.first_query().unwrap();
        let window = door.run_window(Duration::from_millis(200), true);
        assert_eq!(window.failed, 0);
        assert!(window.query_ns.len() >= 2, "one query per connection at least");
        let spans = window.spans.as_ref().unwrap().spans();
        assert!(spans.iter().any(|s| s.name == "cli.serve.first_block"));
        assert!(crate::spans::child_coverage(spans, "query") > 0.9);
        assert!(door.verify().is_empty());
        assert!(Box::new(door).close().is_empty());
    }

    #[test]
    fn a_corrupted_block_fails_the_check() {
        let w = find("serve_small").unwrap();
        let mut door = ServeDoor::open(w, true, 12).unwrap();
        let client = &mut door.clients[0];
        let mut reply = client.query(None).unwrap();
        client.check(&reply).unwrap();
        reply.blocks[0] = reply.blocks[0].replacen("[[", "[[1", 1);
        assert!(client.check(&reply).unwrap_err().contains("differs"));
    }
}
