//! Task timeline tracer emitting Chrome trace-event JSON.
//!
//! Each worker appends complete-span (`"ph":"X"`) and instant
//! (`"ph":"i"`) events into its own bounded, cache-line-padded buffer
//! behind its own mutex — the recorder's per-worker sharding, so the lock
//! is uncontended while a query runs, and any thread may read the buffers
//! at any time. Once a buffer is full further events are counted as
//! dropped rather than grown; the timeline stays bounded no matter how
//! long the run is.
//!
//! [`Tracer::to_chrome_json`] renders the merged buffers in the Chrome
//! trace-event format (`{"traceEvents": [...]}`), loadable directly in
//! Perfetto or `chrome://tracing`.

use crate::json::JsonValue;
use crate::CachePadded;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default per-worker event capacity (~64 bytes/event ⇒ ~512 KiB/worker).
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// Up to this many `(key, value)` args are kept per event.
const MAX_ARGS: usize = 2;

/// One recorded event. Names and arg keys are `&'static str` so recording
/// never allocates; only serialization does.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event name shown on the timeline slice.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_nanos: u64,
    /// Duration in nanoseconds; `None` renders as an instant event.
    pub dur_nanos: Option<u64>,
    /// Small numeric payload, e.g. `("rows", 8192)`.
    pub args: [Option<(&'static str, u64)>; MAX_ARGS],
}

impl TraceEvent {
    fn to_json(&self, tid: usize) -> JsonValue {
        // Chrome trace timestamps are microseconds; keep sub-µs precision
        // as a fraction rather than rounding short spans to zero.
        let mut pairs = vec![
            ("name".to_string(), JsonValue::str(self.name)),
            ("cat".to_string(), JsonValue::str("hsa")),
            ("ph".to_string(), JsonValue::str(if self.dur_nanos.is_some() { "X" } else { "i" })),
            ("ts".to_string(), JsonValue::F64(self.start_nanos as f64 / 1000.0)),
        ];
        if let Some(dur) = self.dur_nanos {
            pairs.push(("dur".to_string(), JsonValue::F64(dur as f64 / 1000.0)));
        } else {
            pairs.push(("s".to_string(), JsonValue::str("t")));
        }
        pairs.push(("pid".to_string(), JsonValue::U64(1)));
        pairs.push(("tid".to_string(), JsonValue::U64(tid as u64)));
        let args: Vec<(String, JsonValue)> =
            self.args.iter().flatten().map(|&(k, v)| (k.to_string(), JsonValue::U64(v))).collect();
        if !args.is_empty() {
            pairs.push(("args".to_string(), JsonValue::Object(args)));
        }
        JsonValue::Object(pairs)
    }
}

struct WorkerBuffer {
    events: Vec<TraceEvent>,
    dropped: u64,
}

struct Inner {
    buffers: Vec<CachePadded<Mutex<WorkerBuffer>>>,
    capacity: usize,
    epoch: Instant,
}

fn lock(buffer: &Mutex<WorkerBuffer>) -> MutexGuard<'_, WorkerBuffer> {
    // A panic while the lock was held left whole events behind: every
    // update under it is a single push or add.
    buffer.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cheap cloneable handle to the per-worker timeline buffers, or a no-op
/// when built with [`Tracer::disabled`].
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A tracer whose every operation is a null check.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A tracer with one buffer per worker, each bounded to `capacity`
    /// events. The epoch (ts = 0) is the moment of this call.
    pub fn enabled(workers: usize, capacity: usize) -> Self {
        let buffers = (0..workers.max(1))
            .map(|_| {
                CachePadded(Mutex::new(WorkerBuffer {
                    events: Vec::with_capacity(capacity.min(1024)),
                    dropped: 0,
                }))
            })
            .collect();
        Self { inner: Some(Arc::new(Inner { buffers, capacity, epoch: Instant::now() })) }
    }

    /// Whether events are actually collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the tracer's epoch — the timestamp to pass back
    /// into [`Tracer::span`]. Returns 0 when disabled.
    #[inline]
    pub fn now(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    fn push(&self, worker: usize, event: TraceEvent) {
        if let Some(inner) = self.inner.as_deref() {
            let mut buf = lock(&inner.buffers[worker].0);
            if buf.events.len() < inner.capacity {
                buf.events.push(event);
            } else {
                buf.dropped += 1;
            }
        }
    }

    /// Record a complete span that started at `start_nanos` (a value from
    /// [`Tracer::now`]) and ends now.
    #[inline]
    pub fn span(&self, worker: usize, name: &'static str, start_nanos: u64) {
        self.span_args(worker, name, start_nanos, &[]);
    }

    /// [`Tracer::span`] with up to two numeric args (extra args dropped).
    pub fn span_args(
        &self,
        worker: usize,
        name: &'static str,
        start_nanos: u64,
        args: &[(&'static str, u64)],
    ) {
        if self.inner.is_none() {
            return;
        }
        let end = self.now();
        let mut packed = [None; MAX_ARGS];
        for (slot, &kv) in packed.iter_mut().zip(args) {
            *slot = Some(kv);
        }
        self.push(
            worker,
            TraceEvent {
                name,
                start_nanos,
                dur_nanos: Some(end.saturating_sub(start_nanos)),
                args: packed,
            },
        );
    }

    /// Record an instant (zero-duration marker) event.
    pub fn instant(&self, worker: usize, name: &'static str, args: &[(&'static str, u64)]) {
        if self.inner.is_none() {
            return;
        }
        let now = self.now();
        let mut packed = [None; MAX_ARGS];
        for (slot, &kv) in packed.iter_mut().zip(args) {
            *slot = Some(kv);
        }
        self.push(worker, TraceEvent { name, start_nanos: now, dur_nanos: None, args: packed });
    }

    /// Total events recorded across workers so far.
    pub fn event_count(&self) -> usize {
        self.for_each_buffer(|buf| buf.events.len()).into_iter().sum()
    }

    /// Events dropped to the per-worker capacity bound.
    pub fn dropped_count(&self) -> u64 {
        self.for_each_buffer(|buf| buf.dropped).into_iter().sum()
    }

    fn for_each_buffer<R>(&self, mut f: impl FnMut(&WorkerBuffer) -> R) -> Vec<R> {
        match self.inner.as_deref() {
            None => Vec::new(),
            Some(inner) => inner.buffers.iter().map(|b| f(&lock(&b.0))).collect(),
        }
    }

    /// Render all buffers as a Chrome trace-event JSON document:
    /// `{"traceEvents": [...], "displayTimeUnit": "ns", ...}`. Load the
    /// result in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
    /// Called mid-query, it renders what each buffer held when read.
    pub fn to_chrome_json(&self) -> String {
        let Some(inner) = self.inner.as_deref() else {
            return JsonValue::obj([("traceEvents", JsonValue::Array(Vec::new()))])
                .to_string_compact();
        };
        let mut events: Vec<JsonValue> = Vec::new();
        // Thread-name metadata rows so Perfetto labels lanes "worker N".
        for tid in 0..inner.buffers.len() {
            events.push(JsonValue::Object(vec![
                ("name".to_string(), JsonValue::str("thread_name")),
                ("ph".to_string(), JsonValue::str("M")),
                ("pid".to_string(), JsonValue::U64(1)),
                ("tid".to_string(), JsonValue::U64(tid as u64)),
                (
                    "args".to_string(),
                    JsonValue::obj([("name", JsonValue::Str(format!("worker {tid}")))]),
                ),
            ]));
        }
        let mut dropped = 0u64;
        let mut dropped_by_worker = Vec::with_capacity(inner.buffers.len());
        for (tid, buffer) in inner.buffers.iter().enumerate() {
            let buffer = lock(&buffer.0);
            dropped += buffer.dropped;
            dropped_by_worker.push(JsonValue::U64(buffer.dropped));
            events.extend(buffer.events.iter().map(|e| e.to_json(tid)));
        }
        JsonValue::obj([
            ("traceEvents", JsonValue::Array(events)),
            ("displayTimeUnit", JsonValue::str("ns")),
            ("droppedEvents", JsonValue::U64(dropped)),
            ("droppedEventsByWorker", JsonValue::Array(dropped_by_worker)),
        ])
        .to_string_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        let s = t.now();
        t.span(0, "morsel", s);
        t.instant(0, "seal", &[]);
        assert_eq!(t.event_count(), 0);
        let parsed = crate::json::parse(&t.to_chrome_json()).unwrap();
        assert_eq!(parsed.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn spans_round_trip_through_chrome_json() {
        let t = Tracer::enabled(2, 16);
        let s0 = t.now();
        t.span_args(0, "morsel", s0, &[("rows", 4096)]);
        t.instant(1, "switch_to_partitioning", &[("alpha_x100", 250)]);
        assert_eq!(t.event_count(), 2);

        let parsed = crate::json::parse(&t.to_chrome_json()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        // 2 metadata rows (thread names) + 2 recorded events.
        assert_eq!(events.len(), 4);

        let morsel = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("morsel"))
            .expect("morsel span present");
        assert_eq!(morsel.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(morsel.get("tid").unwrap().as_u64(), Some(0));
        assert!(morsel.get("dur").unwrap().as_f64().unwrap() >= 0.0);
        assert_eq!(morsel.get("args").unwrap().get("rows").unwrap().as_u64(), Some(4096));

        let switch = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("switch_to_partitioning"))
            .expect("instant present");
        assert_eq!(switch.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(switch.get("tid").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn buffers_are_bounded() {
        let t = Tracer::enabled(2, 4);
        for _ in 0..10 {
            t.instant(0, "e", &[]);
        }
        t.instant(1, "e", &[]);
        assert_eq!(t.event_count(), 5);
        assert_eq!(t.dropped_count(), 6);
        let parsed = crate::json::parse(&t.to_chrome_json()).unwrap();
        assert_eq!(parsed.get("droppedEvents").unwrap().as_u64(), Some(6));
        let by_worker = parsed.get("droppedEventsByWorker").unwrap().as_array().unwrap();
        assert_eq!(by_worker.len(), 2);
        assert_eq!(by_worker[0].as_u64(), Some(6));
        assert_eq!(by_worker[1].as_u64(), Some(0));
    }

    #[test]
    fn timestamps_are_monotone_per_worker() {
        let t = Tracer::enabled(1, 64);
        for _ in 0..5 {
            let s = t.now();
            t.span(0, "step", s);
        }
        let starts =
            t.for_each_buffer(|b| b.events.iter().map(|e| e.start_nanos).collect::<Vec<_>>());
        for w in starts[0].windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
