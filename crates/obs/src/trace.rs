//! The task timeline: the bounded buffer a [`crate::Recorder`] keeps in
//! each worker's shard when a query asks for a trace, and its rendering
//! as Chrome trace-event JSON.
//!
//! A timeline holds two kinds of marks, both appended under the lock the
//! shard's deep cells already take: the span of every timed phase call
//! (`"ph":"X"`, named by the phase's label, its duration inclusive of the
//! phases nested in it) and the instant of every operator event
//! (`"ph":"i"`). Once a buffer is full further marks are counted as
//! dropped rather than grown, so the timeline stays bounded however long
//! the run is. The rendered document (`{"traceEvents": [...]}`) loads in
//! Perfetto or `chrome://tracing`, one lane per worker.

use crate::json::JsonValue;

/// Up to this many `(key, value)` args are kept per mark.
const MAX_ARGS: usize = 2;

/// One timeline entry. Names and arg keys are `&'static str`, so
/// recording allocates nothing beyond the buffer; only rendering does.
#[derive(Debug)]
struct Mark {
    name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    start_nanos: u64,
    /// Duration in nanoseconds; `None` renders as an instant.
    dur_nanos: Option<u64>,
    args: [Option<(&'static str, u64)>; MAX_ARGS],
}

impl Mark {
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

/// One worker's marks, at most `capacity` of them.
#[derive(Debug)]
pub(crate) struct Timeline {
    marks: Vec<Mark>,
    capacity: usize,
    dropped: u64,
}

impl Timeline {
    pub(crate) fn new(capacity: usize) -> Self {
        Self { marks: Vec::with_capacity(capacity.min(1024)), capacity, dropped: 0 }
    }

    /// Append a mark that began at `start_nanos` and lasted `dur_nanos`
    /// (`None`: an instant), with up to two args (extra args dropped).
    pub(crate) fn push(
        &mut self,
        name: &'static str,
        start_nanos: u64,
        dur_nanos: Option<u64>,
        args: &[(&'static str, u64)],
    ) {
        if self.marks.len() == self.capacity {
            self.dropped += 1;
            return;
        }
        let mut packed = [None; MAX_ARGS];
        for (slot, &kv) in packed.iter_mut().zip(args) {
            *slot = Some(kv);
        }
        self.marks.push(Mark { name, start_nanos, dur_nanos, args: packed });
    }

    /// Append this worker's lane — its thread-name row, so Perfetto
    /// labels it "worker `tid`", then its marks — to `events`, and return
    /// how many marks it dropped.
    pub(crate) fn lane(&self, tid: usize, events: &mut Vec<JsonValue>) -> u64 {
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
        events.extend(self.marks.iter().map(|m| m.to_json(tid)));
        self.dropped
    }
}

/// The Chrome trace-event document of the lanes' `events` and their
/// per-worker drop counts.
pub(crate) fn chrome_json(events: Vec<JsonValue>, dropped_by_worker: &[u64]) -> String {
    JsonValue::obj([
        ("traceEvents", JsonValue::Array(events)),
        ("displayTimeUnit", JsonValue::str("ns")),
        ("droppedEvents", JsonValue::U64(dropped_by_worker.iter().sum())),
        (
            "droppedEventsByWorker",
            JsonValue::Array(dropped_by_worker.iter().map(|&d| JsonValue::U64(d)).collect()),
        ),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn render(lanes: &[Timeline]) -> JsonValue {
        let mut events = Vec::new();
        let dropped: Vec<u64> =
            lanes.iter().enumerate().map(|(tid, t)| t.lane(tid, &mut events)).collect();
        parse(&chrome_json(events, &dropped)).unwrap()
    }

    #[test]
    fn spans_and_instants_round_trip_through_chrome_json() {
        let mut lanes = [Timeline::new(16), Timeline::new(16)];
        lanes[0].push("hash_insert", 1_500, Some(2_250), &[("level", 0), ("rows", 4096)]);
        lanes[1].push("switch_to_partitioning", 9_000, None, &[("alpha_x100", 250)]);
        let parsed = render(&lanes);
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        // 2 metadata rows (thread names) + 2 recorded marks.
        assert_eq!(events.len(), 4);
        let named =
            |name| events.iter().find(|e| e.get("name").unwrap().as_str() == Some(name)).unwrap();

        let span = named("hash_insert");
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("tid").unwrap().as_u64(), Some(0));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1.5), "µs, with the fraction");
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(2.25));
        assert_eq!(span.get("args").unwrap().get("rows").unwrap().as_u64(), Some(4096));

        let instant = named("switch_to_partitioning");
        assert_eq!(instant.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(instant.get("tid").unwrap().as_u64(), Some(1));
        assert!(instant.get("dur").is_none());

        let lane = named("thread_name");
        assert_eq!(lane.get("args").unwrap().get("name").unwrap().as_str(), Some("worker 0"));
    }

    #[test]
    fn buffers_are_bounded_and_count_what_they_drop() {
        let mut lanes = [Timeline::new(4), Timeline::new(4)];
        for _ in 0..10 {
            lanes[0].push("e", 0, None, &[]);
        }
        lanes[1].push("e", 0, None, &[("a", 1), ("b", 2), ("c", 3)]);
        assert_eq!(lanes[0].marks.len(), 4);
        let parsed = render(&lanes);
        assert_eq!(parsed.get("droppedEvents").unwrap().as_u64(), Some(6));
        let by_worker = parsed.get("droppedEventsByWorker").unwrap().as_array().unwrap();
        let by_worker: Vec<_> = by_worker.iter().map(|d| d.as_u64().unwrap()).collect();
        assert_eq!(by_worker, [6, 0]);
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        let last = events.last().unwrap().get("args").unwrap();
        assert!(last.get("b").is_some() && last.get("c").is_none(), "two args kept");
    }
}
