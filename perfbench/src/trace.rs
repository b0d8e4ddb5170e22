//! In-memory span recorder for traced runs, written out once at the end
//! as Chrome trace-event JSON (which Perfetto and `chrome://tracing`
//! open) plus the drain's sim-time slice series.
//!
//! Spans live only in this benchmark, around its calls into the
//! program's public functions; the program itself is not instrumented.

use std::path::Path;
use std::time::Instant;

use decent_sim::json::Json;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// One fixed sim-time slice of a traced drain.
pub struct Slice {
    pub sim_start_s: f64,
    pub sim_end_s: f64,
    pub wall_s: f64,
    pub events: u64,
    pub activations: u64,
    pub windows: u64,
    pub queue_depth: u64,
}

/// Handle of an open span (ignored when tracing is off).
#[derive(Clone, Copy)]
pub struct Open(usize);

/// Records spans when on; costs one branch per call when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    run_id: String,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pub slices: Vec<Slice>,
}

impl Tracer {
    pub fn new(on: bool, run_id: String) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
            stack: Vec::new(),
            slices: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes `open` and returns its duration in seconds (0 when off).
    pub fn end(&mut self, open: Open) -> f64 {
        if !self.on {
            return 0.0;
        }
        let now = self.now_ns();
        let span = &mut self.spans[open.0];
        span.end_ns = now;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans must close innermost first");
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Writes `trace.json` (Chrome trace events: one complete event per
    /// span, one counter sample per slice) and `slices.json` into `dir`.
    pub fn write(&self, dir: &Path, workload: &str, seed: u64) -> Result<(), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let us = |ns: u64| Json::num(ns as f64 / 1e3);
        let mut events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("cat", Json::str("perfbench")),
                    ("ph", Json::str("X")),
                    ("ts", us(s.start_ns)),
                    ("dur", us(s.end_ns - s.start_ns)),
                    ("pid", Json::int(1)),
                    ("tid", Json::int(1)),
                    (
                        "args",
                        Json::obj([
                            ("span", Json::int(i as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::int(p as u64)),
                            ),
                            ("run", Json::str(&self.run_id)),
                        ]),
                    ),
                ])
            })
            .collect();
        let slice_spans = self.spans.iter().filter(|s| s.name == "engine.run_until");
        for (slice, span) in self.slices.iter().zip(slice_spans) {
            events.push(Json::obj([
                ("name", Json::str("engine.slice")),
                ("ph", Json::str("C")),
                ("ts", us(span.end_ns)),
                ("pid", Json::int(1)),
                (
                    "args",
                    Json::obj([
                        ("events", Json::int(slice.events)),
                        ("queue_depth", Json::int(slice.queue_depth)),
                    ]),
                ),
            ]));
        }
        let trace = Json::obj([
            ("traceEvents", Json::arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj([
                    ("run", Json::str(&self.run_id)),
                    ("workload", Json::str(workload)),
                    ("seed", Json::str(seed.to_string())),
                ]),
            ),
        ]);
        let slices = Json::arr(self.slices.iter().map(|s| {
            Json::obj([
                ("sim_start_s", Json::num(s.sim_start_s)),
                ("sim_end_s", Json::num(s.sim_end_s)),
                ("wall_s", Json::num(s.wall_s)),
                ("events", Json::int(s.events)),
                ("activations", Json::int(s.activations)),
                ("windows", Json::int(s.windows)),
                ("queue_depth", Json::int(s.queue_depth)),
            ])
        }));
        for (name, doc) in [("trace.json", trace), ("slices.json", slices)] {
            let path = dir.join(name);
            std::fs::write(&path, doc.to_string_compact())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        Ok(())
    }
}
