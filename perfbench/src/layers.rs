//! The traced run's per-layer aggregates: span self time from the
//! server's flight recorder, plus the benchmark's own timed calls into
//! the layers no span splits.

use graphscript::{parse_program, Interpreter, Value};
use nemo_core::sandbox::SANDBOX_STEP_LIMIT;
use nemo_core::{Backend, NetworkState};
use nemo_serve::{Epoch, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Traces the flight recorder keeps; well above [`DRAIN_EVERY`].
pub const RECORDER_CAPACITY: usize = 4096;
/// Requests between drains of the flight recorder.
pub const DRAIN_EVERY: usize = 1024;

/// Spans whose self time the benchmark's own calls split.
const SPLIT_SPANS: [&str; 2] = ["query.execute", "query.compile"];
/// Own-timed calls that split them: the work those spans do.
const SPLIT_CALLS: [&str; 4] = [
    "prompt.build",
    "llm.complete",
    "live.state_copy",
    "sandbox.execute",
];

/// A count and a total, in microseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    /// Samples.
    pub count: u64,
    /// Sum of the samples, in microseconds.
    pub total_us: f64,
}

impl Agg {
    fn add(&mut self, us: f64) {
        self.count += 1;
        self.total_us += us;
    }

    fn merge(self, other: Agg) -> Agg {
        Agg {
            count: self.count + other.count,
            total_us: self.total_us + other.total_us,
        }
    }

    /// Mean sample in microseconds; 0 without samples.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us / self.count as f64
        }
    }
}

/// Per-layer time of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Requests handled since the last drain.
    pub pending: usize,
    last_trace: u64,
    /// Requests whose trace was evicted before a drain read it.
    pub spans_dropped: u64,
    /// Self time per span name, excluding the request roots.
    spans: BTreeMap<&'static str, Agg>,
    /// Self time of the `request.*` roots.
    pub roots: Agg,
    /// The benchmark's own timed calls, by layer and backend.
    own: BTreeMap<(&'static str, Option<Backend>), Agg>,
    /// Self time of the spans the own calls split.
    split_self_us: f64,
    view_epoch: Option<Epoch>,
    /// Server time of the traced queries.
    pub query_time: Duration,
}

impl Layers {
    /// Records one own-timed call.
    pub fn own(&mut self, layer: &'static str, backend: Option<Backend>, took: Duration) {
        self.own
            .entry((layer, backend))
            .or_default()
            .add(took.as_secs_f64() * 1e6);
    }

    /// Records a `Server::merged_view` call; at shards > 1 the first call
    /// at a new epoch is a rebuild.
    pub fn merged_view(&mut self, epoch: Epoch, shards: u32, took: Duration) {
        if shards > 1 && self.view_epoch != Some(epoch) {
            self.view_epoch = Some(epoch);
            self.own("shard.merged_view", None, took);
        }
    }

    /// Repeats the steps `execute_code` wraps, each timed: the copy of
    /// the state into the sandbox, parse and run (GraphScript) or the
    /// script (SQL), and the copy of the final state out.
    pub fn split_execution(&mut self, backend: Backend, program: &str, state: &NetworkState) {
        let b = Some(backend);
        let mut interp = Interpreter::new().with_step_limit(SANDBOX_STEP_LIMIT);
        let start = Instant::now();
        let globals: Vec<(&str, Value)> = match state {
            NetworkState::Database(db) => {
                let mut db = db.clone();
                let start = Instant::now();
                let _ = db.execute_script(program);
                self.own("sqlengine.exec", b, start.elapsed());
                return;
            }
            NetworkState::Graph(graph) => vec![("G", Value::graph(graph.clone()))],
            NetworkState::Frames { nodes, edges } => vec![
                ("nodes", Value::frame(nodes.clone())),
                ("edges", Value::frame(edges.clone())),
            ],
        };
        let copied_in = start.elapsed();
        for (name, value) in &globals {
            interp.set_global(name, value.clone());
        }
        let start = Instant::now();
        let parsed = parse_program(program);
        self.own("graphscript.parse", b, start.elapsed());
        if let Ok(parsed) = parsed {
            let start = Instant::now();
            let _ = interp.run_program(&parsed);
            self.own("graphscript.run", b, start.elapsed());
        }
        let start = Instant::now();
        for (_, value) in &globals {
            match value {
                Value::Graph(g) => drop(black_box(g.borrow().clone())),
                Value::Frame(df) => drop(black_box(df.borrow().clone())),
                _ => {}
            }
        }
        self.own("sandbox.copy", b, copied_in + start.elapsed());
    }

    /// Aggregates the traces completed since the last drain. Each handled
    /// request completes exactly one trace, with increasing ids.
    pub fn drain(&mut self, tracer: &Tracer) {
        if self.pending == 0 {
            return;
        }
        let mut seen = 0;
        for trace in tracer.traces(self.pending) {
            if trace.trace_id <= self.last_trace {
                continue;
            }
            self.last_trace = trace.trace_id;
            seen += 1;
            // Span ids are 1-based positions in the trace.
            let mut children_us = vec![0u64; trace.spans.len()];
            for span in &trace.spans {
                if let Some(parent) = span.parent_id {
                    children_us[(parent - 1) as usize] += span.duration_micros;
                }
            }
            for (i, span) in trace.spans.iter().enumerate() {
                let self_us = span.duration_micros.saturating_sub(children_us[i]) as f64;
                if i == 0 {
                    self.roots.add(self_us);
                } else {
                    self.spans.entry(span.name).or_default().add(self_us);
                    if SPLIT_SPANS.contains(&span.name) {
                        self.split_self_us += self_us;
                    }
                }
            }
        }
        self.spans_dropped += (self.pending - seen) as u64;
        self.pending = 0;
    }

    /// Self time of a span, over all its occurrences.
    pub fn span(&self, name: &str) -> Agg {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// An own-timed layer, for one backend or (`None`) over all of them.
    pub fn call(&self, layer: &str, backend: Option<Backend>) -> Agg {
        self.own
            .iter()
            .filter(|((l, b), _)| *l == layer && (backend.is_none() || *b == backend))
            .fold(Agg::default(), |acc, (_, a)| acc.merge(*a))
    }

    /// Total time of own-timed layers, in microseconds.
    pub fn total_us(&self, layers: &[&str]) -> f64 {
        layers.iter().map(|l| self.call(l, None).total_us).sum()
    }

    /// Time inside the split spans that no own-timed call accounts for
    /// (negative when the own calls ran slower than the server's).
    pub fn unattributed_us(&self) -> f64 {
        self.split_self_us - self.total_us(&SPLIT_CALLS)
    }
}
