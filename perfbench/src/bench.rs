//! One workload's server, driven in a closed loop through
//! `Server::handle`, with the correctness gate on every reply.

use crate::layers::Layers;
use crate::memfs::MemFs;
use crate::schedule::{Op, Spec, BACKENDS, PAIRS};
use crate::speed::{cpu_relative_time, Speed};
use nemo_bench::runner::DEFAULT_SEED;
use nemo_core::llm::{extract_code, profiles};
use nemo_core::prompt::codegen_prompt;
use nemo_core::sandbox::{execute_code, SandboxError};
use nemo_core::{Backend, Llm, SimulatedLlm};
use nemo_serve::driver::serving_knowledge;
use nemo_serve::{
    CacheOutcome, Epoch, FsyncPolicy, LiveNetwork, Mutation, RecoveryReport, Request, Response,
    Server, ServerBuilder, Session, Tracer,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trafficgen::{evolve, generate, StreamConfig, TrafficConfig, TrafficWorkload};

/// Every session's model seed. The model is part of the system under
/// test, so it stays fixed while `--seed` varies the network and traffic.
pub const MODEL_SEED: u64 = DEFAULT_SEED;
/// Deferred store removals per batch boundary, as `Server::run_schedule`.
const SWEEP_BUDGET: usize = 64;
/// Mismatches printed in full before the rest are only counted.
const PRINTED_FAILURES: u64 = 20;
/// The repeated server builds run in groups a pause apart, so their
/// samples span several of the shared host's phases, which last a second
/// or more, rather than one: (groups, pause).
const SETUP_GROUPS: (usize, Duration) = (5, Duration::from_millis(300));
/// The same for recoveries, each group timed against the compute kernel
/// read just before it.
const RECOVERY_GROUPS: (usize, Duration) = (20, Duration::from_millis(300));

/// A workload's prebuilt inputs: the genesis network and every request.
pub struct Inputs {
    /// The genesis network.
    pub workload: TrafficWorkload,
    /// The traffic questions, by question index.
    pub questions: Vec<String>,
    /// One query request per pair.
    pub queries: Vec<Request>,
    /// The mutation requests, in stream order.
    pub mutations: Vec<Request>,
}

impl Inputs {
    /// Generates the network and `mutations` stream events from `seed`.
    pub fn new(spec: &Spec, seed: u64, mutations: usize) -> Inputs {
        let workload = generate(&TrafficConfig {
            nodes: spec.nodes,
            edges: spec.edges,
            prefixes: spec.prefixes,
            seed,
        });
        let stream = evolve(
            &workload,
            &StreamConfig {
                events: mutations,
                seed,
            },
        );
        let questions: Vec<String> = nemo_bench::traffic_queries()
            .into_iter()
            .map(|spec| spec.text.to_string())
            .collect();
        let queries = (0..PAIRS)
            .map(|p| Request::Query {
                client: p % BACKENDS,
                query: questions[p / BACKENDS].clone(),
            })
            .collect();
        let mutations = stream
            .iter()
            .map(|timed| Request::Mutate {
                at_ms: timed.at_ms,
                mutation: Mutation::from_event(&timed.event),
            })
            .collect();
        Inputs {
            workload,
            questions,
            queries,
            mutations,
        }
    }
}

fn model() -> SimulatedLlm {
    SimulatedLlm::new(profiles::gpt4(), serving_knowledge(), MODEL_SEED)
}

/// One session per code-generation backend; client `c` uses
/// `Backend::CODEGEN[c]`.
fn sessions() -> Vec<Session<SimulatedLlm>> {
    Backend::CODEGEN
        .iter()
        .enumerate()
        .map(|(client, &backend)| Session {
            client,
            backend,
            llm: model(),
        })
        .collect()
}

fn builder(spec: &Spec, fs: &Arc<MemFs>, root: &Path, tracer: &Tracer) -> ServerBuilder {
    ServerBuilder::new()
        .shards(spec.shards)
        .fsync(FsyncPolicy::EveryBatch)
        .snapshot_every_epochs(spec.snapshot_every_epochs)
        .vfs(fs.clone())
        .tracer(tracer.clone())
        .persist_at(root)
}

/// Latency and throughput samples of the timed steps, in
/// reference-speed units (see [`Speed`]).
#[derive(Debug, Default)]
pub struct Recorder {
    /// Per-query latency, request in to reply out.
    pub query_ms: Vec<f32>,
    /// Sum of the query latencies, in seconds.
    pub query_s: f64,
    /// Per-mutation latency from its `Mutate` to the return of its `Sync`.
    pub ack_ms: Vec<f32>,
    /// Time of the mutation batches (mutate, sync and sweep), in seconds.
    pub write_s: f64,
    /// `query_s` and `write_s` as the wall clock read them.
    pub raw_query: Duration,
    /// See `raw_query`.
    pub raw_write: Duration,
}

/// The correctness gate's tally and the digest of every reply text.
#[derive(Debug)]
pub struct Check {
    /// Requests sent, plus one per restart epoch check.
    pub attempted: u64,
    /// Requests that errored, answered unexpectedly or failed the gate.
    pub failed: u64,
    /// Query replies received.
    pub replies: u64,
    /// Replies that are `error: …` from a model-written program.
    pub error_replies: u64,
    /// FNV-1a over every reply text, in order.
    pub digest: u64,
}

impl Default for Check {
    fn default() -> Self {
        Check {
            attempted: 0,
            failed: 0,
            replies: 0,
            error_replies: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Check {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failed <= PRINTED_FAILURES {
            eprintln!("perfbench: correctness gate: {}", what());
        }
    }

    fn absorb(&mut self, text: &str) {
        for byte in text.bytes().chain([0xff]) {
            self.digest ^= u64::from(byte);
            self.digest = self.digest.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// What a restart measured.
#[derive(Debug)]
pub struct Recovery {
    /// Per group, the fastest `recover_or_create` in seconds at the
    /// compute kernel's nominal speed.
    pub seconds: Vec<f64>,
    /// Recoveries run.
    pub reps: usize,
    /// Per group, the compute kernel's reading relative to nominal.
    pub cpu_relative: Vec<f64>,
    /// The last recovery's per-shard reports.
    pub reports: Vec<RecoveryReport>,
}

/// A server under one workload, and the benchmark's view of it.
pub struct Bench<'a> {
    spec: &'static Spec,
    inputs: &'a Inputs,
    fs: Arc<MemFs>,
    root: PathBuf,
    /// The flight recorder the server was built with (disabled until a
    /// traced run enables it).
    pub tracer: Tracer,
    /// The server under test.
    pub server: Server<SimulatedLlm>,
    /// The benchmark's own model copies (pure functions of the prompt),
    /// for the gate and the prompt/model timings.
    models: Vec<SimulatedLlm>,
    next_mutation: usize,
    /// The last reply per pair and the epoch it reflects.
    last: Vec<Option<(Epoch, String)>>,
    /// Whether query latencies are recorded into `rec`.
    pub record_queries: bool,
    /// Whether mutation batches are recorded into `rec`.
    pub record_writes: bool,
    /// Whether executed replies are checked against a fresh execution.
    pub fresh_gate: bool,
    /// Timed samples.
    pub rec: Recorder,
    /// Per-layer aggregates, in a traced run.
    pub layers: Option<Layers>,
    /// The gate's tally.
    pub check: Check,
    /// Host-speed calibration.
    pub speed: Speed,
}

impl<'a> Bench<'a> {
    /// Builds the workload's server `reps` times, each over a fresh
    /// store, and keeps the last. Returns the bench and each build's
    /// seconds (`LiveNetwork::from_workload` + `ServerBuilder::build`).
    pub fn setup(
        spec: &'static Spec,
        inputs: &'a Inputs,
        root: &Path,
        reps: usize,
        mut speed: Speed,
    ) -> Result<(Bench<'a>, Vec<f64>), String> {
        let mut seconds = Vec::with_capacity(reps);
        let mut built = None;
        for i in 0..reps {
            start_group_if_due(i, reps, SETUP_GROUPS);
            drop(built.take());
            let fs = Arc::new(MemFs::default());
            let tracer = Tracer::new();
            let sessions = sessions();
            speed.tick();
            let start = Instant::now();
            let live = LiveNetwork::from_workload(&inputs.workload);
            let server = builder(spec, &fs, root, &tracer)
                .build(live, sessions)
                .map_err(|e| format!("building the server: {e}"))?;
            seconds.push(speed.scale(start.elapsed()));
            built = Some((server, fs, tracer));
        }
        let (server, fs, tracer) = built.ok_or("no setup repetitions")?;
        let bench = Bench {
            spec,
            inputs,
            fs,
            root: root.to_path_buf(),
            tracer,
            server,
            models: (0..BACKENDS).map(|_| model()).collect(),
            next_mutation: 0,
            last: vec![None; PAIRS],
            record_queries: false,
            record_writes: false,
            fresh_gate: true,
            rec: Recorder::default(),
            layers: None,
            check: Check::default(),
            speed,
        };
        Ok((bench, seconds))
    }

    /// The global epoch of the live state.
    pub fn epoch(&self) -> Epoch {
        self.server.network().global_epoch()
    }

    /// Runs schedule steps in order.
    pub fn run(&mut self, ops: &[Op]) {
        for op in ops {
            self.speed.tick();
            match op {
                Op::Batch => self.batch(),
                Op::Query(p) => self.query(usize::from(*p)),
            }
        }
        self.drain();
    }

    /// Asks every pair once, in pair order.
    pub fn round(&mut self) -> Vec<String> {
        (0..PAIRS)
            .map(|p| {
                self.query(p);
                self.last[p]
                    .as_ref()
                    .map(|(_, a)| a.clone())
                    .unwrap_or_default()
            })
            .collect()
    }

    /// Every pair's answer at the current epoch, asking (untimed) only
    /// the pairs not yet answered at it.
    pub fn answers_now(&mut self) -> Vec<String> {
        let epoch = self.epoch();
        for p in 0..PAIRS {
            if !matches!(&self.last[p], Some((e, _)) if *e == epoch) {
                self.query(p);
            }
        }
        self.last
            .iter()
            .map(|l| l.as_ref().map(|(_, a)| a.clone()).unwrap_or_default())
            .collect()
    }

    fn note_requests(&mut self, n: usize) {
        if let Some(layers) = &mut self.layers {
            layers.pending += n;
            if layers.pending >= crate::layers::DRAIN_EVERY {
                layers.drain(&self.tracer);
            }
        }
    }

    /// Aggregates every trace the flight recorder holds since the last
    /// drain.
    pub fn drain(&mut self) {
        if let Some(layers) = &mut self.layers {
            layers.drain(&self.tracer);
        }
    }

    /// The next `Spec::batch` mutations, one `Sync`, one store sweep.
    fn batch(&mut self) {
        let n = self.spec.batch;
        let first = self.next_mutation;
        let Some(requests) = self.inputs.mutations.get(first..first + n) else {
            self.check
                .fail(|| "the schedule ran past its mutation stream".to_string());
            return;
        };
        self.next_mutation += n;
        let base = self.epoch();
        let mut sent = Vec::with_capacity(n);
        let mut outcomes = Vec::with_capacity(n);
        let batch_start = Instant::now();
        for request in requests {
            sent.push(Instant::now());
            outcomes.push(self.server.handle(request));
        }
        let synced = self.server.handle(&Request::Sync);
        let acked = Instant::now();
        let swept = self.server.sweep_persistence(SWEEP_BUDGET);
        let end = Instant::now();
        if self.record_writes {
            self.rec.write_s += self.speed.scale(end - batch_start);
            self.rec.raw_write += end - batch_start;
            for at in &sent {
                self.rec
                    .ack_ms
                    .push((self.speed.scale(acked - *at) * 1e3) as f32);
            }
        }
        if let Some(layers) = &mut self.layers {
            layers.own("sweep.flush", None, end - acked);
        }
        self.check.attempted += n as u64 + 1;
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let want = base + i as u64 + 1;
            match outcome {
                Ok(Response::Mutated { epoch, .. }) if epoch == want => {}
                other => self
                    .check
                    .fail(|| format!("mutation at epoch {want}: {other:?}")),
            }
        }
        if !matches!(synced, Ok(Response::Synced)) {
            self.check.fail(|| format!("sync: {synced:?}"));
        }
        if let Err(e) = swept {
            self.check.fail(|| format!("sweep: {e}"));
        }
        self.note_requests(n + 1);
    }

    /// Asks pair `p`, timed, then gates the reply.
    fn query(&mut self, p: usize) {
        let inputs = self.inputs;
        let backend = Backend::CODEGEN[p % BACKENDS];
        let question = &inputs.questions[p / BACKENDS];
        let epoch = self.epoch();
        let answer_hit = matches!(&self.last[p], Some((e, _)) if *e == epoch);
        let cached = if answer_hit {
            None
        } else {
            self.server
                .cached_program(question, backend)
                .map(str::to_owned)
        };
        let predicted = match (answer_hit, &cached) {
            (true, _) => CacheOutcome::AnswerHit,
            (false, Some(_)) => CacheOutcome::ProgramHit,
            (false, None) => CacheOutcome::Miss,
        };
        // A traced run times each layer's own call before the server
        // handles the request; an untimed run executes the reference after,
        // so it cannot warm the server's caches.
        let mut expected = match (&mut self.layers, answer_hit) {
            (Some(layers), false) => Some(expected_answer(
                &mut self.server,
                &mut self.models[p % BACKENDS],
                Some(layers),
                backend,
                question,
                cached.as_deref(),
            )),
            _ => None,
        };
        let start = Instant::now();
        let response = self.server.handle(&inputs.queries[p]);
        let elapsed = start.elapsed();
        if self.record_queries {
            let scaled = self.speed.scale(elapsed);
            self.rec.query_ms.push((scaled * 1e3) as f32);
            self.rec.query_s += scaled;
            self.rec.raw_query += elapsed;
        }
        if let Some(layers) = &mut self.layers {
            layers.query_time += elapsed;
        }
        self.check.attempted += 1;
        self.note_requests(1);
        let reply = match response {
            Ok(Response::Answered(reply)) => reply,
            other => {
                self.check.fail(|| format!("query {p}: {other:?}"));
                return;
            }
        };
        self.check.replies += 1;
        self.check.absorb(&reply.answer);
        if reply.answer.starts_with("error: ") {
            self.check.error_replies += 1;
        }
        if reply.cache != predicted || reply.epoch != epoch {
            self.check.fail(|| {
                format!(
                    "query {p} at epoch {epoch}: expected a {} at epoch {epoch}, got a {} at epoch {}",
                    predicted.tag(),
                    reply.cache.tag(),
                    reply.epoch
                )
            });
        }
        let matches = if answer_hit {
            self.last[p].as_ref().map(|(_, a)| a) == Some(&reply.answer)
        } else if !self.fresh_gate {
            true
        } else {
            let expected = expected.get_or_insert_with(|| {
                expected_answer(
                    &mut self.server,
                    &mut self.models[p % BACKENDS],
                    None,
                    backend,
                    question,
                    cached.as_deref(),
                )
            });
            *expected == reply.answer
        };
        if !matches {
            self.check.fail(|| {
                format!(
                    "query {p} ({}) at epoch {epoch}: reply {:?} differs from a fresh execution",
                    reply.cache.tag(),
                    clip(&reply.answer)
                )
            });
        }
        self.last[p] = Some((epoch, reply.answer));
    }

    /// Drops the server and recovers it from its store `reps` times;
    /// every recovery must land at the last acknowledged epoch.
    pub fn restart(mut self, reps: usize) -> Result<(Bench<'a>, Recovery), String> {
        let acked = self.epoch();
        if self.spec.shards > 1 {
            // Sharded recovery probes `shard-0` on the real filesystem
            // before it opens any store through the Vfs; mirror the
            // occupancy the in-memory store has.
            let probe = self.root.join("shard-0");
            std::fs::create_dir_all(&probe)
                .and_then(|()| std::fs::write(probe.join("in-memory-store"), b""))
                .map_err(|e| format!("marking {}: {e}", probe.display()))?;
        }
        let mut seconds = Vec::new();
        let mut cpu_relative = Vec::new();
        let mut factor = 1.0;
        let mut reports = Vec::new();
        let tracer = Tracer::new();
        let inputs = self.inputs;
        for i in 0..reps {
            if start_group_if_due(i, reps, RECOVERY_GROUPS) {
                let relative = cpu_relative_time();
                factor = 1.0 / relative;
                cpu_relative.push(relative);
                seconds.push(f64::INFINITY);
            }
            drop(self.server);
            let created = std::cell::Cell::new(false);
            let builder = builder(self.spec, &self.fs, &self.root, &tracer);
            let sessions = sessions();
            let start = Instant::now();
            let (server, recovered) = builder
                .recover_or_create(sessions, || {
                    created.set(true);
                    LiveNetwork::from_workload(&inputs.workload)
                })
                .map_err(|e| format!("recovering the server: {e}"))?;
            let took = start.elapsed().as_secs_f64() * factor;
            if let Some(fastest) = seconds.last_mut() {
                *fastest = took.min(*fastest);
            }
            self.server = server;
            reports = recovered;
            self.check.attempted += 1;
            if created.get() {
                self.check
                    .fail(|| "recovery found no store and built a fresh one".to_string());
            } else if self.epoch() != acked {
                let got = self.epoch();
                self.check
                    .fail(|| format!("recovered epoch {got}, last acknowledged {acked}"));
            }
        }
        self.tracer = tracer;
        self.last = vec![None; PAIRS];
        let recovery = Recovery {
            seconds,
            reps,
            cpu_relative,
            reports,
        };
        Ok((self, recovery))
    }

    /// Asks every pair once more and compares each reply byte for byte
    /// with `before`, the gated answers at the same epoch before the
    /// restart (so a fresh execution would add nothing).
    pub fn compare_round(&mut self, before: &[String]) {
        self.fresh_gate = false;
        let after = self.round();
        self.fresh_gate = true;
        for (p, (a, b)) in after.iter().zip(before).enumerate() {
            self.check.attempted += 1;
            if a != b {
                self.check.fail(|| {
                    format!(
                        "pair {p} after restart: {:?}, before: {:?}",
                        clip(a),
                        clip(b)
                    )
                });
            }
        }
    }
}

/// Whether repetition `i` of `reps` opens a group; it sleeps for the
/// pause first unless it opens the first.
fn start_group_if_due(i: usize, reps: usize, (groups, pause): (usize, Duration)) -> bool {
    if i == 0 {
        return true;
    }
    let opens = i * groups / reps != (i - 1) * groups / reps;
    if opens {
        std::thread::sleep(pause);
    }
    opens
}

fn clip(text: &str) -> String {
    text.chars().take(160).collect()
}

fn render(outcome: Result<nemo_core::Outcome, SandboxError>) -> String {
    match outcome {
        Ok(outcome) => outcome.value.render(),
        Err(e) => format!("error: {e}"),
    }
}

/// The reply the server must give for a pair it will execute: a fresh
/// `execute_code` of the program — the cached one, or on a miss the one
/// the model writes — on the merged view's state. With `layers`, each
/// layer's public function is timed on the way.
fn expected_answer(
    server: &mut Server<SimulatedLlm>,
    model: &mut SimulatedLlm,
    mut layers: Option<&mut Layers>,
    backend: Backend,
    question: &str,
    cached: Option<&str>,
) -> String {
    let epoch = server.network().global_epoch();
    let shards = server.network().shards();
    let start = Instant::now();
    let view = server.merged_view();
    if let Some(layers) = layers.as_deref_mut() {
        layers.merged_view(epoch, shards, start.elapsed());
    }
    let written;
    let program = match cached {
        Some(program) => program,
        None => {
            let start = Instant::now();
            let prompt = codegen_prompt(view, backend, question);
            let built = Instant::now();
            let response = model.complete(&prompt.text);
            if let Some(layers) = layers.as_deref_mut() {
                layers.own("prompt.build", Some(backend), built - start);
                layers.own("llm.complete", Some(backend), built.elapsed());
            }
            match extract_code(&response.text) {
                Some(code) => {
                    written = code;
                    &written
                }
                None => return render(Err(SandboxError::NoCode)),
            }
        }
    };
    let start = Instant::now();
    let state = view.state(backend);
    let copied = Instant::now();
    let outcome = execute_code(backend, program, &state);
    if let Some(layers) = layers {
        layers.own("live.state_copy", Some(backend), copied - start);
        layers.own("sandbox.execute", Some(backend), copied.elapsed());
        layers.split_execution(backend, program, &state);
    }
    render(outcome)
}
