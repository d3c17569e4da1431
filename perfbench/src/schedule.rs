//! The three traffic shapes and their seeded request schedules.
//!
//! A schedule is a fixed function of `(workload, seed, seconds)`: the
//! `--seconds` budget sizes it through a nominal rate per workload (work
//! that takes about that long on a 2-core Xeon at the commit that defined
//! the benchmark). A faster or slower program does the same work, so two
//! commits are always compared on identical inputs.

use std::ops::Range;

/// Traffic questions in the suite (`nemo_bench::traffic_queries`).
pub const QUESTIONS: usize = 24;
/// Code-generation backends, one client session each.
pub const BACKENDS: usize = 3;
/// (question, backend) pairs: pair `p` asks question `p / 3` as client `p % 3`.
pub const PAIRS: usize = QUESTIONS * BACKENDS;

/// Which traffic shape a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every pair once per round, a small mutation batch before each round.
    Dashboard,
    /// Long runs of synced mutation batches, one query per backend between.
    Churn,
    /// Zipf-popular queries, a mutation batch about every 10k queries.
    Poll,
}

/// One workload: the genesis network, the server layout and the shape.
#[derive(Debug)]
pub struct Spec {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Genesis endpoints.
    pub nodes: usize,
    /// Genesis flows.
    pub edges: usize,
    /// Distinct /16 prefixes the endpoints spread over.
    pub prefixes: usize,
    /// Hash partitions of the live state.
    pub shards: u32,
    /// Snapshot trigger, in epochs, of every store.
    pub snapshot_every_epochs: u64,
    /// Mutations per synced batch.
    pub batch: usize,
    /// The traffic shape.
    pub shape: Shape,
    /// Percentile of `query_tail_ms`: the highest of p90, p95, p99 and
    /// p99.9 with at least ten samples beyond it in a 10-second run.
    pub query_tail_pct: f64,
    /// Percentile of `mutate_ack_tail_ms`, chosen the same way.
    pub ack_tail_pct: f64,
    /// Server builds per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Recoveries per run; `recovery_s` is the fastest.
    pub recovery_reps: usize,
}

/// The workloads, by name.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "dashboard_10k",
        nodes: 10_000,
        edges: 20_000,
        prefixes: 6,
        shards: 1,
        snapshot_every_epochs: 1024,
        batch: 4,
        shape: Shape::Dashboard,
        query_tail_pct: 90.0,
        ack_tail_pct: 95.0,
        setup_reps: 7,
        recovery_reps: 7,
    },
    Spec {
        name: "churn_4shard_1k",
        nodes: 1_000,
        edges: 2_000,
        prefixes: 6,
        shards: 4,
        // Low enough that every shard writes and sweeps several
        // snapshots per run.
        snapshot_every_epochs: 128,
        batch: 8,
        shape: Shape::Churn,
        query_tail_pct: 95.0,
        ack_tail_pct: 99.9,
        setup_reps: 15,
        recovery_reps: 15,
    },
    Spec {
        // `TrafficConfig::default()`'s network.
        name: "poll_80",
        nodes: 80,
        edges: 80,
        prefixes: 6,
        shards: 1,
        snapshot_every_epochs: 1024,
        batch: 4,
        shape: Shape::Poll,
        query_tail_pct: 99.9,
        ack_tail_pct: 95.0,
        setup_reps: 61,
        recovery_reps: 61,
    },
];

/// Dashboard rounds per second of `--seconds` (a 10k-node round of 72
/// queries takes about five seconds).
const DASHBOARD_ROUNDS_PER_S: f64 = 0.2;
/// Batches the dashboard spreads over its warm-up round: enough acks for
/// a steady p90, spread over seconds rather than one burst, and few
/// enough (800 mutations) that no snapshot falls due.
const DASHBOARD_WARMUP_BATCHES: usize = 200;
/// Churn rotations per second of `--seconds`: in one rotation each
/// backend asks every question once, one query per backend after about
/// 256 mutations.
const CHURN_ROTATIONS_PER_S: f64 = 0.4;
/// Poll queries per second of `--seconds`.
const POLL_QUERIES_PER_S: f64 = 150_000.0;
/// Zipf exponent of the poll popularity.
const POLL_ZIPF_S: f64 = 1.0;
/// Seeds which pair holds which popularity rank. Fixed, so every seed
/// polls the same mix of cheap and costly pairs.
const POLL_POPULARITY_SEED: u64 = 80;

/// One schedule step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The next `Spec::batch` mutations, then `Sync` and a store sweep.
    Batch,
    /// Ask pair `p`.
    Query(u8),
}

/// A workload's seeded schedule.
#[derive(Debug)]
pub struct Schedule {
    /// The warm-up: every pair once, untimed, to fill the program cache;
    /// the dashboard interleaves its timed write stream.
    pub warmup: Vec<Op>,
    /// The timed steps.
    pub timed: Vec<Op>,
    /// Mutations the prelude and the timed steps consume, in order.
    pub mutations: usize,
}

/// SplitMix64: a small seeded generator for the schedule's choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed` and a per-use tag.
    pub fn new(seed: u64, tag: u64) -> Rng {
        Rng(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `range`.
    pub fn in_range(&mut self, range: Range<usize>) -> usize {
        range.start + (self.next_u64() % (range.end - range.start) as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `0..n` in a seeded order.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut items: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            items.swap(i, self.in_range(0..i + 1));
        }
        items
    }
}

fn scaled(seconds: u64, per_second: f64, at_least: usize) -> usize {
    ((seconds as f64 * per_second).round() as usize).max(at_least)
}

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// The seeded schedule for a `seconds`-long run.
    pub fn schedule(&self, seed: u64, seconds: u64) -> Schedule {
        let mut rng = Rng::new(seed, 0x5c4e_d01e);
        let mut warmup: Vec<Op> = (0..PAIRS).map(|p| Op::Query(p as u8)).collect();
        let mut timed = Vec::new();
        match self.shape {
            Shape::Dashboard => {
                warmup = (0..PAIRS)
                    .flat_map(|p| {
                        let batches = DASHBOARD_WARMUP_BATCHES * (p + 1) / PAIRS
                            - DASHBOARD_WARMUP_BATCHES * p / PAIRS;
                        std::iter::once(Op::Query(p as u8))
                            .chain(std::iter::repeat_n(Op::Batch, batches))
                    })
                    .collect();
                for _ in 0..scaled(seconds, DASHBOARD_ROUNDS_PER_S, 2) {
                    timed.push(Op::Batch);
                    timed.extend(
                        rng.permutation(PAIRS)
                            .into_iter()
                            .map(|p| Op::Query(p as u8)),
                    );
                }
            }
            Shape::Churn => {
                for _ in 0..scaled(seconds, CHURN_ROTATIONS_PER_S, 1) {
                    let orders: Vec<Vec<usize>> =
                        (0..BACKENDS).map(|_| rng.permutation(QUESTIONS)).collect();
                    for k in 0..QUESTIONS {
                        // 28..=36 batches of 8: about 256 mutations.
                        let batches = rng.in_range(28..37);
                        timed.extend(std::iter::repeat_n(Op::Batch, batches));
                        for (client, order) in orders.iter().enumerate() {
                            timed.push(Op::Query((order[k] * BACKENDS + client) as u8));
                        }
                    }
                }
            }
            Shape::Poll => {
                // Popularity rank r (0-based) has weight 1 / (r + 1)^s.
                let ranked = Rng::new(POLL_POPULARITY_SEED, 0x2a).permutation(PAIRS);
                let weights: Vec<f64> = (0..PAIRS)
                    .map(|r| 1.0 / ((r + 1) as f64).powf(POLL_ZIPF_S))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut cdf = Vec::with_capacity(PAIRS);
                let mut acc = 0.0;
                for w in &weights {
                    acc += w / total;
                    cdf.push(acc);
                }
                let queries = scaled(seconds, POLL_QUERIES_PER_S, 20_000);
                let mut until_batch = rng.in_range(9_000..11_001);
                for _ in 0..queries {
                    if until_batch == 0 {
                        timed.push(Op::Batch);
                        until_batch = rng.in_range(9_000..11_001);
                    }
                    until_batch -= 1;
                    let u = rng.unit();
                    let rank = cdf.partition_point(|&c| c <= u).min(PAIRS - 1);
                    timed.push(Op::Query(ranked[rank] as u8));
                }
            }
        }
        let batches = warmup
            .iter()
            .chain(&timed)
            .filter(|op| **op == Op::Batch)
            .count();
        Schedule {
            warmup,
            timed,
            mutations: batches * self.batch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_a_function_of_the_seed() {
        for spec in &SPECS {
            let a = spec.schedule(7, 2);
            let b = spec.schedule(7, 2);
            assert_eq!(a.timed, b.timed);
            assert_eq!(a.mutations, b.mutations);
            assert_ne!(spec.schedule(8, 2).timed, a.timed, "{}", spec.name);
        }
    }

    #[test]
    fn dashboard_rounds_ask_every_pair_once() {
        let schedule = SPECS[0].schedule(1, 10);
        let round: Vec<Op> = schedule.timed[1..=PAIRS].to_vec();
        assert_eq!(
            schedule
                .warmup
                .iter()
                .filter(|op| **op == Op::Batch)
                .count(),
            200
        );
        let mut asked: Vec<u8> = round
            .iter()
            .map(|op| match op {
                Op::Query(p) => *p,
                Op::Batch => panic!("a round holds only queries"),
            })
            .collect();
        asked.sort_unstable();
        assert_eq!(asked, (0..PAIRS as u8).collect::<Vec<_>>());
    }
}
