//! Host-speed calibration.
//!
//! On a shared virtual machine, memory-heavy code runs up to a third
//! slower for seconds at a time while neighbours load the host's caches
//! and memory; compute-bound code barely notices. The benchmark therefore
//! times a fixed memory kernel every quarter second and scales each timed
//! interval by the kernel's nominal over its recent duration, so drift
//! that slows the kernel and the server alike cancels.
//!
//! The kernel runs in a child process (this binary with `--calibrate`),
//! between requests and never inside a timed interval: fresh pages and a
//! fresh allocator, so nothing the server does to its own heap or caches
//! can move the reading.
//!
//! Recovery is the exception. On these stores it is milliseconds of
//! cache-resident work, page faults and memory bandwidth play no part,
//! and its speed follows whatever shares the core, which the memory
//! kernel does not see. Recoveries are scaled instead by a compute kernel
//! run on the benchmark's own thread just before them
//! ([`cpu_relative_time`]).

use std::hint::black_box;
use std::process::Command;
use std::time::{Duration, Instant};

/// Time between calibrations.
const EVERY: Duration = Duration::from_millis(250);
/// Readings the running speed is the median of.
const WINDOW: usize = 5;
/// Kernel runs per reading; the reading is their median.
const RUNS: usize = 5;
/// The kernel's median duration on a quiet 2-vCPU Xeon VM. Scaled times
/// read in seconds at that speed.
const NOMINAL: Duration = Duration::from_micros(6500);
/// Words of the kernel's buffers: 4 MiB each, past the private caches.
const WORDS: usize = 1 << 19;
/// Small heap objects the kernel copies.
const STRINGS: usize = 4096;
/// Steps of the kernel's dependent walk.
const STEPS: usize = 1 << 11;

/// One run of the kernel: fill fresh pages, copy them, copy many small
/// heap objects, then walk the copy with dependent loads. Allocation,
/// bandwidth and latency: the costs the host's load moves.
fn kernel(strings: &[String]) -> u64 {
    let mut src = vec![0u64; WORDS];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for word in src.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *word = x;
    }
    let copy = src.clone();
    let objects = black_box(strings.to_vec());
    let mut at = objects.len() % WORDS;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        let v = copy[at];
        acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ v;
        at = (v as usize ^ (acc as usize & 7)) % WORDS;
    }
    acc
}

/// The `--calibrate` child: prints the median kernel time in seconds.
pub fn calibrate_child() {
    let strings: Vec<String> = (0..STRINGS)
        .map(|i| format!("10.{}.{}.{}:calibration", i % 7, i % 251, i))
        .collect();
    let mut runs: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(kernel(&strings));
            start.elapsed().as_secs_f64()
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    println!("{}", runs[RUNS / 2]);
}

/// Runs the kernel in a child process and waits for its reading.
fn read_kernel() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .arg("--calibrate")
        .output()
        .map_err(|e| format!("running the calibration kernel: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| format!("the calibration kernel failed: {}", out.status))
}

/// About the compute kernel's fastest run on a 2-vCPU Xeon VM.
const CPU_NOMINAL: Duration = Duration::from_micros(500);
/// Compute kernel runs per reading; the reading is the fastest.
const CPU_RUNS: usize = 5;
/// Steps of the compute kernel's mixing loop.
const CPU_STEPS: usize = 20_000;
/// Words of its table: 4 KiB, inside the first-level cache.
const CPU_TABLE: usize = 512;
/// Short strings it formats, copies and sorts.
const CPU_STRINGS: usize = 2000;

/// One run of the compute kernel: a branchy mixing loop over an L1-sized
/// table, then small strings formatted, copied and sorted. Integer work,
/// branches and small allocations, all in cache: the costs of a
/// recovery from a small store.
fn cpu_kernel() -> u64 {
    let mut table = [0u64; CPU_TABLE];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut acc = 0u64;
    for _ in 0..CPU_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = x as usize % CPU_TABLE;
        table[j] = table[j].wrapping_add(x ^ table[(j * 7 + 3) % CPU_TABLE]);
        if x & 3 == 0 {
            acc = acc.wrapping_add(table[j]);
        } else {
            acc ^= x;
        }
    }
    let strings: Vec<String> = (0..CPU_STRINGS)
        .map(|i| format!("10.{}.{}:{}", i % 7, i % 251, acc % 97 + i as u64))
        .collect();
    let mut sorted = black_box(strings.clone());
    sorted.sort();
    acc ^ sorted.len() as u64 ^ table[0]
}

/// Times the compute kernel on this thread: its fastest run relative to
/// nominal. A compute-bound interval measured now, divided by this, reads
/// in seconds at the kernel's nominal speed.
pub fn cpu_relative_time() -> f64 {
    let fastest = (0..CPU_RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(cpu_kernel());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    fastest / CPU_NOMINAL.as_secs_f64()
}

/// The running speed estimate.
#[derive(Debug)]
pub struct Speed {
    recent: [f64; WINDOW],
    next: usize,
    last: Instant,
    factor: f64,
    /// Every reading, relative to nominal, for the facts.
    pub samples: Vec<f64>,
    /// Why a reading failed, if one did; the run is then refused.
    pub error: Option<String>,
}

impl Speed {
    /// Takes the first readings.
    pub fn new() -> Speed {
        let mut speed = Speed {
            recent: [1.0; WINDOW],
            next: 0,
            last: Instant::now(),
            factor: 1.0,
            samples: Vec::new(),
            error: None,
        };
        speed.settle();
        speed
    }

    /// Refreshes every reading in the window, ahead of a long timed step.
    pub fn settle(&mut self) {
        for _ in 0..WINDOW {
            self.calibrate();
        }
    }

    /// Takes one reading and updates the running speed.
    pub fn calibrate(&mut self) {
        match read_kernel() {
            Ok(seconds) => self.record(seconds),
            Err(e) => {
                self.error.get_or_insert(e);
            }
        }
    }

    fn record(&mut self, seconds: f64) {
        let relative = seconds / NOMINAL.as_secs_f64();
        self.samples.push(relative);
        self.recent[self.next % WINDOW] = relative;
        self.next += 1;
        let mut sorted = self.recent;
        sorted.sort_by(f64::total_cmp);
        self.factor = 1.0 / sorted[WINDOW / 2];
        self.last = Instant::now();
    }

    /// Takes a reading if the last one is stale.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.calibrate();
        }
    }

    /// An interval in reference-speed seconds.
    pub fn scale(&self, took: Duration) -> f64 {
        took.as_secs_f64() * self.factor
    }
}
