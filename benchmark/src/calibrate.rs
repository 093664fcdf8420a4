//! The host's speed, measured on fixed code.
//!
//! Other tenants of the host change how fast its CPUs run, for seconds at
//! a time and over minutes. A calibration times a fixed kernel that
//! belongs to the benchmark, not to the program, so no change to the
//! program moves it: a scanning First Fit over a seeded stream of 12 000
//! items, with a binary heap of departures and a hash map of sessions,
//! the same kind of work as the measured phases. Its rate over
//! [`REFERENCE_PER_S`] is the host's speed at that moment.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Items the kernel packs.
const ITEMS: u64 = 12_000;

/// Kernel runs per second at the reference speed: the typical rate on the
/// 2-vCPU `Intel(R) Xeon(R) Processor` virtual machine the benchmark was
/// built on (2.5 ms a run).
pub const REFERENCE_PER_S: f64 = 400.0;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Pack a fixed stream (sizes 1..=60 of 100, sessions up to 2000 ticks,
/// one arrival every 2 ticks) with a scanning First Fit. Returns the bins
/// opened.
fn kernel() -> usize {
    let mut rng = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut levels: Vec<u32> = Vec::new();
    let mut ends: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut sessions: HashMap<u64, (usize, u32)> = HashMap::new();
    for id in 0..ITEMS {
        let now = id * 2;
        while let Some(&Reverse((end, who))) = ends.peek() {
            if end > now {
                break;
            }
            ends.pop();
            let (bin, size) = sessions.remove(&who).expect("every session departs once");
            levels[bin] -= size;
        }
        let size = 1 + (xorshift(&mut rng) % 60) as u32;
        let bin = match levels.iter().position(|&l| l + size <= 100) {
            Some(bin) => bin,
            None => {
                levels.push(0);
                levels.len() - 1
            }
        };
        levels[bin] += size;
        sessions.insert(id, (bin, size));
        ends.push(Reverse((now + 1 + xorshift(&mut rng) % 2000, id)));
    }
    levels.len()
}

/// Back-to-back kernel runs per calibration.
const RUNS: usize = 3;

/// The host's speed now, relative to the reference: the fastest of
/// [`RUNS`] back-to-back kernel runs, so that a preemption of a few
/// milliseconds inside one run does not count as the host's state.
pub fn speed() -> f64 {
    let fastest = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed()
        })
        .min()
        .expect("RUNS > 0");
    1.0 / (fastest.as_secs_f64() * REFERENCE_PER_S)
}
