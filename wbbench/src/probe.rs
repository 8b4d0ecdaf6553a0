//! Host probe: two fixed micro-loops timed before and after every run.
//!
//! On a shared VM, neighbouring tenants contend for memory bandwidth in
//! phases that last seconds. An ALU-only loop stays flat through them,
//! a random walk over 64 MiB slows down. Recording both beside a run's
//! metrics ties a set of runs that disagrees to the host phase it ran
//! in. These are diagnostics, never end-to-end metrics.

use std::hint::black_box;
use std::time::Instant;

const WALK_BYTES: usize = 64 << 20;
const WALK_STEPS: usize = 2 << 20;
const ALU_STEPS: u64 = 40_000_000;

/// A 64 MiB single-cycle permutation to chase.
pub struct HostProbe {
    next: Vec<u32>,
}

/// One probe reading.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Fixed xorshift-multiply loop, milliseconds.
    pub alu_ms: f64,
    /// Dependent loads over 64 MiB, milliseconds.
    pub walk_ms: f64,
}

impl HostProbe {
    /// Build the walk (Sattolo's algorithm: one cycle over every slot,
    /// so the walk never settles into a cache-sized loop).
    pub fn new(seed: u64) -> HostProbe {
        let n = WALK_BYTES / std::mem::size_of::<u32>();
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut rng = iwb_rng::StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            let j = (rng.next_u64() % i as u64) as usize;
            next.swap(i, j);
        }
        HostProbe { next }
    }

    /// Time both loops once.
    pub fn read(&self) -> Reading {
        let t = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        for _ in 0..ALU_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
        black_box(x);
        let alu_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let mut at = black_box(0usize);
        for _ in 0..WALK_STEPS {
            at = self.next[at] as usize;
        }
        black_box(at);
        let walk_ms = t.elapsed().as_secs_f64() * 1e3;
        Reading { alu_ms, walk_ms }
    }
}
