//! The reference kernel: a fixed piece of work, independent of the
//! engine, that the benchmark times through each run to see how fast the
//! host is running.
//!
//! On a shared host the same code runs tens of percent slower or faster
//! from one minute to the next. Scaling a run's CPU and latency figures by
//! the kernel's cost in the same run cancels that drift, and leaves what
//! the engine's code changes. The kernel is table-lookup rounds like a
//! block cipher's, the work that dominates the engine's ops (node
//! re-seal, key disguise). Sampled through a run, its speed followed the
//! engine's better than page copies, heap allocation or dependent loads
//! over 4 MiB, each of which was noisier than the engine itself. It lives
//! here, not in the engine, so no engine change can move it.

use std::hint::black_box;

use crate::gen::Rng;

/// Thread CPU time of one kernel burst on an unloaded 2-vCPU Xeon host:
/// the scale that turns "engine time per kernel burst" back into
/// microseconds.
pub const NOMINAL_US: f64 = 2_000.0;

/// Rounds per burst.
const ROUNDS: usize = 250_000;

/// Eight 256-entry tables of random 64-bit words (16 KiB, L1-resident).
pub struct Kernel {
    sbox: Vec<u64>,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds this process has used, every thread included (ns precise).
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used.
fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

impl Kernel {
    /// Builds the tables from a fixed seed, the same in every run.
    pub fn new() -> Kernel {
        let mut rng = Rng::new(0x5EED_CA11_B8A7_E000);
        Kernel {
            sbox: (0..8 * 256).map(|_| rng.next_u64()).collect(),
        }
    }

    fn work(&self) -> u64 {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..ROUNDS {
            let mut y = 0u64;
            for b in 0..8 {
                y ^= self.sbox[b * 256 + ((x >> (8 * b)) & 0xFF) as usize];
            }
            x ^= y.rotate_left(13);
        }
        x
    }

    /// Runs the kernel once; returns the thread CPU seconds it took.
    pub fn burst(&self) -> f64 {
        let c0 = thread_cpu_s();
        black_box(self.work());
        thread_cpu_s() - c0
    }
}
