//! Host-time measurement.
//!
//! Calls too short and too frequent to span are sampled: one call in
//! about `period` is timed, and the timer's own cost is measured up front
//! and subtracted. Without the subtraction a clock read (tens of
//! nanoseconds) swamps a register-file call (a few nanoseconds), and the
//! register file would be charged for most of the host time.
//!
//! Whole operations are timed in host seconds together with a reference
//! loop timed just before them (see [`reference_s`]), which gives the
//! host seconds adjusted to a quiet host ([`Timed::adjusted`]) that the
//! gated metrics use.

use std::cell::Cell;
use std::time::Instant;

/// What one timed call costs beyond the call itself.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// Nanoseconds an empty timed interval reads: subtracted from every
    /// timed call.
    pub inside_ns: f64,
    /// Nanoseconds one timed call adds to the enclosing run: two clock
    /// reads and the bookkeeping, subtracted from traced run times.
    pub total_ns: f64,
}

impl TimerCost {
    /// Measures the timer on this host: the median of many empty
    /// intervals, and the mean cost of a timed empty call.
    pub fn calibrate() -> Self {
        const N: usize = 20_000;
        let mut reads: Vec<u64> = (0..N)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        reads.sort_unstable();
        let inside_ns = reads[N / 2] as f64;
        let probe = Sampler::new(
            1,
            TimerCost {
                inside_ns,
                total_ns: 0.0,
            },
        );
        let start = Instant::now();
        for _ in 0..N {
            probe.call(|| std::hint::black_box(()));
        }
        let total_ns = start.elapsed().as_nanos() as f64 / N as f64;
        Self {
            inside_ns,
            total_ns,
        }
    }
}

/// Times about one call in `period`, at a jittered stride so periodic
/// call patterns (a fixed sequence of hooks per simulated cycle) cannot
/// alias with the sampling.
#[derive(Debug)]
pub struct Sampler {
    period: u32,
    cost: TimerCost,
    countdown: Cell<u32>,
    rng: Cell<u32>,
    calls: Cell<u64>,
    timed: Cell<u64>,
    timed_ns: Cell<f64>,
}

impl Sampler {
    /// A sampler timing one call in about `period` (`period >= 1`).
    pub fn new(period: u32, cost: TimerCost) -> Self {
        let period = period.max(1);
        Self {
            period,
            cost,
            countdown: Cell::new(1),
            rng: Cell::new(0x2545_f491),
            calls: Cell::new(0),
            timed: Cell::new(0),
            timed_ns: Cell::new(0.0),
        }
    }

    fn next_stride(&self) -> u32 {
        if self.period == 1 {
            return 1;
        }
        // xorshift32; stride uniform in [1, 2·period - 1], mean `period`.
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.rng.set(x);
        1 + x % (2 * self.period - 1)
    }

    /// Runs `f`, timing it if this call is sampled.
    #[inline(always)]
    pub fn call<T>(&self, f: impl FnOnce() -> T) -> T {
        self.calls.set(self.calls.get() + 1);
        let left = self.countdown.get() - 1;
        if left > 0 {
            self.countdown.set(left);
            return f();
        }
        self.countdown.set(self.next_stride());
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        self.timed.set(self.timed.get() + 1);
        self.timed_ns
            .set(self.timed_ns.get() + ns - self.cost.inside_ns);
        out
    }

    /// Estimated host seconds spent inside the calls (never negative).
    pub fn estimated_s(&self) -> f64 {
        let timed = self.timed.get();
        if timed == 0 {
            return 0.0;
        }
        let per_call = self.timed_ns.get() / timed as f64;
        (per_call * self.calls.get() as f64 / 1e9).max(0.0)
    }

    /// Host seconds the timed calls' clock reads added to the enclosing
    /// run.
    pub fn timer_overhead_s(&self) -> f64 {
        self.timed.get() as f64 * self.cost.total_ns / 1e9
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Iterations of the reference loop: 1.05-1.5 ms on a 2-CPU host.
const REFERENCE_ITERS: u32 = 200_000;

/// The reference loop's time on a quiet host, to which
/// [`quiet_host_factor`] scales: a little under the fastest seen on a
/// 2-CPU host.
const QUIET_REFERENCE_S: f64 = 1e-3;

/// Host seconds one run of the reference loop takes now.
///
/// The loop is the benchmark's own code, so no change to the program
/// moves it: it tracks only how fast the host runs this thread at this
/// moment. On a shared 2-CPU host that speed drifted with the other
/// tenants' load by up to 2x between runs minutes apart, and every
/// operation of the program drifted with it. The loop is a xorshift walk
/// over an 8 KiB table with an unpredictable branch: of the loops tried
/// (larger tables, independent walks, a multiply chain, a large code
/// footprint, pointer chases, `HashMap` lookups), its time followed the
/// simulator's most steadily.
pub fn reference_s() -> f64 {
    let mut table = vec![0u64; 1024];
    let iters = std::hint::black_box(REFERENCE_ITERS);
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (table.len() - 1);
        if x & 1 == 0 {
            table[i] = table[i].wrapping_add(x);
        } else {
            acc ^= table[i];
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// One timed run of an operation.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Host seconds of the operation.
    pub secs: f64,
    /// Host seconds of the reference loop run just before it.
    pub reference: f64,
}

impl Timed {
    /// Times `f`, running the reference loop first.
    pub fn run<T>(f: impl FnOnce() -> T) -> (T, Self) {
        let reference = reference_s();
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        (out, Self { secs, reference })
    }

    /// Host seconds.
    pub fn secs(&self) -> f64 {
        self.secs
    }

    /// Host seconds adjusted to a quiet host (see [`quiet_host_factor`]).
    pub fn adjusted(&self) -> f64 {
        self.secs * quiet_host_factor(self.reference)
    }
}

/// How steeply the program's time follows the reference loop's, as a
/// power: see [`quiet_host_factor`].
const SLOWDOWN_EXPONENT: f64 = 1.75;

/// What host seconds measured just after a `reference`-second run of the
/// reference loop are multiplied by to adjust them to a quiet host, one
/// on which the loop takes [`QUIET_REFERENCE_S`]: `(QUIET_REFERENCE_S /
/// reference)^SLOWDOWN_EXPONENT`.
///
/// The exponent is measured, not assumed. On a shared 2-CPU host, over
/// eleven sets of six to ten runs, the simulator's total time grew as
/// the loop's time to the power 1.6-2.1 (correlation 0.86-1.00); over
/// three sets of ten runs the individual metrics grew with powers from
/// 1.3 (the functional executor) to 2.1 (the sampled runs). 1.75 is the
/// middle of that range; dividing by the loop's time alone would leave
/// about half of the host's drift in. The same operation therefore reads
/// about the same however loaded the host is, while no change to the
/// program moves the loop.
pub fn quiet_host_factor(reference: f64) -> f64 {
    ratio(QUIET_REFERENCE_S, reference).powf(SLOWDOWN_EXPONENT)
}

/// Set-ups timed between two rounds (`setup_s` is their median, adjusted
/// to a quiet host).
pub const SETUPS_PER_ROUND: usize = 10;

/// The median of `runs` host-second samples of one operation (the mean
/// of the middle two for an even count); `None` when there are none.
///
/// On a shared host the other tenants' load slows most runs by a similar
/// amount and leaves a few short stretches uncontended. The fastest run
/// measures only whether such a stretch happened to fall in this run, so
/// it moves with luck and with the number of runs; the median measures
/// the speed of most runs and does not.
pub fn median(runs: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut v: Vec<f64> = runs.into_iter().collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Instructions per unit of time over `(instructions, time)` operations.
pub fn rate(ops: impl IntoIterator<Item = (u64, f64)>) -> f64 {
    let (insts, time) = ops
        .into_iter()
        .fold((0u64, 0.0f64), |(i, s), (oi, os)| (i + oi, s + os));
    ratio(insts as f64, time)
}
