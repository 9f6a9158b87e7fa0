//! A delegating [`IntRegFile`] + [`RegFileBackend`] wrapper that counts
//! every call into the register file and times about one call in
//! [`CALL_TIMING_PERIOD`]. `Simulator<Counting<R>>` retires the same
//! instructions in the same cycles as `Simulator<R>`: the wrapper only
//! observes.

use crate::timing::{Sampler, TimerCost};
use carf_core::{
    AccessStats, CarfParams, IntRegFile, LongFileFull, Policies, SubfileOccupancy, ValueClass,
};
use carf_sim::{RegFileBackend, SimConfig};
use std::cell::Cell;

/// About one register-file call in this many is timed.
pub const CALL_TIMING_PERIOD: u32 = 64;

/// Every [`IntRegFile`] method, in trait order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Op {
    NumTags,
    OnAlloc,
    TryWrite,
    Read,
    Peek,
    ClassOf,
    Release,
    ObserveAddress,
    RobIntervalTick,
    ShouldStallIssue,
    ReadStages,
    WritebackStages,
    ExtraBypassLevel,
    SampleOccupancy,
    Stats,
    StatsMut,
    CarfParams,
    CarfPolicies,
    SetLongCapacityLimit,
    LongLiveCount,
    MeanShortOccupancy,
    OccupancyReport,
    ClassifyValue,
    ReadPortLimit,
    CaptureBufferHit,
}

impl Op {
    /// Every method, in trait order.
    pub const ALL: [Op; 25] = [
        Op::NumTags,
        Op::OnAlloc,
        Op::TryWrite,
        Op::Read,
        Op::Peek,
        Op::ClassOf,
        Op::Release,
        Op::ObserveAddress,
        Op::RobIntervalTick,
        Op::ShouldStallIssue,
        Op::ReadStages,
        Op::WritebackStages,
        Op::ExtraBypassLevel,
        Op::SampleOccupancy,
        Op::Stats,
        Op::StatsMut,
        Op::CarfParams,
        Op::CarfPolicies,
        Op::SetLongCapacityLimit,
        Op::LongLiveCount,
        Op::MeanShortOccupancy,
        Op::OccupancyReport,
        Op::ClassifyValue,
        Op::ReadPortLimit,
        Op::CaptureBufferHit,
    ];

    /// The per-instruction call rates the benchmark reports.
    pub const REPORTED: [(Op, &'static str); 7] = [
        (Op::TryWrite, "try_write"),
        (Op::Read, "read"),
        (Op::ClassOf, "class_of"),
        (Op::Release, "release"),
        (Op::ShouldStallIssue, "should_stall_issue"),
        (Op::SampleOccupancy, "sample_occupancy"),
        (Op::CaptureBufferHit, "capture_buffer_hit"),
    ];
}

/// Call counts and sampled host time of one wrapped register file.
#[derive(Debug)]
pub struct Meter {
    counts: [Cell<u64>; Op::ALL.len()],
    writes_accepted: Cell<u64>,
    sampler: Sampler,
}

impl Meter {
    fn new(cost: TimerCost) -> Self {
        Self {
            counts: Default::default(),
            writes_accepted: Cell::new(0),
            sampler: Sampler::new(CALL_TIMING_PERIOD, cost),
        }
    }

    #[inline(always)]
    fn call<T>(&self, op: Op, f: impl FnOnce() -> T) -> T {
        let c = &self.counts[op as usize];
        c.set(c.get() + 1);
        self.sampler.call(f)
    }

    /// Calls of `op` so far.
    pub fn count(&self, op: Op) -> u64 {
        self.counts[op as usize].get()
    }

    /// `try_write` calls that were accepted (did not return
    /// [`LongFileFull`]).
    pub fn writes_accepted(&self) -> u64 {
        self.writes_accepted.get()
    }

    /// Estimated host seconds spent inside the register file.
    pub fn self_s(&self) -> f64 {
        self.sampler.estimated_s()
    }

    /// Host seconds the timer itself added to the enclosing run.
    pub fn timer_overhead_s(&self) -> f64 {
        self.sampler.timer_overhead_s()
    }
}

/// The wrapper: a backend `R` plus a [`Meter`].
#[derive(Debug)]
pub struct Counting<R> {
    inner: R,
    meter: Meter,
}

impl<R> Counting<R> {
    /// Wraps `inner`, timing calls with the given timer cost.
    pub fn wrap(inner: R, cost: TimerCost) -> Self {
        Self {
            inner,
            meter: Meter::new(cost),
        }
    }

    /// The counters.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// Zeroes the counters and sets the timer cost. Called right after
    /// the simulator is built, so its 32 start-up register writes (which
    /// the simulator itself treats as bookkeeping) are not counted.
    pub fn reset_meter(&mut self, cost: TimerCost) {
        self.meter = Meter::new(cost);
    }
}

impl<R: RegFileBackend> RegFileBackend for Counting<R> {
    /// Builds the wrapped backend. The simulator constructs its backend
    /// itself, so the timer cost cannot be passed in here: call
    /// [`Counting::reset_meter`] once the simulator is built.
    fn from_config(config: &SimConfig) -> Self {
        Self::wrap(
            R::from_config(config),
            TimerCost {
                inside_ns: 0.0,
                total_ns: 0.0,
            },
        )
    }
}

impl<R: IntRegFile> IntRegFile for Counting<R> {
    fn num_tags(&self) -> usize {
        self.meter.call(Op::NumTags, || self.inner.num_tags())
    }

    fn on_alloc(&mut self, tag: usize) {
        self.meter.call(Op::OnAlloc, || self.inner.on_alloc(tag));
    }

    fn try_write(
        &mut self,
        tag: usize,
        value: u64,
        from_address_op: bool,
    ) -> Result<Option<ValueClass>, LongFileFull> {
        let out = self.meter.call(Op::TryWrite, || {
            self.inner.try_write(tag, value, from_address_op)
        });
        if out.is_ok() {
            self.meter
                .writes_accepted
                .set(self.meter.writes_accepted.get() + 1);
        }
        out
    }

    fn read(&mut self, tag: usize) -> u64 {
        self.meter.call(Op::Read, || self.inner.read(tag))
    }

    fn peek(&self, tag: usize) -> Option<u64> {
        self.meter.call(Op::Peek, || self.inner.peek(tag))
    }

    fn class_of(&self, tag: usize) -> Option<ValueClass> {
        self.meter.call(Op::ClassOf, || self.inner.class_of(tag))
    }

    fn release(&mut self, tag: usize) {
        self.meter.call(Op::Release, || self.inner.release(tag));
    }

    fn observe_address(&mut self, addr: u64) {
        self.meter
            .call(Op::ObserveAddress, || self.inner.observe_address(addr));
    }

    fn rob_interval_tick(&mut self) {
        self.meter
            .call(Op::RobIntervalTick, || self.inner.rob_interval_tick());
    }

    fn should_stall_issue(&self) -> bool {
        self.meter
            .call(Op::ShouldStallIssue, || self.inner.should_stall_issue())
    }

    fn read_stages(&self) -> u32 {
        self.meter.call(Op::ReadStages, || self.inner.read_stages())
    }

    fn writeback_stages(&self) -> u32 {
        self.meter
            .call(Op::WritebackStages, || self.inner.writeback_stages())
    }

    fn extra_bypass_level(&self) -> bool {
        self.meter
            .call(Op::ExtraBypassLevel, || self.inner.extra_bypass_level())
    }

    fn sample_occupancy(&mut self) {
        self.meter
            .call(Op::SampleOccupancy, || self.inner.sample_occupancy());
    }

    fn stats(&self) -> &AccessStats {
        self.meter.call(Op::Stats, || self.inner.stats())
    }

    fn stats_mut(&mut self) -> &mut AccessStats {
        self.meter.call(Op::StatsMut, || self.inner.stats_mut())
    }

    fn carf_params(&self) -> Option<&CarfParams> {
        self.meter.call(Op::CarfParams, || self.inner.carf_params())
    }

    fn carf_policies(&self) -> Option<&Policies> {
        self.meter
            .call(Op::CarfPolicies, || self.inner.carf_policies())
    }

    fn set_long_capacity_limit(&mut self, limit: usize) {
        self.meter.call(Op::SetLongCapacityLimit, || {
            self.inner.set_long_capacity_limit(limit)
        });
    }

    fn long_live_count(&self) -> usize {
        self.meter
            .call(Op::LongLiveCount, || self.inner.long_live_count())
    }

    fn mean_short_occupancy(&self) -> f64 {
        self.meter
            .call(Op::MeanShortOccupancy, || self.inner.mean_short_occupancy())
    }

    fn occupancy_report(&self) -> Option<SubfileOccupancy> {
        self.meter
            .call(Op::OccupancyReport, || self.inner.occupancy_report())
    }

    fn classify_value(&self, value: u64, from_address_op: bool) -> Option<ValueClass> {
        self.meter.call(Op::ClassifyValue, || {
            self.inner.classify_value(value, from_address_op)
        })
    }

    fn read_port_limit(&self) -> Option<u32> {
        self.meter
            .call(Op::ReadPortLimit, || self.inner.read_port_limit())
    }

    fn capture_buffer_hit(&mut self, tag: usize) -> bool {
        self.meter
            .call(Op::CaptureBufferHit, || self.inner.capture_buffer_hit(tag))
    }
}
