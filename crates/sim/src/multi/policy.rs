//! Shared-resource policies for the multi-context layer.

/// How the fetch slot is shared among co-running contexts each cycle.
///
/// Fetch is the only *pipeline* stage the multi-context layer arbitrates:
/// everything downstream (rename, issue, FUs, L1s) stays private per
/// context, so the front-end policy isolates the classic SMT question —
/// who gets to inject work this cycle — from the register-file and L2
/// sharing questions, which have their own policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchArbitration {
    /// Every context fetches every cycle (no front-end contention; the
    /// multi-core flavor, and the original two-pipeline shared-Long
    /// behavior).
    Free,
    /// `slots` contexts fetch per cycle, granted in rotating order
    /// starting after the last grant (a fair fixed-partition front end).
    RoundRobin {
        /// Fetch slots granted per cycle (≥ 1).
        slots: usize,
    },
    /// `slots` contexts fetch per cycle, granted to the contexts with the
    /// fewest instructions in flight (fetched + not yet retired), ties
    /// broken by lower context index. This is the ICOUNT heuristic from
    /// Tullsen et al.: starve the hoarder, feed the drainer.
    ICount {
        /// Fetch slots granted per cycle (≥ 1).
        slots: usize,
    },
}

impl FetchArbitration {
    /// Canonical text for content-addressed cache keys (stable across
    /// refactors; never change an existing encoding).
    pub fn canonical(&self) -> String {
        match self {
            FetchArbitration::Free => "free".into(),
            FetchArbitration::RoundRobin { slots } => format!("rr:{slots}"),
            FetchArbitration::ICount { slots } => format!("icount:{slots}"),
        }
    }
}

/// Which physical resources the co-running contexts share.
///
/// The default ([`SharingPolicy::isolated`]) shares nothing but the
/// clock: N contexts advance in lockstep with private register files,
/// private hierarchies, and free fetch — useful as the control arm of
/// every sharing experiment (and as the reference side of the
/// differential fuzz harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharingPolicy {
    /// `Some(k)`: one physical Long array of `k` entries is
    /// competitively shared — each cycle every context's Long file is
    /// windowed to `k` minus the co-runners' live entries (the paper's §6
    /// SMT experiment, generalized over the [`IntRegFile`] seam: backends
    /// without a Long file ignore the window and serve as control rows).
    ///
    /// [`IntRegFile`]: carf_core::IntRegFile
    pub shared_long_capacity: Option<usize>,
    /// One shared L2 array + DRAM channel behind private L1s (the
    /// "2-core" flavor); every context must configure the same L2
    /// geometry and memory latency.
    pub shared_l2: bool,
    /// Front-end fetch-slot arbitration.
    pub fetch: FetchArbitration,
}

impl SharingPolicy {
    /// Nothing shared but the clock.
    pub fn isolated() -> Self {
        Self { shared_long_capacity: None, shared_l2: false, fetch: FetchArbitration::Free }
    }

    /// The paper's §6 experiment: one `capacity`-entry Long array,
    /// everything else private, free fetch.
    pub fn shared_long(capacity: usize) -> Self {
        Self { shared_long_capacity: Some(capacity), ..Self::isolated() }
    }

    /// Private cores behind one L2 (the multi-core flavor).
    pub fn shared_l2() -> Self {
        Self { shared_l2: true, ..Self::isolated() }
    }

    /// Canonical text for content-addressed cache keys. Field order and
    /// encodings are frozen: changing them would silently orphan every
    /// cached multi-context result.
    pub fn canonical(&self) -> String {
        let long = match self.shared_long_capacity {
            Some(k) => format!("long:{k}"),
            None => "long:-".into(),
        };
        let l2 = if self.shared_l2 { "l2:shared" } else { "l2:private" };
        format!("{long};{l2};fetch:{}", self.fetch.canonical())
    }
}

impl Default for SharingPolicy {
    fn default() -> Self {
        Self::isolated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_encodings_are_frozen() {
        assert_eq!(SharingPolicy::isolated().canonical(), "long:-;l2:private;fetch:free");
        assert_eq!(SharingPolicy::shared_long(48).canonical(), "long:48;l2:private;fetch:free");
        assert_eq!(SharingPolicy::shared_l2().canonical(), "long:-;l2:shared;fetch:free");
        let smt = SharingPolicy {
            shared_long_capacity: Some(56),
            shared_l2: true,
            fetch: FetchArbitration::ICount { slots: 2 },
        };
        assert_eq!(smt.canonical(), "long:56;l2:shared;fetch:icount:2");
        assert_eq!(
            SharingPolicy { fetch: FetchArbitration::RoundRobin { slots: 1 }, ..Default::default() }
                .canonical(),
            "long:-;l2:private;fetch:rr:1"
        );
    }
}
