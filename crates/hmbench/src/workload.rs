//! The four workloads and their sizes.

use std::fmt;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 4-island home on SOAP: device mix plus a cross-island
    /// composite.
    MixSoap,
    /// The identical op sequence on the compact binary codec.
    MixBinary,
    /// Null-app services on a replicated, sharded VSR: invokes with
    /// a small route cache, plus service moves.
    VsrChurn,
    /// A fleet of SOAP homes with cloud bridges through one virtual
    /// hour of WAN chaos, on the parallel scheduler.
    FleetDay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::MixSoap,
        Workload::MixBinary,
        Workload::VsrChurn,
        Workload::FleetDay,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixSoap => "mix_soap",
            Workload::MixBinary => "mix_binary",
            Workload::VsrChurn => "vsr_churn",
            Workload::FleetDay => "fleet_day",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Operations per measured block of a single-home workload at
    /// full scale (about half a second each on a 2-core host).
    pub fn block_ops(self) -> usize {
        match self {
            Workload::MixSoap => 64_000,
            Workload::MixBinary => 128_000,
            Workload::VsrChurn => 16_000,
            // Fleet blocks are slices of virtual time, not op counts.
            Workload::FleetDay => 0,
        }
    }

    /// Set-up builds per untraced run; `setup_s` is their median.
    ///
    /// The count is fixed, not timed: memory the dropped builds leave
    /// with the allocator shows in `peak_rss_mb`. A mix home builds in
    /// about 2 ms, where one scheduler hiccup is a large share, so it
    /// builds most often; a fleet builds in about 80 ms.
    pub fn setup_builds(self) -> usize {
        match self {
            Workload::MixSoap | Workload::MixBinary | Workload::VsrChurn => 15,
            Workload::FleetDay => 7,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// About 1% of the operations: for tests.
    Smoke,
}

impl Scale {
    /// Divides a full-scale count, keeping it at least `min`.
    pub fn of(self, full: usize, min: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 100).max(min),
        }
    }
}

/// Measured blocks per run: the measurement always covers at least
/// this many, and counted metrics (allocations, wire bytes, virtual
/// latency) come from exactly the first this-many, so they do not
/// depend on how fast the host ran.
pub const MIN_BLOCKS: usize = 5;

/// The measured phase's wall-clock budget when `--seconds` is not
/// given. It equals `run_seconds` in `BENCHMARK.json` (the smoke test
/// checks this), so a bare run measures what recorded runs measured.
pub const DEFAULT_SECONDS: u64 = 12;

/// The parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Wall-clock budget for the measured phase.
    pub seconds: f64,
    /// Run the traced pass (per-layer metrics) instead.
    pub trace: bool,
    /// Work scale.
    pub scale: Scale,
}
