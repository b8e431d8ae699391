//! The four workloads: which sessions each round runs, and why.
//!
//! A round is a fixed set of operations built from the run seed (session
//! `i` uses seed `seed + i`), so every round of a run repeats the same
//! inputs and deterministic metrics come out identical however many rounds
//! fit in the measured time.

use vidi_apps::{AppId, Scale};
use vidi_trace::CodecId;

use crate::session::{record, Round, Spec, SETUP};
use crate::spans::Tracer;
use crate::{fleet, recording, replay};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// DMA and SpamF, the two I/O-dense apps, half Raw and half XorDict.
    RecordIo,
    /// SSSP and MNet, the two compute-bound apps, default codec.
    RecordCompute,
    /// Replay, segmented verify, seek and reverse step over MNet and SHA.
    ReplayDebug,
    /// A backlog of recordings through a two-worker `Fleet`.
    Fleet,
}

/// How big a round is.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Catalog workload sizing.
    pub scale: Scale,
    /// Sessions per round (recording workloads, fleet) or seek targets per
    /// replayed session (replay-debug).
    pub size: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::RecordIo,
        Workload::RecordCompute,
        Workload::ReplayDebug,
        Workload::Fleet,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RecordIo => "record-io",
            Workload::RecordCompute => "record-compute",
            Workload::ReplayDebug => "replay-debug",
            Workload::Fleet => "fleet",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's round size: each timed phase takes a second or a
    /// few on a two-core host, so a run holds several rounds.
    pub fn bench_plan(self) -> Plan {
        let size = match self {
            Workload::RecordIo => 40,
            Workload::RecordCompute => 5,
            Workload::ReplayDebug => 25,
            Workload::Fleet => 128,
        };
        Plan {
            scale: Scale::Bench,
            size,
        }
    }

    /// Session `i` of a round under `plan` and run seed `seed`.
    pub fn spec(self, plan: Plan, seed: u64, i: usize) -> Spec {
        // Even-index sessions record through Raw, odd ones through XorDict.
        let alternating = Some(if i.is_multiple_of(2) {
            CodecId::Raw
        } else {
            CodecId::XorDict
        });
        let (app, codec) = match self {
            // Two DMA for every three SpamF, so the latency median lands
            // inside one app's distribution instead of between the two.
            Workload::RecordIo => (
                if matches!(i % 5, 0 | 3) {
                    AppId::Dma
                } else {
                    AppId::SpamFilter
                },
                alternating,
            ),
            Workload::RecordCompute => (
                if matches!(i % 5, 0 | 3) {
                    AppId::Sssp
                } else {
                    AppId::MobileNet
                },
                None,
            ),
            Workload::ReplayDebug => (
                [AppId::MobileNet, AppId::Sha][i % 2],
                Some(CodecId::XorDict),
            ),
            // `record-io`'s apps, so that workload is the fleet's solo
            // counterpart. With compute-bound sessions in the mix, two
            // workers' throughput flips between two modes about 25% apart:
            // those sessions spend a larger share of each cycle in the
            // arbiter request every recording makes once per cycle.
            Workload::Fleet => (
                [AppId::Dma, AppId::SpamFilter][i % 2],
                Some(if (i / 2).is_multiple_of(2) {
                    CodecId::Raw
                } else {
                    CodecId::XorDict
                }),
            ),
        };
        Spec {
            app,
            scale: plan.scale,
            seed: seed.wrapping_add(i as u64),
            codec,
        }
    }

    /// The sessions of one round.
    pub fn specs(self, plan: Plan, seed: u64) -> Vec<Spec> {
        let sessions = match self {
            Workload::ReplayDebug => 2,
            _ => plan.size,
        };
        (0..sessions).map(|i| self.spec(plan, seed, i)).collect()
    }

    /// One untimed recording of the round's first session, so lazy set-up
    /// and cold caches are paid before the first round.
    pub fn warm_up(self, plan: Plan, seed: u64) -> Round {
        let mut round = Round::default();
        let spec = self.spec(plan, seed, 0);
        record(&mut Tracer::new(false), &spec, SETUP, &mut round);
        round
    }

    /// Runs one round.
    pub fn round(self, tr: &mut Tracer, plan: Plan, seed: u64) -> Round {
        let specs = self.specs(plan, seed);
        match self {
            Workload::RecordIo | Workload::RecordCompute => recording::round(tr, &specs),
            Workload::ReplayDebug => replay::round(tr, &specs, plan.size, seed),
            Workload::Fleet => fleet::round(tr, &specs),
        }
    }
}
