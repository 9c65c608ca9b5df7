//! `--seed` -> generated inputs. The program under test never sees the
//! benchmark seed, only what this module derives from it: one sweep seed per
//! op, and for `serve_mix` the per-client session script.

use numadag::prelude::Application;

/// The seed the committed `BENCH_figure1_*.json` baselines were made with.
pub const CANONICAL_SEED: u64 = 0xF1617E;

/// Ops one stream can hold before its sweep seeds would repeat.
const OPS_PER_STREAM: u64 = 1 << 20;

/// A stream of sweep seeds that never repeats: within a stream, across the
/// streams of one run, or against the canonical seed.
///
/// Layout of a sweep seed (48 bits, so it survives the f64-backed JSON
/// numbers of the serve protocol): bit 47 set (keeps it clear of the
/// canonical seed), 23 LCG-derived bits (what `--seed` changes), 4 bits of
/// stream id (set-up, measured phase, each serve client, ...), 20 bits of op
/// index (what makes every op's inputs new, so a memo cache added to the
/// program later cannot turn the loop into a no-op).
#[derive(Clone, Debug)]
pub struct SeedSchedule {
    state: u64,
    stream: u64,
    next_op: u64,
}

/// Stream ids: one per place a run draws seeds from, so no two places ever
/// hand the program the same sweep seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    Setup = 0,
    /// The `B` streams belong to the second client of `serve_mix`.
    SetupB = 1,
    Measured = 2,
    MeasuredB = 3,
    /// The three span-recording loops of a traced run.
    TracedSweep = 4,
    TracedServe = 5,
    TracedServeB = 6,
    TracedProc = 7,
    /// The direct probes of a traced run.
    Probe = 8,
    ProbeServe = 9,
    ProbeProc = 10,
}

impl SeedSchedule {
    pub fn new(benchmark_seed: u64, stream: Stream) -> Self {
        SeedSchedule {
            // Decorrelate the streams' LCG-derived bits as well.
            state: benchmark_seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            stream: stream as u64,
            next_op: 0,
        }
    }

    /// The next op's sweep seed.
    ///
    /// # Panics
    /// Panics after 2^20 ops: far beyond any run, and the op index is what
    /// guarantees the seeds differ.
    pub fn next_seed(&mut self) -> u64 {
        assert!(self.next_op < OPS_PER_STREAM, "seed stream exhausted");
        // Knuth's MMIX LCG; the high bits are the good ones.
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let random = (self.state >> 41) & ((1 << 23) - 1);
        let seed = (1 << 47) | (random << 24) | (self.stream << 20) | self.next_op;
        self.next_op += 1;
        seed
    }
}

/// The policy set of the paper's figure, as `figure1 --policies` spells it.
pub const FIG1_POLICIES: &str = "dfifo,rgp-las,rgp-las:prop=repart,ep";
/// The policy set that never calls the partitioner.
pub const SCHED_POLICIES: &str = "dfifo,ep";
/// The novel step's policy pair; `FIG1_POLICIES` is its widened superset.
pub const NOVEL_POLICIES: &str = "rgp-las,ep";

/// One scripted `serve_mix` session: a never-seen (app, seed) pair that the
/// novel and widen steps share, then the hot sweep six times and a `stats`.
#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    pub app: Application,
    pub seed: u64,
}

/// Hot submits per session.
pub const HOT_PER_SESSION: usize = 6;

/// The session script of one client: apps cycle in suite order (offset per
/// client so the two clients are never on the same app), seeds come from the
/// client's stream.
#[derive(Clone, Debug)]
pub struct SessionScript {
    seeds: SeedSchedule,
    next_app: usize,
}

impl SessionScript {
    pub fn new(benchmark_seed: u64, stream: Stream, client: usize) -> Self {
        SessionScript {
            seeds: SeedSchedule::new(benchmark_seed, stream),
            next_app: client * 4,
        }
    }

    pub fn next_session(&mut self) -> Session {
        let apps = Application::all();
        let app = apps[self.next_app % apps.len()];
        self.next_app += 1;
        Session {
            app,
            seed: self.seeds.next_seed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn take(seed: u64, stream: Stream, n: usize) -> Vec<u64> {
        let mut s = SeedSchedule::new(seed, stream);
        (0..n).map(|_| s.next_seed()).collect()
    }

    #[test]
    fn same_seed_same_schedule_different_seed_different_schedule() {
        assert_eq!(
            take(7, Stream::Measured, 100),
            take(7, Stream::Measured, 100)
        );
        let a = take(7, Stream::Measured, 100);
        let b = take(8, Stream::Measured, 100);
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn seeds_never_repeat_within_or_across_streams_and_fit_json_numbers() {
        let mut seen = HashSet::new();
        for stream in [
            Stream::Setup,
            Stream::SetupB,
            Stream::Measured,
            Stream::MeasuredB,
            Stream::TracedSweep,
            Stream::TracedServe,
            Stream::TracedServeB,
            Stream::TracedProc,
            Stream::Probe,
            Stream::ProbeServe,
            Stream::ProbeProc,
        ] {
            for seed in take(CANONICAL_SEED, stream, 5000) {
                assert!(seed < (1 << 53), "{seed:#x} would not survive f64");
                assert_ne!(seed, CANONICAL_SEED);
                assert!(seen.insert(seed), "{seed:#x} repeated");
            }
        }
    }

    #[test]
    fn the_first_seed_is_pinned() {
        // Hand-computed: state = 0 * a + c = 1442695040888963407;
        // (state >> 41) & (2^23 - 1) = 656_061; stream 0, op 0.
        let first = take(0, Stream::Setup, 1)[0];
        assert_eq!(first, (1 << 47) | (656_061 << 24));
    }

    #[test]
    fn scripts_share_shape_but_not_seeds_across_benchmark_seeds() {
        let script = |seed| {
            let mut s = SessionScript::new(seed, Stream::Measured, 0);
            (0..16).map(|_| s.next_session()).collect::<Vec<_>>()
        };
        let (a, b, again) = (script(1), script(2), script(1));
        assert_eq!(a, again);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.app, y.app, "shape (app cycle) is seed-independent");
            assert_ne!(x.seed, y.seed, "novel seeds depend on --seed");
        }
        // Eight sessions visit the eight apps once each.
        let apps: HashSet<_> = a[..8].iter().map(|s| s.app.label()).collect();
        assert_eq!(apps.len(), 8);
    }

    #[test]
    fn app_labels_parse_back_as_sweep_spec_apps() {
        for app in Application::all() {
            assert_eq!(Application::parse_list(app.label()).unwrap(), vec![app]);
        }
    }
}
