//! Golden simulations: one FNV-1a hash per simulated cell, captured on the
//! commit *before* the simulator's per-task path was reworked (PR 16).
//! `BENCH_figure1_*.json` only notices a changed makespan; this notices one
//! reordered or re-homed task.
//!
//! Two tables:
//!
//! * **placements** — the eight applications × {`dfifo`, `las`, `ep`,
//!   `rgp-las`, `rgp-las:prop=repart`} plus one `las` column under
//!   [`StealMode::NoStealing`], at Small and Full: where and when every task
//!   ran (task, socket, start/end bits, stolen, in the order the tasks
//!   started), the makespan bits, the traffic (link entries, local /
//!   remote / distance-weighted bytes) and `deferred_bytes`, twice (the
//!   ledger once kept its own copy). The table was captured from the
//!   per-task placement records `ExecutionReport` once carried; the rows
//!   are now read off the `Start` / `Finish` events the run returns in
//!   `ExecutionReport::events`, and the hashes not moving is the proof that
//!   the events always held the same facts. The link entries and the
//!   distance-weighted sum, once kept in the ledger, are read off the
//!   `Traffic` events the same way;
//! * **events** — the same five policy columns at Small, with events on:
//!   every `TraceEvent` (assign, start, finish, deferred allocation,
//!   per-access traffic) a run returns, in emission order.
//!
//! A simulator change that is *meant* to move a schedule regenerates the
//! tables: the failure message prints them in paste-able form.
//!
//! Also run in release mode by CI (`cargo test --release --test
//! sim_golden`), the profile every committed baseline comes from.

use std::collections::BTreeMap;

use numadag::prelude::*;

/// Sockets of the paper's machine, which sizes every workload.
const SOCKETS: usize = 8;
/// The seed of the committed Figure-1 baselines.
const SEED: u64 = 0xF1617E;
/// The policy columns of the tables, as `PolicyKind` registry strings.
const POLICIES: [&str; 5] = ["dfifo", "las", "ep", "rgp-las", "rgp-las:prop=repart"];

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn policy_for(label: &str, spec: &TaskGraphSpec) -> Box<dyn SchedulingPolicy> {
    let kind: PolicyKind = label.parse().expect("registry label");
    make_policy(kind, spec, SEED).expect("every Figure-1 app defines an EP placement")
}

/// Hashes the `(task, socket, start, end, stolen)` row of every task, in
/// the order the `Start` events were emitted (each row's end is the time of
/// the task's `Finish`), then the report's ledger.
fn report_hash(report: &ExecutionReport, events: &[TraceEvent]) -> u64 {
    let mut end_bits = vec![0u64; report.tasks];
    for event in events {
        if let TraceEvent::Finish { task, time, .. } = event {
            end_bits[task.index()] = time.to_bits();
        }
    }
    let mut h = Fnv1a::new();
    h.u64(report.tasks as u64);
    for event in events {
        if let TraceEvent::Start {
            task,
            socket,
            time,
            stolen,
            ..
        } = event
        {
            h.u64(task.index() as u64);
            h.u64(socket.index() as u64);
            h.u64(time.to_bits());
            h.u64(end_bits[task.index()]);
            h.u64(u64::from(*stolen));
        }
    }
    h.u64(report.makespan_ns.to_bits());
    // The link entries and the distance-weighted sum the table was captured
    // with, read off the `Traffic` events: bytes per (home, executing) node
    // pair in key order, and the sum of bytes x SLIT distance.
    let mut links = BTreeMap::<(usize, usize), u64>::new();
    let mut distance_weighted = 0u128;
    for event in events {
        if let TraceEvent::Traffic {
            from,
            to,
            distance,
            bytes,
            ..
        } = event
        {
            let link = links.entry((from.index(), to.index())).or_default();
            *link = link.saturating_add(*bytes);
            distance_weighted += u128::from(*bytes) * u128::from(*distance);
        }
    }
    for ((from, to), bytes) in links {
        h.u64(from as u64);
        h.u64(to as u64);
        h.u64(bytes);
    }
    h.u64(report.traffic.local_bytes);
    h.u64(report.traffic.remote_bytes);
    h.bytes(&distance_weighted.to_le_bytes());
    // The ledger's deferred counter summed the same placements.
    h.u64(report.deferred_bytes);
    h.u64(report.deferred_bytes);
    h.u64(report.stolen_tasks as u64);
    h.0
}

fn placement_hashes() -> Vec<(String, u64)> {
    let traced = || ExecutionConfig::bullion_s16().with_events();
    let stealing = Simulator::new(traced());
    let pinned = Simulator::new(traced().with_steal(StealMode::NoStealing));
    let mut out = Vec::new();
    for scale in [ProblemScale::Small, ProblemScale::Full] {
        for app in Application::all() {
            let spec = app.build(scale, SOCKETS);
            let mut cell = |column: &str, sim: &Simulator, policy: &str| {
                let report = sim.run(&spec, policy_for(policy, &spec).as_mut());
                out.push((
                    format!("{}/{}/{column}", scale.label(), app.label()),
                    report_hash(&report, &report.events),
                ));
            };
            for policy in POLICIES {
                cell(policy, &stealing, policy);
            }
            cell("las/nosteal", &pinned, "las");
        }
    }
    out
}

fn event_hashes() -> Vec<(String, u64)> {
    let sim = Simulator::new(ExecutionConfig::bullion_s16().with_events());
    let mut out = Vec::new();
    for app in Application::all() {
        let spec = app.build(ProblemScale::Small, SOCKETS);
        for policy in POLICIES {
            let events = sim.run(&spec, policy_for(policy, &spec).as_mut()).events;
            let mut h = Fnv1a::new();
            h.u64(events.len() as u64);
            for event in &events {
                // `{:?}` of an f64 round-trips, so the text pins every bit.
                h.bytes(format!("{event:?}").as_bytes());
            }
            out.push((format!("small/{}/{policy}", app.label()), h.0));
        }
    }
    out
}

fn check(what: &str, actual: Vec<(String, u64)>, golden: &[(&str, u64)]) {
    let matches = actual.len() == golden.len()
        && actual
            .iter()
            .zip(golden)
            .all(|((name, h), (gname, gh))| name == gname && h == gh);
    if !matches {
        let moved: Vec<&str> = actual
            .iter()
            .zip(golden)
            .filter(|((name, h), (gname, gh))| name != gname || h != gh)
            .map(|((name, _), _)| name.as_str())
            .collect();
        let table: String = actual
            .iter()
            .map(|(name, h)| format!("    (\"{name}\", 0x{h:016x}),\n"))
            .collect();
        panic!(
            "{what} moved ({} golden entries, differing: {moved:?}); actual table:\n{table}",
            golden.len()
        );
    }
}

#[test]
fn simulated_placements_match_golden() {
    check("placements", placement_hashes(), PLACEMENT_GOLDEN);
}

#[test]
fn simulated_sink_events_match_golden() {
    check("events", event_hashes(), SINK_EVENT_GOLDEN);
}

const PLACEMENT_GOLDEN: &[(&str, u64)] = &[
    ("small/Conjugate gradient/dfifo", 0x79f855532241736a),
    ("small/Conjugate gradient/las", 0x3f869de6269d3e6c),
    ("small/Conjugate gradient/ep", 0xa1f9d090d0fdfc29),
    ("small/Conjugate gradient/rgp-las", 0x41bd41b3548c4d17),
    (
        "small/Conjugate gradient/rgp-las:prop=repart",
        0xf19b36aedca327ea,
    ),
    ("small/Conjugate gradient/las/nosteal", 0x572ff6fa7225b217),
    ("small/Gauss-Seidel/dfifo", 0x3f9173cf3e3cf228),
    ("small/Gauss-Seidel/las", 0xfaf8918acfc19964),
    ("small/Gauss-Seidel/ep", 0xbbacb6714cacdf34),
    ("small/Gauss-Seidel/rgp-las", 0x12b208156bd65c8d),
    ("small/Gauss-Seidel/rgp-las:prop=repart", 0xef73ea0fad09601c),
    ("small/Gauss-Seidel/las/nosteal", 0x98b70fddc41a999a),
    ("small/Integral histogram/dfifo", 0x103a39e28dd132f3),
    ("small/Integral histogram/las", 0x3d4762759ef09b76),
    ("small/Integral histogram/ep", 0xd1946f894b8a2b02),
    ("small/Integral histogram/rgp-las", 0x26f251877c542e30),
    (
        "small/Integral histogram/rgp-las:prop=repart",
        0x79317ae365bee10c,
    ),
    ("small/Integral histogram/las/nosteal", 0x09d007d510eb90fc),
    ("small/Jacobi/dfifo", 0x13f3bf8ed8414cb3),
    ("small/Jacobi/las", 0x1a24e5e561c24f8a),
    ("small/Jacobi/ep", 0x18261ae95291d576),
    ("small/Jacobi/rgp-las", 0xffc46ea50a33995d),
    ("small/Jacobi/rgp-las:prop=repart", 0x8511f4408fc7cfca),
    ("small/Jacobi/las/nosteal", 0x7a35e9769cff43ba),
    ("small/NStream/dfifo", 0x0a0ff397716a6633),
    ("small/NStream/las", 0xfb00edd2c2bc23a5),
    ("small/NStream/ep", 0xb56ca1099fd7fd89),
    ("small/NStream/rgp-las", 0x9c2b529eeee772b9),
    ("small/NStream/rgp-las:prop=repart", 0x9c2b529eeee772b9),
    ("small/NStream/las/nosteal", 0xa7f763b6ac3a6b30),
    ("small/QR factorization/dfifo", 0xeff1d4f791be7ded),
    ("small/QR factorization/las", 0x10473867a7073d3d),
    ("small/QR factorization/ep", 0x89ddcca9bfb3919f),
    ("small/QR factorization/rgp-las", 0x600123e583ed8c24),
    (
        "small/QR factorization/rgp-las:prop=repart",
        0x3a25d6760cc7eedb,
    ),
    ("small/QR factorization/las/nosteal", 0x9f289d2054db3dbe),
    ("small/Red-Black/dfifo", 0x36b7c8054360a6e6),
    ("small/Red-Black/las", 0x8e6081d5e8ac8f26),
    ("small/Red-Black/ep", 0x6b5236a1b4c978a2),
    ("small/Red-Black/rgp-las", 0x6c8e9b11279bb02d),
    ("small/Red-Black/rgp-las:prop=repart", 0x7c1cec99a6b5e979),
    ("small/Red-Black/las/nosteal", 0x287d3345021c6f09),
    ("small/Symm. mat. inv./dfifo", 0xbf6b8b0a5f5376a2),
    ("small/Symm. mat. inv./las", 0xc177f15a60f6a712),
    ("small/Symm. mat. inv./ep", 0xe5784bdf95ad82e5),
    ("small/Symm. mat. inv./rgp-las", 0x8ceb689da43b7339),
    (
        "small/Symm. mat. inv./rgp-las:prop=repart",
        0xd0aafaa30a73aa96,
    ),
    ("small/Symm. mat. inv./las/nosteal", 0x1450942fd8aebf79),
    ("full/Conjugate gradient/dfifo", 0x81e81b5cbc1e3309),
    ("full/Conjugate gradient/las", 0x9f98bd3ab4a15472),
    ("full/Conjugate gradient/ep", 0x8c36e01d82532b3f),
    ("full/Conjugate gradient/rgp-las", 0xef7bc6d5c68b1151),
    (
        "full/Conjugate gradient/rgp-las:prop=repart",
        0xa54fc0dc81eb2e83,
    ),
    ("full/Conjugate gradient/las/nosteal", 0x758a1d0461ca5bdd),
    ("full/Gauss-Seidel/dfifo", 0x9740bd1d0f1a0ae6),
    ("full/Gauss-Seidel/las", 0x583ba45bd5f41f20),
    ("full/Gauss-Seidel/ep", 0x5dda5de9a48b87cc),
    ("full/Gauss-Seidel/rgp-las", 0x3422ecebe74d5fb2),
    ("full/Gauss-Seidel/rgp-las:prop=repart", 0xc583f42a17c0ca48),
    ("full/Gauss-Seidel/las/nosteal", 0x23153af200e758f7),
    ("full/Integral histogram/dfifo", 0x55f1338196c3417f),
    ("full/Integral histogram/las", 0xb5481e02c0572be5),
    ("full/Integral histogram/ep", 0xaae852e3dee3ade4),
    ("full/Integral histogram/rgp-las", 0xea27e9d9df1f1aba),
    (
        "full/Integral histogram/rgp-las:prop=repart",
        0x9c7686463834d9d2,
    ),
    ("full/Integral histogram/las/nosteal", 0x6a5ee9803e838522),
    ("full/Jacobi/dfifo", 0xb487797d7bd6f07b),
    ("full/Jacobi/las", 0xaa35c9bf2e86f92b),
    ("full/Jacobi/ep", 0x6fd8a6b95daab3a0),
    ("full/Jacobi/rgp-las", 0x4df9d0bff67e881f),
    ("full/Jacobi/rgp-las:prop=repart", 0x4b73677aece78a65),
    ("full/Jacobi/las/nosteal", 0x15d27547a7d395cf),
    ("full/NStream/dfifo", 0xfa136dab4de1b947),
    ("full/NStream/las", 0x7fed8552b04166fd),
    ("full/NStream/ep", 0x74244b56fdd38ae8),
    ("full/NStream/rgp-las", 0x083ff77e1075cbb7),
    ("full/NStream/rgp-las:prop=repart", 0x1045dd5c045278b2),
    ("full/NStream/las/nosteal", 0x2230bf297d5f4919),
    ("full/QR factorization/dfifo", 0xbe920c48e95c4664),
    ("full/QR factorization/las", 0x2e93f8eee641482e),
    ("full/QR factorization/ep", 0xc78e303855c1eaeb),
    ("full/QR factorization/rgp-las", 0xa554c90fdff94f20),
    (
        "full/QR factorization/rgp-las:prop=repart",
        0xe7ce3fff477dafa8,
    ),
    ("full/QR factorization/las/nosteal", 0x95f882c477599a6d),
    ("full/Red-Black/dfifo", 0x3f7e5b9bbee5af57),
    ("full/Red-Black/las", 0x24ec70370d74db36),
    ("full/Red-Black/ep", 0x811f0ff4d057c4e4),
    ("full/Red-Black/rgp-las", 0x204e850cbaab3442),
    ("full/Red-Black/rgp-las:prop=repart", 0xcab827544c931ac5),
    ("full/Red-Black/las/nosteal", 0x4aeab8df46596f56),
    ("full/Symm. mat. inv./dfifo", 0x5c6a5e5326e92459),
    ("full/Symm. mat. inv./las", 0xba0dd5fd4e1eea4b),
    ("full/Symm. mat. inv./ep", 0x6384acc91beaced6),
    ("full/Symm. mat. inv./rgp-las", 0x6cf740b0f0258cdc),
    (
        "full/Symm. mat. inv./rgp-las:prop=repart",
        0x69968817c36f24e6,
    ),
    ("full/Symm. mat. inv./las/nosteal", 0x360054d53378b9cb),
];

const SINK_EVENT_GOLDEN: &[(&str, u64)] = &[
    ("small/Conjugate gradient/dfifo", 0xe7d18e5e75e0cefd),
    ("small/Conjugate gradient/las", 0x22efc56f3cf8b65b),
    ("small/Conjugate gradient/ep", 0x6d6c8ee9699be72e),
    ("small/Conjugate gradient/rgp-las", 0x849dc2fefbdff207),
    (
        "small/Conjugate gradient/rgp-las:prop=repart",
        0x457af79c087221ee,
    ),
    ("small/Gauss-Seidel/dfifo", 0x807ad2569476b325),
    ("small/Gauss-Seidel/las", 0x29313d62e548e7b9),
    ("small/Gauss-Seidel/ep", 0x7c59c03f6fa21832),
    ("small/Gauss-Seidel/rgp-las", 0x96bc839c8200261d),
    ("small/Gauss-Seidel/rgp-las:prop=repart", 0xe408e7f104ece539),
    ("small/Integral histogram/dfifo", 0x5c24f75adab9687d),
    ("small/Integral histogram/las", 0x80e80dc292e13d96),
    ("small/Integral histogram/ep", 0x74d5a07e507c55a6),
    ("small/Integral histogram/rgp-las", 0xad80a82a43d9a85c),
    (
        "small/Integral histogram/rgp-las:prop=repart",
        0x3c81fd9fd3e9269f,
    ),
    ("small/Jacobi/dfifo", 0xb2a433198de69aba),
    ("small/Jacobi/las", 0x05887716b46d0515),
    ("small/Jacobi/ep", 0xee48cb74e154390f),
    ("small/Jacobi/rgp-las", 0x8ea6837d56d2bf46),
    ("small/Jacobi/rgp-las:prop=repart", 0x5d621a6e03afaf7a),
    ("small/NStream/dfifo", 0x853422beac5b96d4),
    ("small/NStream/las", 0x152acc14babfb722),
    ("small/NStream/ep", 0x6f1bc0b1e259dbd8),
    ("small/NStream/rgp-las", 0xcda84bf56254fa8a),
    ("small/NStream/rgp-las:prop=repart", 0xcda84bf56254fa8a),
    ("small/QR factorization/dfifo", 0xe84e4b5556cb0d19),
    ("small/QR factorization/las", 0xd248c37c1c379ccb),
    ("small/QR factorization/ep", 0xd0139f2970d49b60),
    ("small/QR factorization/rgp-las", 0x07885cddc6b25f48),
    (
        "small/QR factorization/rgp-las:prop=repart",
        0x9c26243e666c13fe,
    ),
    ("small/Red-Black/dfifo", 0xcc5265abd7b6f58c),
    ("small/Red-Black/las", 0xb0a3b1552e34fca6),
    ("small/Red-Black/ep", 0xbd346368c3376746),
    ("small/Red-Black/rgp-las", 0xec99a11028f3c4c8),
    ("small/Red-Black/rgp-las:prop=repart", 0x2b0be98e4cdbf505),
    ("small/Symm. mat. inv./dfifo", 0x6289e398abf66ff2),
    ("small/Symm. mat. inv./las", 0x45f266de1e23ad4d),
    ("small/Symm. mat. inv./ep", 0xf53dcf41f292b97d),
    ("small/Symm. mat. inv./rgp-las", 0x7e49be17c1d8721d),
    (
        "small/Symm. mat. inv./rgp-las:prop=repart",
        0x1062cdf793b36136,
    ),
];
