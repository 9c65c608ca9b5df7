//! Pins of the two products of the task graph that neither the fingerprints
//! nor the partition goldens see in full: the columnar spelling of every
//! application's spec at every scale (24 rows, in the form the proc `spec`
//! line had; see [`spec_line`]), and the partitioner input of every
//! default-size window of the Full workloads — the CSR arrays, the window's
//! task list and its cross edges (16 rows). A fingerprint notices a changed
//! graph, a partition golden a changed cut; these notice one reordered
//! column entry, one changed edge weight or one re-ordered adjacency row.
//!
//! The values were captured before the task graph was stored as columns.
//! Beside them, the words found for three ways to break each Full spec (24
//! rows): `validate`'s when they were captured, the task graph's own now.
//!
//! A change that is *meant* to move them regenerates the table: the failure
//! message prints it in paste-able form. Also run in release mode by CI.

#[path = "../crates/tdg/tests/reference/mod.rs"]
mod reference;

use std::fmt::{Display, Write};

use numadag::graph::CsrGraph;
use numadag::kernels::{Application, ProblemScale};
use numadag::runtime::framing::to_line;
use numadag::tdg::{
    window_to_csr, DataAccess, TaskGraph, TaskGraphSpec, TaskWindow, TdgError, WindowConfig,
    WindowGraph,
};
use reference::reference_fingerprint;

/// FNV-1a, 64-bit: the hash the pins were captured with.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }
}

/// Sockets of the paper's machine, which sizes every workload.
const SOCKETS: usize = 8;

fn check(actual: Vec<(String, u64)>, golden: &[(&str, u64)]) {
    let matches = actual.len() == golden.len()
        && actual
            .iter()
            .zip(golden)
            .all(|((name, h), (gname, gh))| name == gname && h == gh);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(name, h)| format!("    (\"{name}\", 0x{h:016x}),\n"))
            .collect();
        panic!(
            "pins moved ({} golden entries); actual table:\n{table}",
            golden.len()
        );
    }
}

fn csr_hash(wg: &WindowGraph) -> u64 {
    let mut h = Fnv1a::default();
    let (xadj, adjncy, adjwgt, vwgt) = CsrGraph::into_parts(wg.graph.clone());
    for column in [
        xadj.iter().map(|&x| x as u64).collect::<Vec<_>>(),
        adjncy.iter().map(|&v| u64::from(v)).collect(),
        adjwgt.iter().map(|&w| w as u64).collect(),
        vwgt.iter().map(|&w| w as u64).collect(),
        wg.tasks.iter().map(|t| t.index() as u64).collect(),
    ] {
        h.write_u64(column.len() as u64);
        column.iter().for_each(|&x| h.write_u64(x));
    }
    h.write_u64(wg.cross_edges.len() as u64);
    for edge in &wg.cross_edges {
        h.write_u64(u64::from(edge.vertex));
        h.write_u64(edge.predecessor.index() as u64);
        h.write_u64(edge.bytes as u64);
    }
    h.0
}

/// `spec` as the proc protocol's `spec` message spelled it when the pins
/// were captured: columns in task order — the kind table (`kinds`) and each
/// task's index into it, `work`, the access and dependence counts, flat
/// `region, mode, bytes` and `pred, bytes` runs — then `regions` and `ep`,
/// the fingerprint a quoted hex string from 2^53 on. A fixture of this
/// test: it pins graph content, and no wire carries it any more.
fn spec_line(spec: &TaskGraphSpec) -> String {
    fn column<T: Display>(out: &mut String, name: &str, entries: impl Iterator<Item = T>) {
        let entries: Vec<String> = entries.map(|entry| entry.to_string()).collect();
        write!(out, ",\"{name}\":[{}]", entries.join(",")).unwrap();
    }
    let graph = &spec.graph;
    let fp = reference_fingerprint(spec);
    let mut out = match fp < 1 << 53 {
        true => format!("{{\"spec\":{{\"fp\":{fp}"),
        false => format!("{{\"spec\":{{\"fp\":\"{fp:x}\""),
    };
    write!(out, ",\"name\":{}", to_line(&spec.name.to_string())).unwrap();
    let (kinds, kind) = graph.kind_table();
    column(
        &mut out,
        "kinds",
        kinds.iter().map(|k| to_line(&k.to_string())),
    );
    column(&mut out, "kind", kind.iter());
    column(&mut out, "work", graph.tasks().map(|task| task.work_units));
    column(
        &mut out,
        "n_acc",
        graph.tasks().map(|task| task.accesses.len()),
    );
    let deps = |task| graph.predecessors(task);
    column(
        &mut out,
        "n_dep",
        graph.task_ids().map(|task| deps(task).len()),
    );
    let accesses = graph
        .tasks()
        .flat_map(|task| task.accesses.iter().collect::<Vec<_>>());
    column(
        &mut out,
        "acc",
        accesses.flat_map(|a| [a.region.0 as u64, a.mode.code(), a.bytes]),
    );
    let runs = graph.task_ids().flat_map(|task| deps(task).iter());
    column(
        &mut out,
        "dep",
        runs.flat_map(|&(pred, bytes)| [pred.0 as u64, bytes]),
    );
    column(&mut out, "regions", graph.region_sizes().iter());
    match spec.ep_placement() {
        Some(placement) => column(&mut out, "ep", placement.iter()),
        None => out.push_str(",\"ep\":null"),
    }
    out.push_str("}}");
    out
}

#[test]
fn spec_lines_are_the_parents() {
    let mut actual = Vec::new();
    for scale in [ProblemScale::Tiny, ProblemScale::Small, ProblemScale::Full] {
        for app in Application::all() {
            let spec = app.build(scale, SOCKETS);
            let mut h = Fnv1a::default();
            h.write_bytes(spec_line(&spec).as_bytes());
            actual.push((format!("{scale:?}/{}", app.label()), h.0));
        }
    }
    check(actual, SPEC_LINES);
}

/// `graph`'s tasks pushed in order onto a graph whose region table is
/// `table`: the copy, or the first refusal.
fn repush(graph: &TaskGraph, table: &[u64]) -> Result<TaskGraph, TdgError> {
    let mut copy = TaskGraph::new();
    for &size in table {
        copy.region(size);
    }
    for task in graph.tasks() {
        let accesses: Vec<DataAccess> = task.accesses.iter().collect();
        copy.push_task(
            task.kind,
            task.work_units,
            &accesses,
            graph.predecessors(task.id),
        )?;
    }
    Ok(copy)
}

/// What the task graph says about three ways to break each Full spec: its
/// tasks pushed onto a region table cut in half, or onto one whose upper
/// half is shrunk to one byte each, and an expert placement one task short.
#[test]
fn validation_messages_are_the_parents() {
    let mut actual = Vec::new();
    for app in Application::all() {
        let spec = app.build(ProblemScale::Full, SOCKETS);
        let sizes = spec.graph.region_sizes();
        let ep = spec.ep_placement().unwrap().to_vec();
        let copy = TaskGraphSpec::new(spec.name.clone(), repush(&spec.graph, sizes).unwrap());
        let copy = copy.with_ep_placement(ep.clone()).unwrap();
        assert_eq!(copy.fingerprint(), spec.fingerprint(), "{}", app.label());
        let middle = sizes.len() / 2;
        let mut shrunk = sizes.to_vec();
        shrunk[middle..].fill(1);
        for (case, table) in [("unknown", &sizes[..middle]), ("oversize", &shrunk[..])] {
            let message = repush(&spec.graph, table).unwrap_err();
            actual.push(format!("{}/{case}: {message}", app.label()));
        }
        let mut short = ep;
        short.pop();
        let without_ep = TaskGraphSpec::new(spec.name.clone(), spec.graph.clone());
        let message = without_ep.with_ep_placement(short).unwrap_err();
        actual.push(format!("{}/ep: {message}", app.label()));
    }
    assert_eq!(actual, VALIDATION_MESSAGES);
}

#[test]
fn window_csrs_are_the_parents() {
    let mut actual = Vec::new();
    for app in Application::all() {
        let spec = app.build(ProblemScale::Full, SOCKETS);
        for (i, window) in TaskWindow::split_all(&spec.graph, WindowConfig::default())
            .iter()
            .enumerate()
        {
            let wg = window_to_csr(&spec.graph, window);
            actual.push((format!("{}/w{i}", app.label()), csr_hash(&wg)));
        }
    }
    check(actual, WINDOW_CSRS);
}

const SPEC_LINES: &[(&str, u64)] = &[
    ("Tiny/Conjugate gradient", 0x64a3c225f0edf6c1),
    ("Tiny/Gauss-Seidel", 0xdaa8a71108489372),
    ("Tiny/Integral histogram", 0x5444c4cbf3f2f058),
    ("Tiny/Jacobi", 0x6717b3a2b8a50b97),
    ("Tiny/NStream", 0xce3a1076de18b875),
    ("Tiny/QR factorization", 0x8d01829bd4e56bed),
    ("Tiny/Red-Black", 0xa70996355d2d01de),
    ("Tiny/Symm. mat. inv.", 0x2fb618010263f9fb),
    ("Small/Conjugate gradient", 0x73054f9fb48a1077),
    ("Small/Gauss-Seidel", 0x449c24bff4cb7757),
    ("Small/Integral histogram", 0x6083ed2f7c62f508),
    ("Small/Jacobi", 0x16bcbb930864645b),
    ("Small/NStream", 0x181ad9e57c759230),
    ("Small/QR factorization", 0x9a276017ad64a02e),
    ("Small/Red-Black", 0x94583587da40d56b),
    ("Small/Symm. mat. inv.", 0xe51f94ca99ffb336),
    ("Full/Conjugate gradient", 0x552a4e13b1f5cb71),
    ("Full/Gauss-Seidel", 0xfaffa941bae7f777),
    ("Full/Integral histogram", 0xc0e51f5411b87d88),
    ("Full/Jacobi", 0x07abda3db7ec3f5d),
    ("Full/NStream", 0xf3c077f56cbaf379),
    ("Full/QR factorization", 0xc6b746700d6d3c35),
    ("Full/Red-Black", 0x7f6955b9b9dbd5a1),
    ("Full/Symm. mat. inv.", 0x1b8056d57fdc8760),
];

const WINDOW_CSRS: &[(&str, u64)] = &[
    ("Conjugate gradient/w0", 0x4baac38e3260781b),
    ("Conjugate gradient/w1", 0x932c838de77c12e9),
    ("Conjugate gradient/w2", 0x62d7d3a22b7f3837),
    ("Conjugate gradient/w3", 0xb805d62630bf1010),
    ("Gauss-Seidel/w0", 0xdb335845610b72ba),
    ("Gauss-Seidel/w1", 0x181fac5ea0453412),
    ("Integral histogram/w0", 0x7e4d305f6c71dc14),
    ("Integral histogram/w1", 0x15917cb02b4723d1),
    ("Jacobi/w0", 0xb1cd5ddf135ea9dc),
    ("Jacobi/w1", 0xfd9b354efdc0cb42),
    ("NStream/w0", 0xa501b6b4d08e4d03),
    ("NStream/w1", 0xbac428565cf86a34),
    ("QR factorization/w0", 0x3133157e3599acbe),
    ("Red-Black/w0", 0x5304332e93d7470d),
    ("Red-Black/w1", 0x97d4a0278490e875),
    ("Symm. mat. inv./w0", 0x16ae3a4256b3738c),
];

const VALIDATION_MESSAGES: &[&str] = &[
    "Conjugate gradient/unknown: task T103 accesses unknown region R169",
    "Conjugate gradient/oversize: task T103 accesses 262144 bytes of region R169 which only has 1",
    "Conjugate gradient/ep: EP placement length mismatch",
    "Gauss-Seidel/unknown: task T72 accesses unknown region R72",
    "Gauss-Seidel/oversize: task T72 accesses 524288 bytes of region R72 which only has 1",
    "Gauss-Seidel/ep: EP placement length mismatch",
    "Integral histogram/unknown: task T100 accesses unknown region R100",
    "Integral histogram/oversize: task T100 accesses 65536 bytes of region R100 which only has 1",
    "Integral histogram/ep: EP placement length mismatch",
    "Jacobi/unknown: task T144 accesses unknown region R144",
    "Jacobi/oversize: task T144 accesses 524288 bytes of region R144 which only has 1",
    "Jacobi/ep: EP placement length mismatch",
    "NStream/unknown: task T1 accesses unknown region R96",
    "NStream/oversize: task T1 accesses 2097152 bytes of region R96 which only has 1",
    "NStream/ep: EP placement length mismatch",
    "QR factorization/unknown: task T156 accesses unknown region R168",
    "QR factorization/oversize: task T156 accesses 65536 bytes of region R168 which only has 1",
    "QR factorization/ep: EP placement length mismatch",
    "Red-Black/unknown: task T72 accesses unknown region R72",
    "Red-Black/oversize: task T72 accesses 524288 bytes of region R72 which only has 1",
    "Red-Black/ep: EP placement length mismatch",
    "Symm. mat. inv./unknown: task T39 accesses unknown region R39",
    "Symm. mat. inv./oversize: task T39 accesses 524288 bytes of region R39 which only has 1",
    "Symm. mat. inv./ep: EP placement length mismatch",
];
