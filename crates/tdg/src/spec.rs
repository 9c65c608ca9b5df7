//! Self-contained workload descriptions.
//!
//! A [`TaskGraphSpec`] bundles everything an executor needs to run (or
//! simulate) a task-based application: the TDG, which owns the sizes of the
//! data regions it references, and, optionally, the expert-programmer
//! placement the paper's `EP` policy uses. The graph is runnable by
//! construction (see [`TaskGraph::push_task`]), and the placement is checked
//! against it once, when attached, so a spec that exists can be run.

use std::sync::Arc;

use crate::graph::{ContentHasher, TaskGraph, TdgError};

/// A complete workload: the task graph (with its region table) and an
/// optional expert placement.
///
/// The name and the graph are held by `Arc`: specs are cloned per sweep cell
/// (and their names copied into every execution report), so both must be
/// refcount bumps rather than deep copies.
#[derive(Clone, Debug)]
pub struct TaskGraphSpec {
    /// Human-readable name of the application (used in reports).
    pub name: Arc<str>,
    /// The task dependency graph.
    pub graph: Arc<TaskGraph>,
    /// Expert-programmer placement: for each task, the socket (by index) the
    /// benchmark author would pin it to. `None` if the kernel does not define
    /// an expert schedule.
    ep_socket: Option<Vec<usize>>,
}

impl TaskGraphSpec {
    /// Creates a spec without an expert placement.
    pub fn new(name: impl Into<Arc<str>>, graph: impl Into<Arc<TaskGraph>>) -> Self {
        TaskGraphSpec {
            name: name.into(),
            graph: graph.into(),
            ep_socket: None,
        }
    }

    /// Attaches an expert-programmer placement (one socket index per task),
    /// refusing one whose length is not the task count.
    pub fn with_ep_placement(mut self, placement: Vec<usize>) -> Result<Self, TdgError> {
        if placement.len() != self.graph.num_tasks() {
            return Err(TdgError::EpLength);
        }
        self.ep_socket = Some(placement);
        Ok(self)
    }

    /// The expert-programmer placement, one socket index per task, if the
    /// kernel defines one.
    pub fn ep_placement(&self) -> Option<&[usize]> {
        self.ep_socket.as_deref()
    }

    /// Number of tasks in the workload.
    pub fn num_tasks(&self) -> usize {
        self.graph.num_tasks()
    }

    /// Number of data regions in the workload.
    pub fn num_regions(&self) -> usize {
        self.graph.region_sizes().len()
    }

    /// A stable 64-bit content fingerprint of the workload.
    ///
    /// Hashes (see [`ContentHasher`]) everything that determines execution
    /// behaviour: every task's kind/work/accesses, the dependence edges with
    /// their byte weights, the region-size table, the name and the expert
    /// placement. Two specs with identical content always fingerprint
    /// identically, across processes and runs — the report cache in
    /// `numadag-serve` uses this to content-address sweep results, so the
    /// hash must not depend on pointer identity, hash-map iteration order or
    /// `DefaultHasher` seeding.
    ///
    /// The graph is hashed once (it remembers its share, whatever spec
    /// holds it); a call costs the name and the placement.
    pub fn fingerprint(&self) -> u64 {
        let mut h = ContentHasher::default();
        h.write_u64(self.graph.fingerprint());
        h.write_bytes(self.name.as_bytes());
        match &self.ep_socket {
            None => h.write_u64(u64::MAX),
            Some(placement) => {
                h.write_u64(placement.len() as u64);
                for &socket in placement {
                    h.write_u64(socket as u64);
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TdgBuilder;
    use crate::task::{DataAccess, TaskId, TaskSpec};
    use numadag_numa::RegionId;

    /// Two writers of a 128- and an `r1`-byte region and their reader; the
    /// first writer does `w0` units of work.
    fn toy_graph(w0: f64, r1: u64) -> TaskGraph {
        let mut b = TdgBuilder::new();
        let r0 = b.region(128);
        let r1 = b.region(r1);
        b.submit(TaskSpec::new("w0").work(w0).writes(r0, 128));
        b.submit(TaskSpec::new("w1").work(1.0).writes(r1, 256));
        b.submit(TaskSpec::new("sum").work(2.0).reads(r0, 128).reads(r1, 256));
        b.finish()
    }

    fn small_spec() -> TaskGraphSpec {
        TaskGraphSpec::new("toy", toy_graph(1.0, 256))
    }

    #[test]
    fn spec_accessors() {
        let s = small_spec();
        assert_eq!(&*s.name, "toy");
        assert_eq!(s.num_tasks(), 3);
        assert_eq!(s.num_regions(), 2);
        assert_eq!(s.graph.region_sizes().iter().sum::<u64>(), 384);
        assert!(s.ep_placement().is_none());
    }

    #[test]
    fn ep_placement_round_trip() {
        let s = small_spec().with_ep_placement(vec![0, 1, 0]).unwrap();
        assert_eq!(s.ep_placement(), Some(&[0, 1, 0][..]));
    }

    #[test]
    fn wrong_ep_length_rejected() {
        for placement in [vec![0, 1], vec![0, 1, 0, 1]] {
            let refused = small_spec().with_ep_placement(placement).unwrap_err();
            assert_eq!(refused, TdgError::EpLength);
            assert_eq!(refused.to_string(), "EP placement length mismatch");
        }
    }

    /// A spec built again from the same content, and a clone, fingerprint
    /// like the original: the first pass over the columns of a fresh graph
    /// is the memo of another.
    #[test]
    fn fingerprint_is_stable_for_equal_content() {
        for placement in [None, Some(vec![0, 1, 0])] {
            let build = || match &placement {
                None => small_spec(),
                Some(p) => small_spec().with_ep_placement(p.clone()).unwrap(),
            };
            let (a, b) = (build(), build());
            assert!(!Arc::ptr_eq(&a.graph, &b.graph));
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert_eq!(a.fingerprint(), a.clone().fingerprint());
        }
    }

    /// A graph shaped like [`toy_graph`]'s, pushed directly so that each
    /// argument reaches exactly one column: the three kinds, the reader's
    /// two accesses, the bytes of its edge from the first writer, the size
    /// of the second region and the first writer's work.
    fn pushed(
        kinds: [&str; 3],
        reads: [DataAccess; 2],
        edge: u64,
        size: u64,
        w0: f64,
    ) -> TaskGraph {
        let mut g = TaskGraph::new();
        let (r0, r1) = (g.region(128), g.region(size));
        g.push_task(kinds[0], w0, &[DataAccess::write(r0, 128)], &[])
            .unwrap();
        g.push_task(kinds[1], 1.0, &[DataAccess::write(r1, 128)], &[])
            .unwrap();
        let deps = [(TaskId(0), edge), (TaskId(1), 128)];
        g.push_task(kinds[2], 2.0, &reads, &deps).unwrap();
        g
    }

    /// Each single change of content — a kind in the table, a task's index
    /// into it, the order and mode of an access, an edge's bytes, a region
    /// size, a task's work, the name and the placement — moves the
    /// fingerprint, and no two of them land on one value.
    #[test]
    fn fingerprint_tracks_every_content_dimension() {
        let (r0, r1) = (RegionId(0), RegionId(1));
        let reads = [DataAccess::read(r0, 128), DataAccess::read(r1, 128)];
        let kinds = ["w", "v", "w"];
        let base = TaskGraphSpec::new("toy", pushed(kinds, reads, 128, 128, 1.0));
        let variant = |graph: TaskGraph| TaskGraphSpec::new("toy", graph);
        let mut specs = vec![
            ("base", base.clone()),
            // The kind table changes, every task's index into it does not;
            // then the other way round.
            (
                "kind table",
                variant(pushed(["w", "u", "w"], reads, 128, 128, 1.0)),
            ),
            (
                "kind index",
                variant(pushed(["w", "v", "v"], reads, 128, 128, 1.0)),
            ),
            (
                "access order",
                variant(pushed(kinds, [reads[1], reads[0]], 128, 128, 1.0)),
            ),
            (
                "access mode",
                variant(pushed(
                    kinds,
                    [DataAccess::read_write(r0, 128), reads[1]],
                    128,
                    128,
                    1.0,
                )),
            ),
            ("edge bytes", variant(pushed(kinds, reads, 64, 128, 1.0))),
            ("region size", variant(pushed(kinds, reads, 128, 129, 1.0))),
            ("work", variant(pushed(kinds, reads, 128, 128, 1.5))),
            ("name", TaskGraphSpec::new("toy2", base.graph.clone())),
        ];
        for placement in [vec![0, 1, 0], vec![1, 1, 0]] {
            let placed = base.clone().with_ep_placement(placement).unwrap();
            specs.push(("placement", placed));
        }
        let mut seen = std::collections::HashMap::new();
        for (change, spec) in &specs {
            if let Some(other) = seen.insert(spec.fingerprint(), change) {
                panic!("{change} fingerprints like {other}");
            }
        }
        // The specs sharing `base`'s graph share its hashed share, too.
        assert!(Arc::ptr_eq(&specs[8].1.graph, &base.graph));
        assert_eq!(base.fingerprint(), specs[0].1.fingerprint());
    }

    fn folds() -> usize {
        crate::graph::FOLDS.with(|folds| folds.get())
    }

    #[test]
    fn a_graph_is_folded_once_however_often_its_spec_is_fingerprinted() {
        let spec = small_spec();
        let before = folds();
        let fp = spec.fingerprint();
        // What one proc sweep asks of a spec: five cells and one transfer.
        for _ in 0..6 {
            assert_eq!(spec.fingerprint(), fp);
        }
        assert_eq!(folds() - before, 1);

        // A clone keeps the memo, whether it shares the graph or copies it.
        assert_eq!(spec.clone().fingerprint(), fp);
        let deep = TaskGraphSpec::new("toy", (*spec.graph).clone());
        assert!(!Arc::ptr_eq(&deep.graph, &spec.graph));
        assert_eq!(deep.fingerprint(), fp);
        assert_eq!(folds() - before, 1);

        // The graph's share is hashed before the name: a renamed spec
        // sharing the graph is another fingerprint from the same fold.
        let mut renamed = spec.clone();
        renamed.name = "toy2".into();
        assert_ne!(renamed.fingerprint(), fp);
        assert_eq!(spec.fingerprint(), fp);
        assert_eq!(folds() - before, 1);
    }

    #[test]
    fn push_task_after_a_fingerprint_changes_the_next_one() {
        let spec = small_spec();
        let fp = spec.fingerprint();
        let mut graph = (*spec.graph).clone();
        let grown = |graph: &TaskGraph| TaskGraphSpec::new("toy", graph.clone());
        assert_eq!(grown(&graph).fingerprint(), fp);
        let tail = |graph: &mut TaskGraph| {
            graph
                .push_task("tail", 1.0, &[], &[(TaskId(2), 8)])
                .unwrap()
        };
        tail(&mut graph);
        let after = grown(&graph);
        assert_ne!(after.fingerprint(), fp);
        // The same four tasks, never hashed before the last push.
        let mut fresh = toy_graph(1.0, 256);
        tail(&mut fresh);
        assert_eq!(after.fingerprint(), grown(&fresh).fingerprint());
    }

    proptest::proptest! {
        /// Random DAGs with random names, region tables and placements: the
        /// memoised fingerprint — first call, repeat call, a clone — is the
        /// straight-line fold, the first pass over the same content pushed
        /// onto a graph of its own; a renamed spec sharing the graph is
        /// another fingerprint.
        #[test]
        fn memoised_fingerprint_matches_the_straight_line_fold(
            tasks in proptest::collection::vec(
                (proptest::collection::vec((0usize..1000, 0u64..5000), 0..5), 0usize..4, 0u64..100),
                0..40,
            ),
            name_len in 0usize..6,
            placed in 0u8..2,
        ) {
            let name = &"abcdef"[..name_len];
            let build = || {
                let mut graph = TaskGraph::new();
                for r in 0..7 {
                    graph.region(1000 + r * 100);
                }
                for (t, (deps, accesses, work)) in tasks.iter().enumerate() {
                    let deps: Vec<(TaskId, u64)> = deps
                        .iter()
                        .filter(|_| t > 0)
                        .map(|&(p, b)| (TaskId(p % t.max(1)), b))
                        .collect();
                    let accesses: Vec<DataAccess> = (0..*accesses)
                        .map(|a| match a % 3 {
                            0 => DataAccess::read(RegionId((t + a) % 7), (t * a) as u64),
                            1 => DataAccess::write(RegionId((t + a) % 7), t as u64),
                            _ => DataAccess::read_write(RegionId((t + a) % 7), a as u64),
                        })
                        .collect();
                    graph
                        .push_task(&format!("k{}", t % 3), *work as f64 * 0.25, &accesses, &deps)
                        .unwrap();
                }
                let n = graph.num_tasks();
                let spec = TaskGraphSpec::new(name, graph);
                match placed {
                    1 => spec.with_ep_placement((0..n).map(|t| t % 4).collect()).unwrap(),
                    _ => spec,
                }
            };
            let spec = build();
            let want = spec.fingerprint();
            proptest::prop_assert_eq!(spec.fingerprint(), want);
            proptest::prop_assert_eq!(spec.clone().fingerprint(), want);
            let mut renamed = spec.clone();
            renamed.name = format!("{name}'").into();
            proptest::prop_assert_ne!(renamed.fingerprint(), want);
            proptest::prop_assert_eq!(build().fingerprint(), want);
            proptest::prop_assert_eq!(spec.fingerprint(), want);
        }
    }
}
