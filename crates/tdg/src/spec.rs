//! Self-contained workload descriptions.
//!
//! A [`TaskGraphSpec`] bundles everything an executor needs to run (or
//! simulate) a task-based application: the TDG, which owns the sizes of the
//! data regions it references, and, optionally, the expert-programmer
//! placement the paper's `EP` policy uses. The graph is runnable by
//! construction (see [`TaskGraph::push_task`]), and the placement is checked
//! against it once, when attached, so a spec that exists can be run.

use std::sync::Arc;

use crate::graph::{Fnv1a, TaskGraph, TdgError};

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
    /// Hashes (FNV-1a) everything that determines execution behaviour: the
    /// name, every task's kind/work/accesses, the dependence edges with their
    /// byte weights, the region-size table and the expert placement. Two
    /// specs with identical content always fingerprint identically, across
    /// processes and runs — the report cache in `numadag-serve` uses this to
    /// content-address sweep results, so the hash must not depend on pointer
    /// identity, hash-map iteration order or `DefaultHasher` seeding.
    ///
    /// The tasks and edges are hashed once per graph (the graph remembers
    /// its fold); a call costs the name, the region table and the placement.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.write_str(&self.name);
        // The graph's share is memoised on the graph; the name before it
        // and the placement after it can differ between specs sharing one
        // `Arc<TaskGraph>`.
        h.0 = self.graph.fold_fingerprint(h.0);
        for &size in self.graph.region_sizes() {
            h.write_u64(size);
        }
        match &self.ep_socket {
            None => h.write_u64(u64::MAX),
            Some(placement) => {
                h.write_u64(placement.len() as u64);
                for &socket in placement {
                    h.write_u64(socket as u64);
                }
            }
        }
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TdgBuilder;
    use crate::task::{TaskId, TaskSpec};

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

    #[test]
    fn fingerprint_is_stable_for_equal_content() {
        let a = small_spec();
        let b = small_spec();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Known anchor: the fingerprint is a pure function of content, so it
        // must not drift between runs of the same build.
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn fingerprint_tracks_every_content_dimension() {
        let base = small_spec();
        let fp = base.fingerprint();

        let mut renamed = base.clone();
        renamed.name = "toy2".into();
        assert_ne!(fp, renamed.fingerprint(), "name must be hashed");

        let resized = TaskGraphSpec::new("toy", toy_graph(1.0, 257));
        assert_ne!(fp, resized.fingerprint(), "region sizes must be hashed");
        assert_eq!(resized.fingerprint(), reference_fingerprint(&resized));

        let placed = base.clone().with_ep_placement(vec![0, 1, 0]).unwrap();
        assert_ne!(fp, placed.fingerprint(), "EP placement must be hashed");
        let other_placement = base.clone().with_ep_placement(vec![1, 1, 0]).unwrap();
        assert_ne!(
            placed.fingerprint(),
            other_placement.fingerprint(),
            "distinct placements must differ"
        );

        let mut reworked = base.clone();
        reworked.graph = Arc::new(toy_graph(1.5, 256));
        assert_ne!(fp, reworked.fingerprint(), "task work must be hashed");

        // `renamed` / `placed` share `base`'s graph, whose fold `base` has
        // claimed by now: their second answers are their first.
        for (clone, first) in [
            (&renamed, renamed.fingerprint()),
            (&placed, placed.fingerprint()),
        ] {
            assert!(Arc::ptr_eq(&clone.graph, &base.graph));
            assert_eq!(clone.fingerprint(), first);
            assert_eq!(clone.fingerprint(), reference_fingerprint(clone));
        }
        assert_eq!(base.fingerprint(), fp);
    }

    /// [`TaskGraphSpec::fingerprint`] as it was before the graph memoised
    /// its share: one straight-line fold, successor edges read task by task.
    fn reference_fingerprint(spec: &TaskGraphSpec) -> u64 {
        let mut h = Fnv1a::default();
        h.write_str(&spec.name);
        h.write_u64(spec.graph.num_tasks() as u64);
        h.write_u64(spec.graph.num_edges() as u64);
        for task in spec.graph.tasks() {
            h.write_str(task.kind);
            h.write_u64(task.work_units.to_bits());
            h.write_u64(task.accesses.len() as u64);
            for access in task.accesses.iter() {
                h.write_u64(access.region.index() as u64);
                h.write_u64(match access.mode {
                    crate::task::AccessMode::In => 0,
                    crate::task::AccessMode::Out => 1,
                    crate::task::AccessMode::InOut => 2,
                });
                h.write_u64(access.bytes);
            }
        }
        let flat = spec.graph.flat();
        for id in spec.graph.task_ids() {
            for (&succ, &bytes) in flat.successors(id).iter().zip(flat.successor_bytes(id)) {
                h.write_u64(u64::from(succ));
                h.write_u64(bytes);
            }
        }
        for &size in spec.graph.region_sizes() {
            h.write_u64(size);
        }
        match spec.ep_placement() {
            None => h.write_u64(u64::MAX),
            Some(placement) => {
                h.write_u64(placement.len() as u64);
                for &socket in placement {
                    h.write_u64(socket as u64);
                }
            }
        }
        h.0
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

        // Another name enters the graph's fold in another state: it is
        // computed (every time — the memo belongs to the first name) and
        // does not disturb the answer the first name gets.
        let mut renamed = spec.clone();
        renamed.name = "toy2".into();
        assert_eq!(renamed.fingerprint(), reference_fingerprint(&renamed));
        assert_eq!(folds() - before, 2);
        assert_eq!(spec.fingerprint(), fp);
        assert_eq!(folds() - before, 2);
    }

    #[test]
    fn push_task_after_a_fingerprint_changes_the_next_one() {
        let spec = small_spec();
        let fp = spec.fingerprint();
        let mut graph = (*spec.graph).clone();
        let grown = |graph: &TaskGraph| TaskGraphSpec::new("toy", graph.clone());
        assert_eq!(grown(&graph).fingerprint(), fp);
        graph
            .push_task("tail", 1.0, &[], &[(TaskId(2), 8)])
            .unwrap();
        let after = grown(&graph);
        assert_ne!(after.fingerprint(), fp);
        assert_eq!(after.fingerprint(), reference_fingerprint(&after));
    }

    proptest::proptest! {
        /// Random DAGs with random names, region tables and placements: the
        /// memoised fingerprint — first call, repeat call, and the call of
        /// a renamed spec sharing the graph — is the straight-line fold.
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
            use crate::task::DataAccess;
            use numadag_numa::RegionId;
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
            let mut spec = TaskGraphSpec::new(name, graph);
            if placed == 1 {
                spec = spec.with_ep_placement((0..n).map(|t| t % 4).collect()).unwrap();
            }
            let want = reference_fingerprint(&spec);
            proptest::prop_assert_eq!(spec.fingerprint(), want);
            proptest::prop_assert_eq!(spec.fingerprint(), want);
            let mut renamed = spec.clone();
            renamed.name = format!("{name}'").into();
            proptest::prop_assert_eq!(renamed.fingerprint(), reference_fingerprint(&renamed));
            proptest::prop_assert_ne!(renamed.fingerprint(), want);
            proptest::prop_assert_eq!(spec.fingerprint(), want);
        }
    }
}
