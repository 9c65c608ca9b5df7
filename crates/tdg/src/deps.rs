//! Incremental dependence derivation with OpenMP/OmpSs `depend` semantics.
//!
//! Tasks are registered in program order. For every region the tracker keeps
//! the last writer and the set of readers since that write, and emits:
//!
//! * **RAW** (read after write): reader depends on the last writer.
//! * **WAW** (write after write): new writer depends on the last writer.
//! * **WAR** (write after read): new writer depends on every reader since the
//!   last write.
//!
//! Each emitted dependence carries the number of bytes of the access that
//! induced it; duplicate edges between the same pair of tasks are merged by
//! the graph with their byte counts added, matching how the paper weighs TDG
//! edges "depending on the amount of bytes they represent".

use crate::task::{DataAccess, TaskId};

#[derive(Clone, Debug, Default)]
struct RegionState {
    last_writer: Option<TaskId>,
    readers_since_write: Vec<TaskId>,
}

/// Incremental dependence tracker.
///
/// Region ids are dense by construction ([`crate::TdgBuilder::region`] hands
/// them out in sequence), so the per-region state lives in a vector indexed
/// by [`numadag_numa::RegionId::index`], grown to the highest id seen.
#[derive(Clone, Debug, Default)]
pub(crate) struct DependencyTracker {
    regions: Vec<RegionState>,
}

impl DependencyTracker {
    /// Registers the accesses of `task` (which must be submitted in program
    /// order, i.e. with increasing ids) and writes the dependences it incurs
    /// into `deps` (cleared first) as `(predecessor, bytes)` pairs — the
    /// shape [`crate::TaskGraph::push_task`] takes, so a builder submitting
    /// task after task reuses one buffer.
    pub(crate) fn register_into(
        &mut self,
        task: TaskId,
        accesses: &[DataAccess],
        deps: &mut Vec<(TaskId, u64)>,
    ) {
        deps.clear();
        for access in accesses {
            // A region nobody touched yet has no writer and no readers.
            let Some(state) = self.regions.get(access.region.index()) else {
                continue;
            };
            if access.mode.reads() {
                if let Some(writer) = state.last_writer {
                    if writer != task {
                        deps.push((writer, access.bytes));
                    }
                }
            }
            if access.mode.writes() {
                // WAR against every reader since the last write.
                for &reader in &state.readers_since_write {
                    if reader != task {
                        deps.push((reader, access.bytes));
                    }
                }
                // WAW against the last writer — but only when there are no
                // intervening readers (they already order this task after the
                // old writer transitively) and when the access did not read
                // (a RAW edge to the same writer was emitted above).
                if state.readers_since_write.is_empty() && !access.mode.reads() {
                    if let Some(writer) = state.last_writer {
                        if writer != task {
                            deps.push((writer, access.bytes));
                        }
                    }
                }
            }
        }
        // Second pass: update region states (done separately so a task with
        // an `inout` access does not see itself as a previous reader/writer).
        for access in accesses {
            let index = access.region.index();
            if index >= self.regions.len() {
                self.regions.resize_with(index + 1, RegionState::default);
            }
            let state = &mut self.regions[index];
            if access.mode.writes() {
                state.last_writer = Some(task);
                state.readers_since_write.clear();
            }
            if access.mode.reads() && !access.mode.writes() {
                state.readers_since_write.push(task);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::DataAccess;
    use numadag_numa::RegionId;

    fn r(i: usize) -> RegionId {
        RegionId(i)
    }

    fn register(
        t: &mut DependencyTracker,
        task: TaskId,
        accesses: &[DataAccess],
    ) -> Vec<(TaskId, u64)> {
        let mut deps = Vec::new();
        t.register_into(task, accesses, &mut deps);
        deps
    }

    #[test]
    fn raw_dependence() {
        let mut t = DependencyTracker::default();
        assert!(register(&mut t, TaskId(0), &[DataAccess::write(r(0), 100)]).is_empty());
        let deps = register(&mut t, TaskId(1), &[DataAccess::read(r(0), 100)]);
        assert_eq!(deps, vec![(TaskId(0), 100)]);
    }

    #[test]
    fn waw_dependence() {
        let mut t = DependencyTracker::default();
        register(&mut t, TaskId(0), &[DataAccess::write(r(0), 50)]);
        let deps = register(&mut t, TaskId(1), &[DataAccess::write(r(0), 50)]);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].0, TaskId(0));
        // The second write is now the one a read depends on.
        let deps = register(&mut t, TaskId(2), &[DataAccess::read(r(0), 50)]);
        assert_eq!(deps, vec![(TaskId(1), 50)]);
    }

    #[test]
    fn war_dependence_covers_all_readers() {
        let mut t = DependencyTracker::default();
        register(&mut t, TaskId(0), &[DataAccess::write(r(0), 10)]);
        register(&mut t, TaskId(1), &[DataAccess::read(r(0), 10)]);
        register(&mut t, TaskId(2), &[DataAccess::read(r(0), 10)]);
        let deps = register(&mut t, TaskId(3), &[DataAccess::write(r(0), 10)]);
        let preds: Vec<TaskId> = deps.iter().map(|d| d.0).collect();
        assert!(preds.contains(&TaskId(1)));
        assert!(preds.contains(&TaskId(2)));
        // No WAW against task 0: the readers already order task 3 after it
        // transitively, and OmpSs emits WAR edges in this situation.
        assert_eq!(deps.len(), 2);
    }

    #[test]
    fn inout_chains_serialise() {
        let mut t = DependencyTracker::default();
        register(&mut t, TaskId(0), &[DataAccess::read_write(r(0), 64)]);
        let d1 = register(&mut t, TaskId(1), &[DataAccess::read_write(r(0), 64)]);
        let d2 = register(&mut t, TaskId(2), &[DataAccess::read_write(r(0), 64)]);
        assert_eq!(d1.len(), 1);
        assert_eq!(d1[0].0, TaskId(0));
        assert_eq!(d2.len(), 1);
        assert_eq!(d2[0].0, TaskId(1));
    }

    #[test]
    fn independent_regions_have_no_deps() {
        let mut t = DependencyTracker::default();
        register(&mut t, TaskId(0), &[DataAccess::write(r(0), 8)]);
        let deps = register(&mut t, TaskId(1), &[DataAccess::write(r(1), 8)]);
        assert!(deps.is_empty());
    }

    #[test]
    fn readers_reset_after_write() {
        let mut t = DependencyTracker::default();
        register(&mut t, TaskId(0), &[DataAccess::write(r(0), 8)]);
        register(&mut t, TaskId(1), &[DataAccess::read(r(0), 8)]);
        register(&mut t, TaskId(2), &[DataAccess::write(r(0), 8)]);
        // A new reader depends only on the latest writer, not on task 1.
        let deps = register(&mut t, TaskId(3), &[DataAccess::read(r(0), 8)]);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].0, TaskId(2));
    }

    #[test]
    fn multi_access_task_emits_all_deps() {
        let mut t = DependencyTracker::default();
        register(&mut t, TaskId(0), &[DataAccess::write(r(0), 100)]);
        register(&mut t, TaskId(1), &[DataAccess::write(r(1), 200)]);
        let deps = register(
            &mut t,
            TaskId(2),
            &[
                DataAccess::read(r(0), 100),
                DataAccess::read(r(1), 200),
                DataAccess::write(r(2), 300),
            ],
        );
        assert_eq!(deps.len(), 2);
        let total: u64 = deps.iter().map(|d| d.1).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn concurrent_readers_do_not_depend_on_each_other() {
        let mut t = DependencyTracker::default();
        register(&mut t, TaskId(0), &[DataAccess::write(r(0), 8)]);
        let d1 = register(&mut t, TaskId(1), &[DataAccess::read(r(0), 8)]);
        let d2 = register(&mut t, TaskId(2), &[DataAccess::read(r(0), 8)]);
        assert_eq!(d1[0].0, TaskId(0));
        assert_eq!(d2[0].0, TaskId(0));
        assert_eq!(d2.len(), 1);
    }
}
