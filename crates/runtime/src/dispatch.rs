//! The simulator's per-socket task queues and idle-core stacks, and the
//! dispatcher that matches one against the other.
//!
//! One completion event changes one idle stack and the few queues that just
//! received an assignment, so the dispatcher does not scan the sockets: two
//! bitmasks (queue non-empty, idle core available) are kept at the four
//! mutation points and [`SocketQueues::dispatch`] iterates their set bits in
//! ascending order — the sockets the linear scan it replaces would have
//! stopped at, in the order it would have reached them.

use std::collections::VecDeque;

use numadag_numa::{CoreId, SocketId};
use numadag_tdg::TaskId;

use crate::config::StealMode;

/// Sockets one mask word covers; [`crate::Simulator::new`] refuses more.
pub(crate) const MAX_SOCKETS: usize = u64::BITS as usize;

/// Per-socket FIFO queues of assigned-but-not-started tasks and stacks of
/// idle cores. Reused across the cells of a sweep: [`SocketQueues::reset`]
/// clears contents, never capacity.
#[derive(Debug, Default)]
pub(crate) struct SocketQueues {
    queues: Vec<VecDeque<TaskId>>,
    /// Idle cores per socket, lowest core id on top.
    idle: Vec<Vec<CoreId>>,
    /// Bit `s` set ⇔ `queues[s]` is non-empty.
    queued: u64,
    /// Bit `s` set ⇔ `idle[s]` is non-empty.
    available: u64,
}

impl SocketQueues {
    /// Empties every queue and refills the idle stacks from `idle_template`
    /// (one stack per socket, at most [`MAX_SOCKETS`]).
    pub(crate) fn reset(&mut self, idle_template: &[Vec<CoreId>]) {
        let num_sockets = idle_template.len();
        debug_assert!(num_sockets <= MAX_SOCKETS);
        self.queues.truncate(num_sockets);
        self.queues.resize_with(num_sockets, VecDeque::new);
        self.idle.truncate(num_sockets);
        self.idle.resize_with(num_sockets, Vec::new);
        self.queued = 0;
        self.available = 0;
        for (s, template) in idle_template.iter().enumerate() {
            self.queues[s].clear();
            self.idle[s].clear();
            self.idle[s].extend_from_slice(template);
            self.available |= u64::from(!template.is_empty()) << s;
        }
    }

    /// Appends `task` to `socket`'s queue (a policy assignment).
    #[inline]
    pub(crate) fn push(&mut self, socket: SocketId, task: TaskId) {
        self.queues[socket.index()].push_back(task);
        self.queued |= 1 << socket.index();
    }

    /// Returns `core` to `socket`'s idle stack (its task completed).
    #[inline]
    pub(crate) fn release(&mut self, socket: SocketId, core: CoreId) {
        self.idle[socket.index()].push(core);
        self.available |= 1 << socket.index();
    }

    fn take_core(&mut self, s: usize) -> CoreId {
        let core = self.idle[s].pop().expect("available bit set");
        self.available &= !(u64::from(self.idle[s].is_empty()) << s);
        core
    }

    fn take_task(&mut self, s: usize, stolen: bool) -> TaskId {
        let queue = &mut self.queues[s];
        let task = if stolen {
            queue.pop_back()
        } else {
            queue.pop_front()
        };
        self.queued &= !(u64::from(queue.is_empty()) << s);
        task.expect("queued bit set")
    }

    /// Matches idle cores with queued tasks and calls `start(task, core,
    /// stolen)` for each match, in order: first every socket, ascending,
    /// drains its own queue front-first into its own idle cores; then, under
    /// [`StealMode::NearestSocket`], every socket with cores still idle,
    /// ascending, takes tasks from the back of the first non-empty queue in
    /// its `steal_order` (the other sockets, nearest first).
    #[inline]
    pub(crate) fn dispatch(
        &mut self,
        steal: StealMode,
        steal_order: &[Vec<u32>],
        mut start: impl FnMut(TaskId, CoreId, bool),
    ) {
        let mut local = self.queued & self.available;
        while local != 0 {
            let s = local.trailing_zeros() as usize;
            local &= local - 1;
            while (self.queued & self.available) >> s & 1 != 0 {
                let task = self.take_task(s, false);
                let core = self.take_core(s);
                start(task, core, false);
            }
        }
        if steal != StealMode::NearestSocket {
            return;
        }
        // Stealing for socket `s` only clears `s`'s own available bit, so a
        // snapshot visits the same sockets a re-read per step would.
        let mut thieves = self.available;
        while thieves != 0 && self.queued != 0 {
            let s = thieves.trailing_zeros() as usize;
            thieves &= thieves - 1;
            while self.available >> s & 1 != 0 {
                let victim = steal_order[s]
                    .iter()
                    .map(|&v| v as usize)
                    .find(|&v| self.queued >> v & 1 != 0);
                let Some(victim) = victim else { break };
                let task = self.take_task(victim, true);
                let core = self.take_core(s);
                start(task, core, true);
            }
        }
    }

    /// The linear scan [`SocketQueues::dispatch`] replaced, kept as the
    /// reference the model test compares it against.
    #[cfg(test)]
    fn dispatch_reference(
        &mut self,
        steal: StealMode,
        steal_order: &[Vec<u32>],
        mut start: impl FnMut(TaskId, CoreId, bool),
    ) {
        let (queues, idle) = (&mut self.queues, &mut self.idle);
        let num_sockets = queues.len();
        for s in 0..num_sockets {
            while !queues[s].is_empty() && !idle[s].is_empty() {
                let task = queues[s].pop_front().unwrap();
                let core = idle[s].pop().unwrap();
                start(task, core, false);
            }
        }
        if steal == StealMode::NearestSocket {
            for s in 0..num_sockets {
                while !idle[s].is_empty() {
                    let victim = steal_order[s]
                        .iter()
                        .map(|&v| v as usize)
                        .find(|&v| !queues[v].is_empty());
                    let Some(victim) = victim else { break };
                    let task = queues[victim].pop_back().unwrap();
                    let core = idle[s].pop().unwrap();
                    start(task, core, true);
                }
            }
        }
        self.queued = 0;
        self.available = 0;
        for s in 0..num_sockets {
            self.queued |= u64::from(!self.queues[s].is_empty()) << s;
            self.available |= u64::from(!self.idle[s].is_empty()) << s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Queue contents, idle stacks and steal orders for `num_sockets`
    /// sockets, all derived from `words`: most queues and stacks empty (the
    /// common state of a running simulation), a few holding up to three
    /// entries, every steal order a rotation-then-swap of the other sockets.
    fn scenario(num_sockets: usize, words: &[u64]) -> (SocketQueues, Vec<Vec<u32>>) {
        let word = |i: usize| words[i % words.len()].rotate_left((i / words.len()) as u32 * 7);
        let mut state = SocketQueues::default();
        state.reset(&vec![Vec::new(); num_sockets]);
        let mut next_task = 0;
        for s in 0..num_sockets {
            let w = word(s);
            let queued = if w & 3 == 0 { 1 + (w >> 2 & 3) % 3 } else { 0 };
            for _ in 0..queued {
                state.push(SocketId(s), TaskId(next_task));
                next_task += 1;
            }
            let idle = if w >> 8 & 3 == 0 {
                1 + (w >> 10 & 3) % 3
            } else {
                0
            };
            for c in 0..idle {
                state.release(SocketId(s), CoreId(s * 4 + c as usize));
            }
        }
        let steal_order = (0..num_sockets)
            .map(|s| {
                let mut order: Vec<u32> = (0..num_sockets as u32)
                    .filter(|&v| v as usize != s)
                    .collect();
                let len = order.len();
                if len > 0 {
                    let w = word(num_sockets + s) as usize;
                    order.rotate_left(w % len);
                    order.swap((w >> 8) % len, (w >> 16) % len);
                }
                order
            })
            .collect();
        (state, steal_order)
    }

    fn snapshot(state: &SocketQueues) -> (Vec<Vec<TaskId>>, Vec<Vec<CoreId>>, u64, u64) {
        (
            state
                .queues
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
            state.idle.clone(),
            state.queued,
            state.available,
        )
    }

    proptest! {
        #[test]
        fn bitmask_dispatch_matches_the_linear_scan(
            words in prop::collection::vec(0u64..u64::MAX, 1..24),
        ) {
            for num_sockets in [1usize, 2, 8, 64] {
                for steal in [StealMode::NearestSocket, StealMode::NoStealing] {
                    let (mut fast, steal_order) = scenario(num_sockets, &words);
                    let (mut reference, _) = scenario(num_sockets, &words);
                    let mut started = Vec::new();
                    fast.dispatch(steal, &steal_order, |t, c, stolen| started.push((t, c, stolen)));
                    let mut expected = Vec::new();
                    reference.dispatch_reference(steal, &steal_order, |t, c, stolen| {
                        expected.push((t, c, stolen))
                    });
                    prop_assert_eq!(&started, &expected, "{} sockets, {:?}", num_sockets, steal);
                    prop_assert_eq!(snapshot(&fast), snapshot(&reference));
                    // Nothing is left that the dispatcher could still match.
                    prop_assert_eq!(fast.queued & fast.available, 0);
                    if steal == StealMode::NearestSocket {
                        prop_assert!(fast.queued == 0 || fast.available == 0);
                    }
                }
            }
        }
    }

    #[test]
    fn local_tasks_run_front_first_and_steals_take_the_back_of_the_nearest_queue() {
        let mut state = SocketQueues::default();
        state.reset(&[vec![CoreId(0)], vec![], vec![CoreId(9), CoreId(8)]]);
        for t in 0..3 {
            state.push(SocketId(0), TaskId(t));
        }
        state.push(SocketId(1), TaskId(3));
        // Socket 2 prefers socket 1, then socket 0.
        let steal_order = vec![vec![1, 2], vec![0, 2], vec![1, 0]];
        let mut started = Vec::new();
        state.dispatch(StealMode::NearestSocket, &steal_order, |t, c, stolen| {
            started.push((t.index(), c.index(), stolen))
        });
        assert_eq!(started, vec![(0, 0, false), (3, 8, true), (2, 9, true)]);
        assert_eq!(snapshot(&state).0[0], vec![TaskId(1)]);
        assert_eq!((state.queued, state.available), (0b001, 0));
    }
}
