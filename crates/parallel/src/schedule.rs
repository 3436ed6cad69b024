//! Per-thread iteration schedules.
//!
//! A thread executes its iteration blocks in round-robin order and walks
//! each block lexicographically (outer loops slowest).
//! [`ThreadSchedule::iterations`] yields that order one allocated vector
//! per iteration, so it is the reference walker only: behind the
//! reference trace generator, the layout pass's oracle and tests. The
//! layout pass and the fast trace generator walk the same order one
//! innermost segment at a time with incremental cursors.

use crate::blocks::BlockPartition;
use flo_polyhedral::IterSpace;

/// Lazy walk of the iterations executed by one thread.
#[derive(Clone, Debug)]
pub struct ThreadSchedule<'a> {
    space: &'a IterSpace,
    partition: &'a BlockPartition,
    thread: usize,
}

impl<'a> ThreadSchedule<'a> {
    /// Schedule of thread `t` under the given partition of `space`.
    pub fn new(space: &'a IterSpace, partition: &'a BlockPartition, thread: usize) -> Self {
        assert!(
            thread < partition.num_threads(),
            "ThreadSchedule: thread out of range"
        );
        ThreadSchedule {
            space,
            partition,
            thread,
        }
    }

    /// Total number of iterations this thread executes.
    pub fn iteration_count(&self) -> i64 {
        let other: i64 = (0..self.space.rank())
            .filter(|&k| k != self.partition.u())
            .map(|k| self.space.trip_count(k))
            .product();
        let width: i64 = self
            .partition
            .blocks_of_thread(self.thread)
            .map(|b| b.width())
            .sum();
        width * other
    }

    /// Iterate over the thread's iteration vectors in execution order
    /// (the reference walker; see the module docs).
    pub fn iterations(&self) -> impl Iterator<Item = Vec<i64>> + '_ {
        let u = self.partition.u();
        self.partition
            .blocks_of_thread(self.thread)
            .flat_map(move |block| {
                // Walk the sub-box where dimension u is restricted to the block.
                let mut lower: Vec<i64> = (0..self.space.rank())
                    .map(|k| self.space.lower(k))
                    .collect();
                let mut upper: Vec<i64> = (0..self.space.rank())
                    .map(|k| self.space.upper(k))
                    .collect();
                lower[u] = block.lo;
                upper[u] = block.hi;
                IterSpace::new(lower, upper).iter().collect::<Vec<_>>()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn schedules_partition_the_space() {
        let space = IterSpace::from_extents(&[6, 3]);
        let p = BlockPartition::new(&space, 0, 6, 2);
        let mut seen: HashSet<Vec<i64>> = HashSet::new();
        let mut total = 0usize;
        for t in 0..2 {
            let sched = ThreadSchedule::new(&space, &p, t);
            for i in sched.iterations() {
                assert!(space.contains(&i));
                assert!(seen.insert(i.clone()), "iteration {i:?} executed twice");
                total += 1;
            }
        }
        assert_eq!(total as i64, space.total_iterations());
    }

    #[test]
    fn iteration_count_matches_walk() {
        let space = IterSpace::from_extents(&[10, 4]);
        let p = BlockPartition::new(&space, 0, 4, 3);
        for t in 0..3 {
            let sched = ThreadSchedule::new(&space, &p, t);
            assert_eq!(sched.iterations().count() as i64, sched.iteration_count());
        }
    }

    #[test]
    fn round_robin_order_within_thread() {
        let space = IterSpace::from_extents(&[8, 1]);
        let p = BlockPartition::new(&space, 0, 4, 2);
        let sched = ThreadSchedule::new(&space, &p, 0);
        // Thread 0 owns blocks 0 ([0,2)) and 2 ([4,6)), in that order.
        let coords: Vec<i64> = sched.iterations().map(|i| i[0]).collect();
        assert_eq!(coords, vec![0, 1, 4, 5]);
    }

    #[test]
    fn inner_dimension_parallelization() {
        let space = IterSpace::from_extents(&[2, 8]);
        let p = BlockPartition::new(&space, 1, 4, 4);
        let sched = ThreadSchedule::new(&space, &p, 2);
        // Thread 2 owns block 2 = i1 in [4,6); outer loop i0 in [0,2).
        let iters: Vec<Vec<i64>> = sched.iterations().collect();
        assert_eq!(iters, vec![vec![0, 4], vec![0, 5], vec![1, 4], vec![1, 5]]);
    }

    #[test]
    fn thread_with_no_blocks_is_empty() {
        let space = IterSpace::from_extents(&[2, 2]);
        // 2 blocks, 4 threads: threads 2 and 3 get nothing.
        let p = BlockPartition::new(&space, 0, 2, 4);
        let sched = ThreadSchedule::new(&space, &p, 3);
        assert_eq!(sched.iterations().count(), 0);
        assert_eq!(sched.iteration_count(), 0);
    }
}
