//! Bounded FIFO queues with back-pressure accounting.

use std::collections::VecDeque;

use crate::stats::QueueStats;

/// A bounded FIFO connecting two pipeline stages of the simulated machine.
///
/// Producers must check [`BoundedQueue::can_accept`] (or use the fallible
/// [`BoundedQueue::try_push`]) before inserting; a full queue models the
/// back-pressure that, in the paper's design, stalls the address generators
/// when a combining store or a DRAM channel queue fills up (§3.2).
///
/// The queue records occupancy statistics used by the benchmark harness to
/// explain *why* a configuration is slow (e.g. hot-bank effects in Figure 7).
///
/// ```
/// use sa_sim::BoundedQueue;
/// let mut q: BoundedQueue<u32> = BoundedQueue::new(2);
/// assert!(q.try_push(1).is_ok());
/// assert!(q.try_push(2).is_ok());
/// assert_eq!(q.try_push(3), Err(3), "full queue rejects and returns the item");
/// assert_eq!(q.pop(), Some(1));
/// ```
#[derive(Clone, Debug)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    stats: QueueStats,
}

impl<T> BoundedQueue<T> {
    /// Create a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity queue can never carry
    /// traffic and always indicates a configuration bug.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue::new_at(capacity, 0)
    }

    /// [`BoundedQueue::new`] for a queue constructed mid-run at cycle `now`.
    ///
    /// Recording the construction cycle lets [`QueueStats::cycle_utilization`]
    /// normalize by the cycles the queue actually existed instead of the
    /// whole run.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new_at(capacity: usize, now: u64) -> BoundedQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
            stats: QueueStats {
                created_at: now,
                advanced_to: now,
                capacity: capacity as u64,
                ..QueueStats::default()
            },
        }
    }

    /// Fold the cycles elapsed up to `now` into the time-weighted occupancy
    /// statistics at the current occupancy. Owners call this once per tick.
    #[inline]
    pub fn advance(&mut self, now: u64) {
        self.stats.advance(self.items.len() as u64, now);
    }

    /// Whether one more item fits.
    #[inline]
    pub fn can_accept(&self) -> bool {
        self.items.len() < self.capacity
    }

    /// Number of free slots.
    #[inline]
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Push an item, returning it back if the queue is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the queue is at capacity; the caller keeps
    /// ownership and typically retries next cycle (a stall).
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        if self.can_accept() {
            self.items.push_back(item);
            self.stats
                .observe_push(self.items.len() as u64, self.capacity as u64);
            Ok(())
        } else {
            self.stats.rejected += 1;
            Err(item)
        }
    }

    /// Remove and return the oldest item.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peek at the oldest item without removing it.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupancy/stall statistics gathered so far.
    #[inline]
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// The statistics as they would read after [`advance`](Self::advance)
    /// to `now`, without advancing: for owners that fold a sleeping queue's
    /// elapsed cycles lazily.
    pub fn stats_at(&self, now: u64) -> QueueStats {
        let mut s = self.stats;
        s.advance(self.items.len() as u64, now);
        s
    }

    /// Iterate over queued items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Remove and return the oldest item only if `accept` approves it.
    ///
    /// This is the single-touch replacement for the `front().copied()` +
    /// re-`pop()` pattern: the consumer inspects the head in place, commits
    /// to it (e.g. by submitting it downstream) inside `accept`, and the item
    /// is popped only on approval — no clone, no double lookup.
    #[inline]
    pub fn pop_if<F: FnMut(&T) -> bool>(&mut self, mut accept: F) -> Option<T> {
        if accept(self.items.front()?) {
            self.items.pop_front()
        } else {
            None
        }
    }

    /// Remove and return the first item matching `pred`, preserving the order
    /// of the others.
    ///
    /// Used by response routing where a stage must claim the response for a
    /// specific request id out of a shared queue.
    pub fn take_first<F: FnMut(&T) -> bool>(&mut self, pred: F) -> Option<T> {
        let idx = self.items.iter().position(pred)?;
        self.items.remove(idx)
    }

    /// Remove and return the item at position `idx` (0 = oldest), preserving
    /// the order of the others. Returns `None` when out of range.
    pub fn take_at(&mut self, idx: usize) -> Option<T> {
        self.items.remove(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn capacity_enforced_and_counted() {
        let mut q = BoundedQueue::new(2);
        assert_eq!(q.free(), 2);
        q.try_push('a').unwrap();
        q.try_push('b').unwrap();
        assert!(!q.can_accept());
        assert_eq!(q.free(), 0);
        assert_eq!(q.try_push('c'), Err('c'));
        assert_eq!(q.try_push('d'), Err('d'));
        let s = q.stats();
        assert_eq!(s.enqueued, 2);
        assert_eq!(s.rejected, 2);
        assert_eq!(s.peak_occupancy, 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    #[test]
    fn take_first_preserves_order() {
        let mut q = BoundedQueue::new(4);
        for i in 1..=4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.take_first(|&x| x % 2 == 0), Some(2));
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, vec![1, 3, 4]);
    }

    #[test]
    fn mid_run_queue_normalizes_utilization_by_its_own_lifetime() {
        // Regression: utilization used to be normalized against the whole
        // run, so a queue created mid-run looked almost idle. Two queues
        // with identical traffic must report identical cycle utilization
        // regardless of when they were constructed.
        let drive = |mut q: BoundedQueue<u32>, start: u64| {
            for now in start..start + 100 {
                q.advance(now);
                if q.len() < 2 {
                    q.try_push(now as u32).unwrap();
                }
                if now % 4 == 3 {
                    q.pop();
                }
            }
            q.advance(start + 100);
            q.stats()
        };
        let from_zero = drive(BoundedQueue::new(4), 0);
        let mid_run = drive(BoundedQueue::new_at(4, 100_000), 100_000);
        assert!(from_zero.cycle_utilization() > 0.0);
        assert!(
            (from_zero.cycle_utilization() - mid_run.cycle_utilization()).abs() < 1e-12,
            "construction time must not skew utilization: {} vs {}",
            from_zero.cycle_utilization(),
            mid_run.cycle_utilization()
        );
        // Normalizing the mid-run queue's integral by all 100_100 elapsed
        // cycles (the old bug) would report far less than the true figure.
        let diluted = mid_run.occ_integral as f64 / (100_100.0 * 4.0);
        assert!(diluted < mid_run.cycle_utilization() / 100.0);
    }

    #[test]
    fn pop_if_touches_head_once() {
        let mut q = BoundedQueue::new(4);
        q.try_push(5).unwrap();
        q.try_push(6).unwrap();
        assert_eq!(q.pop_if(|&x| x > 10), None, "head stays when rejected");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_if(|&x| x == 5), Some(5));
        assert_eq!(q.front(), Some(&6));
        let mut empty: BoundedQueue<u32> = BoundedQueue::new(1);
        assert_eq!(empty.pop_if(|_| true), None);
    }

    #[test]
    fn front_and_iter() {
        let mut q = BoundedQueue::new(3);
        q.try_push(10).unwrap();
        q.try_push(20).unwrap();
        assert_eq!(q.front(), Some(&10));
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![10, 20]);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.capacity(), 3);
    }
}
