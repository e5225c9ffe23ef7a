//! Bounded MPMC queue with opportunistic micro-batching.
//!
//! The serving core backpressures at two points — admission and the
//! per-worker window queues — and both use this queue: a `Mutex` +
//! `Condvar` ring with a hard capacity. `try_push` sheds instead of
//! blocking (the admission side of graceful degradation) and
//! [`BoundedQueue::pop_batch`] is the micro-batching discipline: block
//! for the first item, then take whatever else is already queued, up to
//! `max_batch`, and return. The consumer never waits for a batch to
//! fill, so batch size follows load by itself — 1 when idle, `max_batch`
//! when arrivals outpace service — and there is no delay to tune.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Result of a non-blocking push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The item was enqueued.
    Queued {
        /// Queue depth immediately after the push.
        depth: usize,
    },
    /// The queue was full; the item was returned to the caller.
    Full,
    /// The queue has been closed; the item was returned to the caller.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// Enqueues without blocking; sheds with [`PushOutcome::Full`] when at
    /// capacity. The item is returned alongside so the caller can reply.
    pub fn try_push(&self, item: T) -> (PushOutcome, Option<T>) {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return (PushOutcome::Closed, Some(item));
        }
        if st.items.len() >= self.capacity {
            return (PushOutcome::Full, Some(item));
        }
        st.items.push_back(item);
        let depth = st.items.len();
        drop(st);
        self.not_empty.notify_one();
        (PushOutcome::Queued { depth }, None)
    }

    /// Enqueues, blocking while the queue is at capacity — the
    /// backpressure path between pipeline stages. Returns the item back
    /// if the queue closes before space frees up.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return Err(item);
            }
            if st.items.len() < self.capacity {
                st.items.push_back(item);
                drop(st);
                self.not_empty.notify_one();
                return Ok(());
            }
            st = self.not_full.wait(st).unwrap();
        }
    }

    /// Pops one item, blocking until one arrives or the queue is closed
    /// and drained (`None`).
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }

    /// Pops a micro-batch: blocks for the first item, then takes whatever
    /// is already queued, up to `max_batch`, without waiting for more.
    /// Returns an empty vec only when the queue is closed and drained.
    pub fn pop_batch(&self, max_batch: usize) -> Vec<T> {
        let mut st = self.state.lock().unwrap();
        while st.items.is_empty() {
            if st.closed {
                return Vec::new();
            }
            st = self.not_empty.wait(st).unwrap();
        }
        let take = st.items.len().min(max_batch.max(1));
        let batch: Vec<T> = st.items.drain(..take).collect();
        drop(st);
        self.not_full.notify_all();
        batch
    }

    /// Closes the queue: pending items remain poppable, new pushes shed
    /// with [`PushOutcome::Closed`], and blocked poppers drain then get
    /// `None`/empty batches. Both condvars are notified — a producer
    /// blocked in [`Self::push`] at capacity waits on `not_full` and must
    /// observe the closure too, or shutdown deadlocks.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`Self::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn try_push_sheds_at_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).0, PushOutcome::Queued { depth: 1 });
        assert_eq!(q.try_push(2).0, PushOutcome::Queued { depth: 2 });
        let (outcome, returned) = q.try_push(3);
        assert_eq!(outcome, PushOutcome::Full);
        assert_eq!(returned, Some(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3).0, PushOutcome::Queued { depth: 2 });
    }

    /// The batcher never waits for a batch to fill: with fewer items
    /// queued than `max_batch` it returns exactly those, although no
    /// producer ever pushes again; with more it returns `max_batch`.
    #[test]
    fn pop_batch_takes_what_is_queued_and_never_waits() {
        let q = BoundedQueue::new(32);
        for i in 0..3 {
            q.try_push(i);
        }
        assert_eq!(q.pop_batch(8), vec![0, 1, 2]);
        for i in 0..20 {
            q.try_push(i);
        }
        assert_eq!(q.pop_batch(8), (0..8).collect::<Vec<_>>());
        assert_eq!(q.pop_batch(8), (8..16).collect::<Vec<_>>());
        assert_eq!(q.pop_batch(8), vec![16, 17, 18, 19]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn close_drains_then_stops() {
        let q = BoundedQueue::new(4);
        q.try_push(7);
        q.close();
        assert_eq!(q.try_push(8).0, PushOutcome::Closed);
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
        assert!(q.pop_batch(4).is_empty());
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.push(2));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(1));
        h.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(2));
        q.close();
        assert!(q.push(3).is_err(), "push after close returns the item");
    }

    /// Regression: a producer blocked in `push()` at capacity must be
    /// woken by `close()` and get its item back. Before the fix, `close()`
    /// notified only `not_empty`, so the producer hung on `not_full`
    /// forever and shutdown deadlocked.
    #[test]
    fn close_unblocks_producer_blocked_at_capacity() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap(); // fill to capacity
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2));
        // Let the producer reach the not_full wait.
        std::thread::sleep(Duration::from_millis(30));
        q.close();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !producer.is_finished() {
            assert!(
                Instant::now() < deadline,
                "close() must wake a producer blocked on not_full"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            producer.join().unwrap(),
            Err(2),
            "the blocked item comes back to the caller"
        );
        // The pre-close item is still poppable; then the queue is dry.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_batch_wakes_on_cross_thread_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_batch(4));
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42);
        let batch = h.join().unwrap();
        assert_eq!(batch, vec![42]);
    }
}
