//! The bounded queue: the one place work waits, in the serve pool and
//! between stream stages.
//!
//! A full queue either sheds or blocks, and each caller picks one:
//!
//! - the serve pool **sheds** ([`BoundedQueue::try_push`]): a request that
//!   finds the queue full is rejected as `Overloaded` at once, and the
//!   client decides whether to retry;
//! - a stream **blocks** ([`BoundedQueue::push`]): the producer waits for
//!   a slot, so a slow consumer slows the source (via TCP flow control or
//!   a stalled file reader) instead of growing memory without bound.
//!   Shedding would break the streamed-vs-one-shot equivalence oracle —
//!   every admitted record must produce exactly one in-order result.

use std::collections::VecDeque;
use std::sync::mpsc::TrySendError;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A multi-producer, multi-consumer bounded queue with blocking or
/// shedding push, blocking pop, and a close signal for shutdown drains.
pub struct BoundedQueue<T> {
    cap: usize,
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `cap` items (at least 1).
    pub fn new(cap: usize) -> Self {
        BoundedQueue {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Blocks while the queue is full, then enqueues `item`.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue was closed (receivers are gone;
    /// the producer should stop).
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut g = self.inner.lock().expect("queue poisoned");
        while g.items.len() >= self.cap && !g.closed {
            g = self.not_full.wait(g).expect("queue poisoned");
        }
        if g.closed {
            return Err(item);
        }
        g.items.push_back(item);
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues `item` if there is room, without blocking.
    ///
    /// # Errors
    ///
    /// Hands the item back: [`TrySendError::Full`] at capacity,
    /// [`TrySendError::Disconnected`] once the queue is closed.
    pub fn try_push(&self, item: T) -> Result<(), TrySendError<T>> {
        let mut g = self.inner.lock().expect("queue poisoned");
        if g.closed {
            return Err(TrySendError::Disconnected(item));
        }
        if g.items.len() >= self.cap {
            return Err(TrySendError::Full(item));
        }
        g.items.push_back(item);
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks while the queue is empty and open; `None` means closed and
    /// fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = g.items.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).expect("queue poisoned");
        }
    }

    /// Closes the queue: pushes fail, pops drain what remains then return
    /// `None`. Idempotent.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Current number of queued items (racy; for metrics only).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// Whether the queue is currently empty (racy; for metrics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn push_blocks_at_capacity_until_a_pop() {
        let q = Arc::new(BoundedQueue::new(2));
        q.push(1).unwrap();
        q.push(2).unwrap();
        let made_it = Arc::new(AtomicU64::new(0));
        let (q2, flag) = (Arc::clone(&q), Arc::clone(&made_it));
        let producer = std::thread::spawn(move || {
            q2.push(3).unwrap(); // must block: queue is full
            flag.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(made_it.load(Ordering::SeqCst), 0, "push did not block");
        assert_eq!(q.pop(), Some(1));
        producer.join().unwrap();
        assert_eq!(made_it.load(Ordering::SeqCst), 1);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn try_push_hands_the_item_back_when_full() {
        let q = BoundedQueue::new(1);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Err(TrySendError::Full(2)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
    }

    #[test]
    fn try_push_hands_the_item_back_when_closed() {
        let q = BoundedQueue::new(4);
        q.try_push('a').unwrap();
        q.close();
        assert_eq!(q.try_push('b'), Err(TrySendError::Disconnected('b')));
        assert_eq!(q.pop(), Some('a'), "what was admitted still drains");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push('a').unwrap();
        q.push('b').unwrap();
        q.close();
        assert_eq!(q.push('c'), Err('c'));
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.pop(), Some('b'));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "close is sticky");
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u8>::new(1));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
