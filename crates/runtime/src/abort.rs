//! The abort signal (F3).
//!
//! A Wolfram Notebook user can abort an "infinite" evaluation without
//! quitting the session. The interpreter checks the flag periodically, the
//! legacy VM checks it per instruction, and the new compiler inserts checks
//! at loop headers and function prologues (§4.5).
//!
//! A wall-clock budget ([`AbortSignal::deadline`]) is one more way to pull
//! the same trigger: every deadline in the process — a served request's,
//! the difftest oracle's watchdog — is armed on one timer thread.

use crate::error::RuntimeError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

/// A shared, asynchronously-triggerable abort flag.
///
/// Cloning shares the underlying flag, and the flag may be triggered from
/// another thread (as a notebook front end would).
///
/// # Examples
///
/// ```
/// use wolfram_runtime::AbortSignal;
/// let signal = AbortSignal::new();
/// assert!(signal.check().is_ok());
/// signal.trigger();
/// assert!(signal.check().is_err());
/// signal.reset();
/// assert!(signal.check().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct AbortSignal {
    flag: Arc<AtomicBool>,
}

impl AbortSignal {
    /// A fresh, untriggered signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests an abort. Running evaluations observe it at their next
    /// check point and unwind with [`RuntimeError::Aborted`].
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Clears the flag (the interpreter does this when the prompt returns).
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }

    /// Whether an abort has been requested.
    pub fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// The abort check compiled into loop headers and prologues.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Aborted`] if the flag is set.
    #[inline]
    pub fn check(&self) -> Result<(), RuntimeError> {
        if self.is_triggered() {
            Err(RuntimeError::Aborted)
        } else {
            Ok(())
        }
    }

    /// Arms a wall-clock deadline: the process's one timer thread triggers
    /// this signal after `after`, unless the returned guard is dropped
    /// first.
    ///
    /// Dropping the [`DeadlineGuard`] disarms the deadline under the lock
    /// the timer fires under, so once the drop returns the signal can no
    /// longer be triggered by it. The signal itself is *not* reset by the
    /// guard — callers that reuse signals (a serve worker, the difftest
    /// oracle's shared host interpreters) reset explicitly afterwards.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::Duration;
    /// use wolfram_runtime::AbortSignal;
    /// let signal = AbortSignal::new();
    /// {
    ///     let _guard = signal.deadline(Duration::from_secs(60));
    ///     // ... finishes well before the deadline ...
    /// } // guard dropped: deadline disarmed
    /// assert!(!signal.is_triggered());
    /// ```
    pub fn deadline(&self, after: Duration) -> DeadlineGuard {
        TIMER.arm(Instant::now() + after, self.clone())
    }
}

/// Disarms an [`AbortSignal::deadline`] when dropped.
#[derive(Debug)]
pub struct DeadlineGuard {
    key: (Instant, u64),
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        TIMER.lock().armed.remove(&self.key);
    }
}

/// The process's one deadline timer: a thread, started on first use, that
/// sleeps until the earliest armed deadline and triggers its signal.
/// Arming, disarming and firing all hold one lock, so a disarmed deadline
/// never fires.
struct DeadlineTimer {
    state: Mutex<TimerState>,
    changed: Condvar,
}

struct TimerState {
    /// Armed deadlines by expiry; the id keeps keys unique and lets a
    /// guard remove exactly its own entry.
    armed: BTreeMap<(Instant, u64), AbortSignal>,
    next_id: u64,
}

static TIMER: DeadlineTimer = DeadlineTimer {
    state: Mutex::new(TimerState {
        armed: BTreeMap::new(),
        next_id: 0,
    }),
    changed: Condvar::new(),
};

impl DeadlineTimer {
    fn lock(&self) -> MutexGuard<'_, TimerState> {
        // Every update is one map insert or remove, so the state is valid
        // even after a panic elsewhere; recover rather than leave every
        // later deadline unarmable (and a guard's drop must not panic).
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn arm(&self, at: Instant, signal: AbortSignal) -> DeadlineGuard {
        // The thread lives as long as the process; it is never joined.
        static START: Once = Once::new();
        START.call_once(|| {
            std::thread::Builder::new()
                .name("wolfram-deadline".into())
                .spawn(|| TIMER.run())
                .expect("spawn deadline timer");
        });
        let mut st = self.lock();
        let key = (at, st.next_id);
        st.next_id += 1;
        let earliest = st
            .armed
            .first_key_value()
            .is_none_or(|(&first, _)| key < first);
        st.armed.insert(key, signal);
        if earliest {
            self.changed.notify_one();
        }
        DeadlineGuard { key }
    }

    fn run(&self) {
        let mut st = self.lock();
        loop {
            let now = Instant::now();
            while let Some(due) = st.armed.first_entry().filter(|e| e.key().0 <= now) {
                due.remove().trigger();
            }
            st = match st.armed.first_key_value() {
                Some((&(at, _), _)) => {
                    let wait = at.saturating_duration_since(now);
                    self.changed
                        .wait_timeout(st, wait)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .changed
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_across_clones() {
        let a = AbortSignal::new();
        let b = a.clone();
        b.trigger();
        assert!(a.is_triggered());
        assert_eq!(a.check(), Err(RuntimeError::Aborted));
    }

    #[test]
    fn cross_thread_trigger() {
        let a = AbortSignal::new();
        let b = a.clone();
        std::thread::spawn(move || b.trigger()).join().unwrap();
        assert!(a.is_triggered());
    }

    #[test]
    fn deadline_fires_after_timeout() {
        let signal = AbortSignal::new();
        let _guard = signal.deadline(Duration::from_millis(10));
        let start = Instant::now();
        while !signal.is_triggered() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "deadline never fired"
            );
            std::thread::yield_now();
        }
        assert_eq!(signal.check(), Err(RuntimeError::Aborted));
    }

    #[test]
    fn disarmed_deadline_never_fires() {
        let signal = AbortSignal::new();
        drop(signal.deadline(Duration::from_millis(30)));
        std::thread::sleep(Duration::from_millis(80));
        assert!(!signal.is_triggered());
    }

    #[test]
    fn deadlines_fire_independently_of_arming_order() {
        let slow = AbortSignal::new();
        let quick = AbortSignal::new();
        let _s = slow.deadline(Duration::from_secs(60));
        let _q = quick.deadline(Duration::from_millis(5));
        let start = Instant::now();
        while !quick.is_triggered() {
            assert!(start.elapsed() < Duration::from_secs(5));
            std::thread::yield_now();
        }
        assert!(!slow.is_triggered());
    }
}
