//! Every `AbortSignal::deadline` in the process shares one timer thread:
//! holding many armed deadlines adds no threads. Its own test binary, so
//! no other test's threads come and go while it counts.

#![cfg(target_os = "linux")]

use std::time::Duration;
use wolfram_runtime::AbortSignal;

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

#[test]
fn many_armed_deadlines_share_one_thread() {
    // The first deadline starts the timer.
    let warm = AbortSignal::new();
    drop(warm.deadline(Duration::from_secs(60)));
    let before = threads();
    let signals: Vec<AbortSignal> = (0..64).map(|_| AbortSignal::new()).collect();
    let guards: Vec<_> = signals
        .iter()
        .map(|s| s.deadline(Duration::from_secs(60)))
        .collect();
    assert_eq!(threads(), before, "64 held deadlines added threads");
    drop(guards);
    assert!(signals.iter().all(|s| !s.is_triggered()));
}
