//! Small measuring tools: order statistics, `/proc` readers, and the
//! open-loop schedule the query client sends on.

use std::time::{Duration, Instant};

/// Sorts `v` ascending (timings are never NaN).
pub fn sort(v: &mut [f64]) {
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("a sample is NaN"));
}

/// Median of `v`; the mean of the two middle samples when the count is even.
/// Zero for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that still has ten samples beyond it, as
/// `(percentile, value)` — p84 of 64 samples, p91 of 120. With fewer than
/// 21 samples no percentile qualifies and the maximum is returned as p100.
pub fn high_percentile(v: &[f64]) -> (u32, f64) {
    let mut s = v.to_vec();
    sort(&mut s);
    match s.len() {
        0 => (100, 0.0),
        n if n < 21 => (100, s[n - 1]),
        n => ((100 * (n - 10) / n) as u32, s[n - 11]),
    }
}

fn proc_field(file: &str, pick: impl Fn(&str) -> Option<u64>) -> u64 {
    std::fs::read_to_string(file)
        .ok()
        .and_then(|s| pick(&s))
        .unwrap_or(0)
}

/// `VmHWM` of this process in bytes (0 where `/proc` is missing).
pub fn peak_rss_bytes() -> u64 {
    proc_field("/proc/self/status", |s| {
        let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    })
}

/// Restarts `VmHWM` from the current RSS, so that the next reading is the
/// peak since this call. Where the kernel refuses, readings stay peaks since
/// the process began.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Minor page faults this process has taken so far.
pub fn minor_faults() -> u64 {
    proc_field("/proc/self/stat", |s| {
        // Fields after the parenthesised command name: state is the first,
        // minflt the eighth.
        let rest = &s[s.rfind(')')? + 1..];
        rest.split_whitespace().nth(7)?.parse().ok()
    })
}

/// How long before a due time the schedule stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(120);

/// A fixed-rate open-loop schedule: request `k` is due at `start + k *
/// interval` whether or not request `k - 1` has come back.
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
    sent: u32,
}

impl OpenLoop {
    /// A schedule of `per_second` requests a second, starting now.
    pub fn new(per_second: u32) -> Self {
        OpenLoop {
            start: Instant::now(),
            interval: Duration::from_secs(1) / per_second,
            sent: 0,
        }
    }

    /// Waits for the next request's due time and returns `(due, now)`: the
    /// request is timed from `due`, and `now - due` is how late the
    /// generator ran. Never waits when the schedule is already behind.
    pub fn next(&mut self) -> (Instant, Instant) {
        let due = self.start + self.interval * self.sent;
        self.sent += 1;
        loop {
            let now = Instant::now();
            if now >= due {
                return (due, now);
            }
            // Sleep while the due time is far off, so the reader does not
            // hold a core the round worker could use; spin the last stretch,
            // which a sleep would overshoot.
            if due - now > SPIN {
                std::thread::sleep(due - now - SPIN);
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_select_the_documented_ranks() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond_it() {
        let of = |n: u32| high_percentile(&(1..=n).map(f64::from).collect::<Vec<_>>());
        assert_eq!(of(64), (84, 54.0));
        assert_eq!(of(120), (91, 110.0));
        assert_eq!(of(21), (52, 11.0));
        // Too few samples for any percentile: the maximum, labelled p100.
        assert_eq!(of(20), (100, 20.0));
        assert_eq!(of(0), (100, 0.0));
    }

    #[test]
    fn open_loop_times_from_due_and_catches_up_after_a_stall() {
        let mut sched = OpenLoop::new(1000);
        let (due0, now0) = sched.next();
        assert!(now0 >= due0);
        // Stall for five intervals: the next requests are already due, so
        // they go out at once and their lateness shows the stall.
        std::thread::sleep(Duration::from_millis(5));
        let (due1, now1) = sched.next();
        assert_eq!(due1 - due0, Duration::from_millis(1));
        assert!(now1 - due1 >= Duration::from_millis(3), "stall not charged");
        let (due2, now2) = sched.next();
        assert_eq!(due2 - due1, Duration::from_millis(1));
        assert!(now2 - due2 >= Duration::from_millis(2));
        // Once caught up, a request is never sent before it is due.
        for _ in 0..8 {
            let (due, now) = sched.next();
            assert!(now >= due);
        }
    }

    #[test]
    fn proc_readers_see_this_process() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0);
            let before = minor_faults();
            let v = vec![1u8; 8 << 20];
            std::hint::black_box(&v);
            assert!(minor_faults() > before);
            // A peak is never below what a live allocation holds.
            reset_peak_rss();
            assert!(peak_rss_bytes() >= 8 << 20);
        }
    }
}
