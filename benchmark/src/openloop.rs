//! Open-loop accounting. Request `i` of a schedule at `rate` per second is
//! due at `start + i / rate`, whether or not earlier requests have been
//! answered. Its latency runs from that due time, so a stall is charged to
//! every request queued behind it; how late the sender itself ran is
//! recorded separately.

use std::time::{Duration, Instant};

/// A fixed-rate send schedule.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Schedule {
        assert!(rate_per_s > 0.0, "an open loop needs a positive rate");
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval * i as u32
    }
}

/// One request's timing: when it was due, sent and answered.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

impl Timing {
    /// Latency from the due time, in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }

    /// How late the sender ran, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Block until `due`: sleep while far away, then spin the last stretch so
/// timer slack does not show up as lateness.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays a schedule against a server whose service times are given,
    /// with one connection: a request is sent at its due time or when the
    /// previous reply arrives, whichever is later.
    fn replay(service_ms: &[u64], interval_ms: u64) -> Vec<Timing> {
        let t0 = Instant::now();
        let sched = Schedule {
            start: t0,
            interval: Duration::from_millis(interval_ms),
        };
        let mut free = t0;
        service_ms
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let due = sched.due(i);
                let sent = due.max(free);
                let done = sent + Duration::from_millis(s);
                free = done;
                Timing { due, sent, done }
            })
            .collect()
    }

    #[test]
    fn schedule_spaces_requests_by_the_rate() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 250.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(5) - t0, Duration::from_millis(20));
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // 1 ms apart; the first request takes 5 ms, the rest 0.
        let t = replay(&[5, 0, 0, 0, 0, 0, 0], 1);
        let lat: Vec<f64> = t
            .iter()
            .map(|x| (x.latency_us() / 1000.0).round())
            .collect();
        assert_eq!(lat, vec![5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 0.0]);
        let late: Vec<f64> = t.iter().map(|x| x.late_ms().round()).collect();
        assert_eq!(late, vec![0.0, 4.0, 3.0, 2.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn a_closed_loop_would_hide_the_stall() {
        // Measured from the send instead, the queued requests look free.
        let t = replay(&[5, 0, 0], 1);
        let from_send: Vec<u128> = t.iter().map(|x| (x.done - x.sent).as_millis()).collect();
        assert_eq!(from_send, vec![5, 0, 0]);
        assert!(t[1].latency_us() >= 3_999.0);
    }

    #[test]
    fn waiting_reaches_the_due_time() {
        let due = Instant::now() + Duration::from_millis(2);
        wait_until(due);
        assert!(Instant::now() >= due);
    }
}
