//! Analytic service models: FIFO single-server stations and token buckets.
//!
//! These model contention without simulating every queued request as an
//! event: a station tracks the instant it next becomes free, so the
//! completion time of a request is `max(now, next_free) + service_time`.
//! This is exact for FIFO single-server queues and is how the storage array
//! and replication links charge service time.

use crate::time::{SimDuration, SimTime};

/// A FIFO single-server service station.
#[derive(Debug, Clone, Default)]
pub struct ServiceStation {
    next_free: SimTime,
}

impl ServiceStation {
    /// A station that is free immediately.
    pub fn new() -> Self {
        ServiceStation::default()
    }

    /// Admit a request arriving at `now` with the given service time and
    /// return its completion instant.
    pub fn admit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let start = self.next_free.max(now);
        let done = start + service;
        self.next_free = done;
        done
    }

    /// The queueing delay a request arriving at `now` would experience
    /// before service starts.
    pub fn queue_delay(&self, now: SimTime) -> SimDuration {
        self.next_free.saturating_since(now)
    }

    /// The instant the station next becomes idle.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }
}

/// A byte-rate limiter: requests of `bytes` size serialize through a pipe of
/// fixed bandwidth. Completion = when the last byte has been transmitted.
#[derive(Debug, Clone)]
pub struct RatePipe {
    bytes_per_sec: u64,
    station: ServiceStation,
}

impl RatePipe {
    /// A pipe with the given bandwidth in bytes/second (0 = unusable pipe:
    /// transfers never complete, callers should treat `SimTime::MAX` as
    /// "stalled").
    pub fn new(bytes_per_sec: u64) -> Self {
        RatePipe {
            bytes_per_sec,
            station: ServiceStation::new(),
        }
    }

    /// Current configured bandwidth.
    pub fn bytes_per_sec(&self) -> u64 {
        self.bytes_per_sec
    }

    /// Change bandwidth (affects transfers admitted after this call).
    pub fn set_bytes_per_sec(&mut self, bps: u64) {
        self.bytes_per_sec = bps;
    }

    /// Admit a transfer of `bytes` arriving at `now`; returns the instant
    /// the transfer completes, or `SimTime::MAX` if bandwidth is zero.
    pub fn admit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let service = SimDuration::for_bytes_at_rate(bytes, self.bytes_per_sec);
        if service == SimDuration::MAX {
            return SimTime::MAX;
        }
        self.station.admit(now, service)
    }

    /// The backlog delay a transfer arriving at `now` would wait before its
    /// first byte is sent.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.station.queue_delay(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_station_serves_immediately() {
        let mut s = ServiceStation::new();
        let done = s.admit(SimTime::from_millis(5), SimDuration::from_millis(2));
        assert_eq!(done, SimTime::from_millis(7));
        assert_eq!(s.next_free(), done);
    }

    #[test]
    fn busy_station_queues_fifo() {
        let mut s = ServiceStation::new();
        let t0 = SimTime::ZERO;
        let d1 = s.admit(t0, SimDuration::from_millis(10));
        // Arrives while busy: waits for the first to finish.
        let d2 = s.admit(SimTime::from_millis(1), SimDuration::from_millis(10));
        assert_eq!(d1, SimTime::from_millis(10));
        assert_eq!(d2, SimTime::from_millis(20));
        assert_eq!(
            s.queue_delay(SimTime::from_millis(2)),
            SimDuration::from_millis(18)
        );
    }

    #[test]
    fn idle_gaps_are_not_charged() {
        let mut s = ServiceStation::new();
        s.admit(SimTime::ZERO, SimDuration::from_millis(1));
        // Long idle gap; next request starts fresh at its arrival.
        let done = s.admit(SimTime::from_secs(10), SimDuration::from_millis(1));
        assert_eq!(done, SimTime::from_secs(10) + SimDuration::from_millis(1));
        assert_eq!(
            s.queue_delay(SimTime::from_secs(10)),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn rate_pipe_serializes_transfers() {
        // 1000 bytes/sec; two 500-byte transfers back to back.
        let mut p = RatePipe::new(1000);
        let a = p.admit(SimTime::ZERO, 500);
        let b = p.admit(SimTime::ZERO, 500);
        assert_eq!(a, SimTime::from_millis(500));
        assert_eq!(b, SimTime::from_secs(1));
        assert_eq!(p.backlog(SimTime::ZERO), SimDuration::from_secs(1));
    }

    #[test]
    fn zero_bandwidth_stalls() {
        let mut p = RatePipe::new(0);
        assert_eq!(p.admit(SimTime::ZERO, 1), SimTime::MAX);
        // Nothing was queued: the stalled transfer holds up no one.
        assert_eq!(p.backlog(SimTime::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn bandwidth_change_applies_to_new_admissions() {
        let mut p = RatePipe::new(1000);
        let a = p.admit(SimTime::ZERO, 1000);
        assert_eq!(a, SimTime::from_secs(1));
        p.set_bytes_per_sec(2000);
        let b = p.admit(SimTime::ZERO, 1000);
        assert_eq!(b, SimTime::from_millis(1500));
    }
}
