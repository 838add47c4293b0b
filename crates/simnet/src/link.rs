//! Point-to-point replication link model.
//!
//! A [`Link`] models the WAN/FC path between the main-site and backup-site
//! storage arrays: propagation delay, serialization bandwidth with FIFO
//! queueing, optional jitter, random early loss and scheduled outages. The
//! replication engines ask the link *when* a frame of a given size would
//! arrive and then schedule the delivery event themselves.

use serde::{Deserialize, Serialize};
use tsuru_sim::{DetRng, RatePipe, SimDuration, SimTime};
use tsuru_telemetry::{spans, Tracer};

/// Configuration of one direction of an inter-site link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkConfig {
    /// One-way propagation delay (speed-of-light + switching).
    pub propagation: SimDuration,
    /// Serialization bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// Maximum extra random delay added per frame (uniform in `[0, jitter]`).
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that a frame is lost and must be resent.
    pub loss_probability: f64,
}

impl LinkConfig {
    /// A metro-distance link: 2 ms one way, 10 Gbit/s, no jitter/loss.
    pub fn metro() -> Self {
        LinkConfig {
            propagation: SimDuration::from_millis(2),
            bandwidth_bytes_per_sec: 10_000_000_000 / 8,
            jitter: SimDuration::ZERO,
            loss_probability: 0.0,
        }
    }

    /// A cross-region WAN link: 25 ms one way, 1 Gbit/s, light jitter.
    pub fn wan() -> Self {
        LinkConfig {
            propagation: SimDuration::from_millis(25),
            bandwidth_bytes_per_sec: 1_000_000_000 / 8,
            jitter: SimDuration::from_micros(500),
            loss_probability: 0.0,
        }
    }

    /// A link with the given one-way latency and bandwidth, no jitter/loss.
    pub fn with(propagation: SimDuration, bandwidth_bytes_per_sec: u64) -> Self {
        LinkConfig {
            propagation,
            bandwidth_bytes_per_sec,
            jitter: SimDuration::ZERO,
            loss_probability: 0.0,
        }
    }

    /// A degraded cross-region WAN: same path as [`LinkConfig::wan`] but
    /// with heavy jitter and 1% random frame loss, so retransmission and
    /// reordering paths actually run.
    pub fn wan_lossy() -> Self {
        LinkConfig {
            propagation: SimDuration::from_millis(25),
            bandwidth_bytes_per_sec: 1_000_000_000 / 8,
            jitter: SimDuration::from_millis(2),
            loss_probability: 0.01,
        }
    }
}

/// Outcome of offering a frame to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferOutcome {
    /// The frame will arrive at the far end.
    DeliveredAt {
        /// Arrival instant at the receiver.
        at: SimTime,
        /// Instant the last bit left the sender. If the sending site dies
        /// *before* this instant, the frame never actually made it onto the
        /// wire and must be treated as lost by the receiver.
        serialized: SimTime,
    },
    /// The frame was lost in flight (sender should retransmit).
    Lost,
    /// The link is down; nothing was sent. Contains the instant the link is
    /// known to come back up, if an outage end is scheduled.
    Down(Option<SimTime>),
}

/// Identifier of a link within a [`Network`](crate::Network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// One direction of an inter-site path.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    pipe: RatePipe,
    rng: DetRng,
    down_since: Option<SimTime>,
    up_at: Option<SimTime>,
    last_arrival: SimTime,
    frames_sent: u64,
    frames_lost: u64,
    bytes_delivered: u64,
    tracer: Tracer,
    trace_link: u64,
}

impl Link {
    /// Create a link; `rng` should be a dedicated derived stream.
    pub fn new(config: LinkConfig, rng: DetRng) -> Self {
        let pipe = RatePipe::new(config.bandwidth_bytes_per_sec);
        Link {
            config,
            pipe,
            rng,
            down_since: None,
            up_at: None,
            last_arrival: SimTime::ZERO,
            frames_sent: 0,
            frames_lost: 0,
            bytes_delivered: 0,
            tracer: Tracer::disabled(),
            trace_link: 0,
        }
    }

    /// Install a tracing handle; link-level frame events (`link_frame`,
    /// `link_loss`, `link_down`) are recorded through it, tagged with
    /// `link` so traces from a multi-link network stay attributable.
    pub fn set_tracer(&mut self, tracer: Tracer, link: u64) {
        self.tracer = tracer;
        self.trace_link = link;
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Change the bandwidth mid-run (models WAN QoS changes).
    pub fn set_bandwidth(&mut self, bytes_per_sec: u64) {
        self.config.bandwidth_bytes_per_sec = bytes_per_sec;
        self.pipe.set_bytes_per_sec(bytes_per_sec);
    }

    /// Change the per-frame jitter bound mid-run (fault injection).
    pub fn set_jitter(&mut self, jitter: SimDuration) {
        self.config.jitter = jitter;
    }

    /// Change the random loss probability mid-run (fault injection).
    pub fn set_loss_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability {p} not in [0, 1]");
        self.config.loss_probability = p;
    }

    /// Take the link down at `now`. If `until` is given the link will be
    /// considered up again at that instant (callers still must poll via
    /// [`Link::offer`] or call [`Link::set_up`]).
    pub fn set_down(&mut self, now: SimTime, until: Option<SimTime>) {
        self.down_since = Some(now);
        self.up_at = until;
    }

    /// Bring the link back up.
    pub fn set_up(&mut self) {
        self.down_since = None;
        self.up_at = None;
    }

    /// Is the link usable at `now`?
    pub fn is_up(&self, now: SimTime) -> bool {
        match self.down_since {
            None => true,
            Some(start) if now < start => true,
            Some(_) => matches!(self.up_at, Some(up) if now >= up),
        }
    }

    /// Offer a frame of `bytes` at `now`; returns when (and whether) it
    /// arrives at the far end.
    pub fn offer(&mut self, now: SimTime, bytes: u64) -> TransferOutcome {
        if !self.is_up(now) {
            let link = self.trace_link;
            self.tracer.instant(spans::LINK_DOWN, now, tsuru_telemetry::SpanId::NONE, || {
                vec![("link", link.into()), ("bytes", bytes.into())]
            });
            return TransferOutcome::Down(self.up_at);
        }
        // An auto-expiring outage that has passed clears itself; a future
        // scheduled outage is left in place.
        if matches!(self.up_at, Some(up) if now >= up) {
            self.set_up();
        }
        self.frames_sent += 1;
        if self.config.loss_probability > 0.0 && self.rng.gen_bool(self.config.loss_probability) {
            self.frames_lost += 1;
            let link = self.trace_link;
            self.tracer.instant(spans::LINK_LOSS, now, tsuru_telemetry::SpanId::NONE, || {
                vec![("link", link.into()), ("bytes", bytes.into())]
            });
            return TransferOutcome::Lost;
        }
        let serialized = self.pipe.admit(now, bytes);
        if serialized == SimTime::MAX {
            return TransferOutcome::Down(None);
        }
        let jitter = if self.config.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.rng.gen_range(self.config.jitter.as_nanos() + 1))
        };
        self.bytes_delivered += bytes;
        // FIFO non-overtaking: jitter may vary per frame, but a link never
        // reorders — a frame offered later cannot arrive before one offered
        // earlier. Clamp the arrival to the latest arrival granted so far.
        let at = (serialized + self.config.propagation + jitter).max(self.last_arrival);
        self.last_arrival = at;
        let link = self.trace_link;
        self.tracer.instant(spans::LINK_FRAME, now, tsuru_telemetry::SpanId::NONE, || {
            vec![
                ("link", link.into()),
                ("bytes", bytes.into()),
                ("arrive_ns", at.as_nanos().into()),
            ]
        });
        TransferOutcome::DeliveredAt { at, serialized }
    }

    /// One-way latency of an empty link for a frame of `bytes` (no queueing,
    /// no jitter) — used for latency-model reporting.
    pub fn nominal_latency(&self, bytes: u64) -> SimDuration {
        self.config.propagation
            + SimDuration::for_bytes_at_rate(bytes, self.config.bandwidth_bytes_per_sec)
    }

    /// Frames offered while up (including lost ones).
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Frames lost to random loss.
    pub fn frames_lost(&self) -> u64 {
        self.frames_lost
    }

    /// Total payload bytes successfully delivered.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }

    /// Current transmit backlog at `now` (how long a new frame would queue
    /// before its first byte is sent).
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.pipe.backlog(now)
    }

    /// The instant the transmit backlog will have drained to `threshold`
    /// (`now` if it is already there). Exact, and never too late: the
    /// backlog is the unsent tail of frames already admitted, so only the
    /// passage of time shortens it — outages, heals and bandwidth changes
    /// (which price later admissions) do not.
    pub fn backlog_clears_at(&self, now: SimTime, threshold: SimDuration) -> SimTime {
        now + self.backlog(now).saturating_sub(threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(cfg: LinkConfig) -> Link {
        Link::new(cfg, DetRng::new(99))
    }

    #[test]
    fn delivery_includes_propagation_and_serialization() {
        // 1000 B/s, 10 ms propagation, 100-byte frame => 100ms + 10ms.
        let mut l = link(LinkConfig::with(SimDuration::from_millis(10), 1000));
        match l.offer(SimTime::ZERO, 100) {
            TransferOutcome::DeliveredAt { at, serialized } => {
                assert_eq!(at, SimTime::from_millis(110));
                assert_eq!(serialized, SimTime::from_millis(100));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(l.bytes_delivered(), 100);
    }

    #[test]
    fn frames_queue_behind_each_other() {
        let mut l = link(LinkConfig::with(SimDuration::from_millis(1), 1000));
        let a = l.offer(SimTime::ZERO, 1000);
        let b = l.offer(SimTime::ZERO, 1000);
        assert!(
            matches!(a, TransferOutcome::DeliveredAt { at, .. } if at == SimTime::from_millis(1001))
        );
        assert!(
            matches!(b, TransferOutcome::DeliveredAt { at, .. } if at == SimTime::from_millis(2001))
        );
        assert_eq!(l.backlog(SimTime::ZERO), SimDuration::from_secs(2));
    }

    #[test]
    fn backlog_clears_at_is_exact_and_blind_to_outages_and_bandwidth() {
        let mut l = link(LinkConfig::with(SimDuration::from_millis(1), 1000));
        l.offer(SimTime::ZERO, 2000); // 2 s of backlog
        let thr = SimDuration::from_millis(500);
        let at = l.backlog_clears_at(SimTime::ZERO, thr);
        assert_eq!(at, SimTime::from_millis(1500));
        assert_eq!(l.backlog(at), thr);
        // Already at or under the threshold: now.
        assert_eq!(l.backlog_clears_at(SimTime::from_secs(3), thr), SimTime::from_secs(3));
        // Neither an outage, a heal nor a bandwidth change moves it.
        l.set_down(SimTime::ZERO, None);
        l.set_bandwidth(20);
        assert_eq!(l.backlog_clears_at(SimTime::ZERO, thr), at);
        l.set_up();
        l.set_bandwidth(1_000_000);
        assert_eq!(l.backlog_clears_at(SimTime::from_millis(100), thr), at);
    }

    #[test]
    fn outage_blocks_and_auto_expires() {
        let mut l = link(LinkConfig::with(SimDuration::ZERO, 1_000_000));
        l.set_down(SimTime::from_secs(1), Some(SimTime::from_secs(5)));
        assert!(l.is_up(SimTime::ZERO));
        assert!(!l.is_up(SimTime::from_secs(2)));
        match l.offer(SimTime::from_secs(2), 10) {
            TransferOutcome::Down(Some(up)) => assert_eq!(up, SimTime::from_secs(5)),
            other => panic!("unexpected outcome {other:?}"),
        }
        // After the outage window the link self-heals on the next offer.
        assert!(matches!(
            l.offer(SimTime::from_secs(6), 10),
            TransferOutcome::DeliveredAt { .. }
        ));
    }

    #[test]
    fn indefinite_outage_requires_manual_restore() {
        let mut l = link(LinkConfig::with(SimDuration::ZERO, 1_000_000));
        l.set_down(SimTime::ZERO, None);
        assert!(matches!(
            l.offer(SimTime::from_secs(100), 10),
            TransferOutcome::Down(None)
        ));
        l.set_up();
        assert!(matches!(
            l.offer(SimTime::from_secs(101), 10),
            TransferOutcome::DeliveredAt { .. }
        ));
    }

    #[test]
    fn loss_probability_drops_frames() {
        let mut cfg = LinkConfig::with(SimDuration::ZERO, 1_000_000_000);
        cfg.loss_probability = 0.5;
        let mut l = link(cfg);
        let mut lost = 0;
        for _ in 0..1000 {
            if matches!(l.offer(SimTime::ZERO, 10), TransferOutcome::Lost) {
                lost += 1;
            }
        }
        assert!((300..700).contains(&lost), "lost={lost}");
        assert_eq!(l.frames_lost(), lost);
        assert_eq!(l.frames_sent(), 1000);
    }

    #[test]
    fn jitter_stays_within_bound() {
        let mut cfg = LinkConfig::with(SimDuration::from_millis(1), 1_000_000_000);
        cfg.jitter = SimDuration::from_micros(100);
        let mut l = link(cfg);
        for _ in 0..200 {
            if let TransferOutcome::DeliveredAt { at, .. } = l.offer(SimTime::ZERO, 0) {
                let d = at - SimTime::ZERO;
                assert!(d >= SimDuration::from_millis(1));
                assert!(d <= SimDuration::from_millis(1) + SimDuration::from_micros(100));
            } else {
                panic!("expected delivery");
            }
        }
    }

    #[test]
    fn jittered_frames_never_overtake() {
        // Huge jitter vs tiny serialization gap: without the FIFO clamp a
        // later frame would routinely arrive before an earlier one.
        let mut cfg = LinkConfig::with(SimDuration::from_millis(1), 1_000_000_000);
        cfg.jitter = SimDuration::from_millis(5);
        let mut l = link(cfg);
        let mut prev = SimTime::ZERO;
        for i in 0..500u64 {
            let now = SimTime::from_nanos(i * 10);
            match l.offer(now, 8) {
                TransferOutcome::DeliveredAt { at, .. } => {
                    assert!(at >= prev, "frame {i} overtook: {at} < {prev}");
                    prev = at;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn wan_lossy_preset_exercises_loss_and_jitter() {
        let cfg = LinkConfig::wan_lossy();
        assert!(cfg.loss_probability > 0.0);
        assert!(!cfg.jitter.is_zero());
        let mut l = link(cfg);
        let mut lost = 0u64;
        for i in 0..2000u64 {
            if matches!(
                l.offer(SimTime::from_nanos(i), 64),
                TransferOutcome::Lost
            ) {
                lost += 1;
            }
        }
        assert!(lost > 0, "1% loss over 2000 frames should drop at least one");
        assert_eq!(l.frames_lost(), lost);
    }

    #[test]
    fn runtime_jitter_and_loss_mutators_take_effect() {
        let mut l = link(LinkConfig::with(SimDuration::ZERO, 1_000_000_000));
        l.set_loss_probability(1.0);
        assert!(matches!(l.offer(SimTime::ZERO, 10), TransferOutcome::Lost));
        l.set_loss_probability(0.0);
        l.set_jitter(SimDuration::from_micros(50));
        match l.offer(SimTime::ZERO, 0) {
            TransferOutcome::DeliveredAt { at, .. } => {
                assert!(at <= SimTime::from_micros(50));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nominal_latency_reports_unloaded_path() {
        let l = link(LinkConfig::with(SimDuration::from_millis(5), 1000));
        assert_eq!(
            l.nominal_latency(1000),
            SimDuration::from_millis(5) + SimDuration::from_secs(1)
        );
    }

    #[test]
    fn bandwidth_change_takes_effect() {
        let mut l = link(LinkConfig::with(SimDuration::ZERO, 1000));
        l.set_bandwidth(2000);
        match l.offer(SimTime::ZERO, 2000) {
            TransferOutcome::DeliveredAt { at, .. } => assert_eq!(at, SimTime::from_secs(1)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
