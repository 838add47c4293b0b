//! The self-healing replication supervisor.
//!
//! Real arrays do not wait for an operator after a fault: firmware watches
//! every consistency group and drives it back to PAIR on its own. This
//! module is that firmware, built as a deterministic control loop on the
//! sim kernel: a periodic probe ([`tick`]) observes group health (suspend
//! reasons, array state, link state, journal debt, pump progress) and
//! walks a staged recovery state machine per group:
//!
//! ```text
//!            suspension observed
//!  Healthy ──────────────────────▶ BackingOff(attempt)
//!     ▲                                  │ backoff elapsed & unblocked
//!     │ stage timeout survived           ▼
//!     └───────────────────────────  Recovering(attempt)
//!                                        │ re-suspended
//!                  attempt > N ◀─────────┘
//!                      │                 │ attempt ≤ N
//!                      ▼                 ▼
//!                   Parked          BackingOff(attempt+1)
//!
//!  Healthy ──primary array dead──▶ PrimaryDown ──grace──▶ FailedOver
//!  FailedOver ──site repaired──▶ FailingBack ──caught up──▶ Healthy
//! ```
//!
//! Recovery decisions are *jittered but seeded*: the backoff delays draw
//! from a `DetRng` stream derived from the world seed, so two groups that
//! suspend at the same instant do not retry-storm in lockstep, yet every
//! trial replays byte-identically at any harness thread count.
//!
//! Degradation ladder: a suspension is first healed with a **delta**
//! resync (dirty bitmap + stranded journal entries); once the accumulated
//! debt exceeds [`SupervisorPolicy::full_resync_debt_bytes`] the
//! supervisor degrades to a **full initial copy** (recopying a bounded
//! working set would be slower than restarting). After
//! [`SupervisorPolicy::max_attempts`] failed attempts the circuit breaker
//! **parks** the group and raises a telemetry alarm instead of retrying
//! forever.

use std::collections::BTreeMap;

use tsuru_sim::{DetRng, Sim, SimDuration, SimTime};
use tsuru_telemetry::{names, spans, SpanId};

use crate::block::{GroupId, BLOCK_SIZE};
use crate::engine::{kick_apply, kick_transfer};
use crate::event::StorageEvents;
use crate::fabric::{GroupMode, GroupState, SuspendReason};
use crate::world::HasStorage;

/// Health-probe period (the `SupervisorTick` cadence): sized for the
/// chaos rig's 150 ms horizons.
pub const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(2);
/// Exponential growth factor of the backoff between attempts.
const BACKOFF_FACTOR: u64 = 2;
/// Uniform jitter added to every backoff delay (seeded stream).
const BACKOFF_JITTER: SimDuration = SimDuration::from_micros(250);

/// Tunables of the recovery state machine. The defaults are sized for the
/// chaos rig's 150 ms horizons (probe every 2 ms, heal within ~35 ms worst
/// case); experiments sweep alternatives (see `tsuru-chaos`'s E10).
#[derive(Debug, Clone)]
pub struct SupervisorPolicy {
    /// First-attempt backoff delay.
    pub backoff_base: SimDuration,
    /// Backoff ceiling.
    pub backoff_max: SimDuration,
    /// How long a resynced group must stay `Active` before the attempt
    /// counts as a heal (and how long the supervisor waits before judging
    /// the attempt).
    pub stage_timeout: SimDuration,
    /// Degradation threshold: once journal debt plus the dirty working
    /// set exceeds this many bytes, resync with a full initial copy
    /// instead of a delta.
    pub full_resync_debt_bytes: u64,
    /// Circuit breaker: park the group after this many failed attempts.
    pub max_attempts: u32,
    /// Promote a group whose primary arrays died (disaster takeover).
    /// Off by default: promotion makes the backup image writable, which
    /// most experiments want to drive explicitly.
    pub auto_failover: bool,
    /// How long a primary must stay dead before auto-failover promotes.
    pub failover_grace: SimDuration,
    /// After an auto-failover, re-protect in the reverse direction once
    /// the failed site recovers, and return home once caught up.
    pub auto_failback: bool,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            backoff_base: SimDuration::from_millis(1),
            backoff_max: SimDuration::from_millis(8),
            stage_timeout: SimDuration::from_millis(5),
            full_resync_debt_bytes: 1 << 20,
            max_attempts: 4,
            auto_failover: false,
            failover_grace: SimDuration::from_millis(10),
            auto_failback: false,
        }
    }
}

/// Where one group currently sits in the recovery state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStage {
    /// Replicating normally; nothing to do.
    Healthy,
    /// The group's primary array is dead; business writes are failing.
    PrimaryDown {
        /// When the supervisor first observed the dead primary.
        since: SimTime,
    },
    /// Waiting out a backoff delay before resync attempt `attempt`.
    BackingOff {
        /// 1-based attempt number.
        attempt: u32,
        /// When the underlying suspension began (time-to-heal anchor).
        since: SimTime,
        /// Earliest instant the attempt may run.
        until: SimTime,
    },
    /// A resync ran; the group must survive until `deadline` to count as
    /// healed.
    Recovering {
        /// 1-based attempt number.
        attempt: u32,
        /// When the underlying suspension began.
        since: SimTime,
        /// Instant at which a still-`Active` group counts as healed.
        deadline: SimTime,
    },
    /// The group was promoted at the backup site (disaster takeover).
    FailedOver {
        /// Promotion instant.
        at: SimTime,
    },
    /// Reverse protection is running; waiting for it to catch up before
    /// returning home.
    FailingBack {
        /// The reverse-direction group established for failback.
        reverse: GroupId,
    },
    /// Circuit breaker open: recovery abandoned after repeated failures;
    /// an operator (or the experiment) must intervene.
    Parked {
        /// Attempts consumed before parking.
        attempts: u32,
    },
}

impl RecoveryStage {
    /// Short stable label for summaries and incident bundles.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryStage::Healthy => "healthy",
            RecoveryStage::PrimaryDown { .. } => "primary-down",
            RecoveryStage::BackingOff { .. } => "backing-off",
            RecoveryStage::Recovering { .. } => "recovering",
            RecoveryStage::FailedOver { .. } => "failed-over",
            RecoveryStage::FailingBack { .. } => "failing-back",
            RecoveryStage::Parked { .. } => "parked",
        }
    }
}

/// Monotonic counters describing everything the supervisor did. These are
/// plain state (not registry metrics) so reports can read them even in
/// untraced trials where time-series sampling is off.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Probe passes executed.
    pub probes: u64,
    /// Resync attempts issued (delta + full).
    pub attempts: u64,
    /// Attempts that used a delta resync.
    pub delta_resyncs: u64,
    /// Attempts degraded to a full initial copy.
    pub full_resyncs: u64,
    /// Suspensions the supervisor itself issued (dead secondary array).
    pub suspends_issued: u64,
    /// Parked transfer/apply pumps restarted.
    pub pump_kicks: u64,
    /// Groups that completed recovery (stage timeout survived).
    pub heals: u64,
    /// Automatic failovers executed.
    pub failovers: u64,
    /// Automatic failbacks completed.
    pub failbacks: u64,
    /// Groups parked by the circuit breaker.
    pub circuit_broken: u64,
    /// Sum of suspension→healed durations across heals.
    pub time_to_heal_total: SimDuration,
    /// Worst suspension→healed duration.
    pub time_to_heal_max: SimDuration,
}

/// The supervisor: per-group recovery stages plus a seeded jitter stream.
/// Owned by the [`crate::StorageWorld`]; driven by [`tick`].
#[derive(Debug)]
pub struct Supervisor {
    policy: SupervisorPolicy,
    stages: BTreeMap<GroupId, RecoveryStage>,
    rng: DetRng,
    stats: SupervisorStats,
}

impl Supervisor {
    /// A supervisor with the given policy and jitter stream.
    pub fn new(policy: SupervisorPolicy, rng: DetRng) -> Self {
        Supervisor {
            policy,
            stages: BTreeMap::new(),
            rng,
            stats: SupervisorStats::default(),
        }
    }

    /// Action counters.
    pub fn stats(&self) -> &SupervisorStats {
        &self.stats
    }

    /// The group's current recovery stage (`Healthy` if never touched).
    pub fn stage(&self, gid: GroupId) -> RecoveryStage {
        self.stages
            .get(&gid)
            .copied()
            .unwrap_or(RecoveryStage::Healthy)
    }

    /// Is the group's circuit breaker open?
    pub fn is_parked(&self, gid: GroupId) -> bool {
        matches!(self.stage(gid), RecoveryStage::Parked { .. })
    }

    fn set_stage(&mut self, gid: GroupId, stage: RecoveryStage) {
        self.stages.insert(gid, stage);
    }

    /// The jittered exponential backoff delay before `attempt` (1-based):
    /// `min(base·factor^(attempt-1), max) + U[0, jitter]` from the seeded
    /// stream.
    fn backoff_delay(&mut self, attempt: u32) -> SimDuration {
        let base = self.policy.backoff_base.as_nanos();
        let exp = BACKOFF_FACTOR
            .saturating_pow(attempt.saturating_sub(1))
            .max(1);
        let raw = base
            .saturating_mul(exp)
            .min(self.policy.backoff_max.as_nanos());
        let jitter = self.rng.gen_range(BACKOFF_JITTER.as_nanos() + 1);
        SimDuration::from_nanos(raw + jitter)
    }

    /// Enter backoff before `attempt`, or park if the attempt budget is
    /// exhausted. The sampled backoff wait lands in the
    /// `supervisor.backoff_wait_ns` histogram of `metrics`. Returns the
    /// alarm payload when parking (the caller owns the tracer).
    fn begin_backoff(
        &mut self,
        gid: GroupId,
        attempt: u32,
        since: SimTime,
        now: SimTime,
        metrics: &mut tsuru_telemetry::MetricsRegistry,
    ) -> bool {
        if attempt > self.policy.max_attempts {
            self.set_stage(
                gid,
                RecoveryStage::Parked {
                    attempts: attempt - 1,
                },
            );
            self.stats.circuit_broken += 1;
            return true;
        }
        let delay = self.backoff_delay(attempt);
        metrics.record(names::SUPERVISOR_BACKOFF_WAIT, delay.as_nanos());
        self.set_stage(
            gid,
            RecoveryStage::BackingOff {
                attempt,
                since,
                until: now + delay,
            },
        );
        false
    }

    fn record_heal(&mut self, healed_in: SimDuration) {
        self.stats.heals += 1;
        self.stats.time_to_heal_total += healed_in;
        self.stats.time_to_heal_max = self.stats.time_to_heal_max.max(healed_in);
    }
}

/// Can a resync run right now, or would it be wasted effort? Blocked while
/// the data link is down or any member array is failed — waiting does not
/// consume a recovery attempt.
fn recovery_blocked(st: &crate::StorageWorld, gid: GroupId, now: SimTime) -> bool {
    let g = st.fabric.group(gid);
    if !st.net.link(g.link).is_up(now) {
        return true;
    }
    g.pairs.iter().any(|&pid| {
        let p = st.fabric.pair(pid);
        st.array(p.primary.array).is_failed() || st.array(p.secondary.array).is_failed()
    })
}

/// Journal debt of a group: retained primary-journal bytes plus the dirty
/// working set accumulated while suspended. Drives the delta→full
/// degradation decision.
fn journal_debt(st: &crate::StorageWorld, gid: GroupId) -> u64 {
    let g = st.fabric.group(gid);
    let mut debt = g
        .primary_jnl
        .map(|jid| st.fabric.journal(jid).used_bytes())
        .unwrap_or(0);
    for &pid in &g.pairs {
        let dirty = st.fabric.pair(pid).dirty_since_suspend.len() as u64;
        debt += dirty * BLOCK_SIZE as u64;
    }
    debt
}

/// Per-pair array health: (any primary array failed, any secondary array
/// failed).
fn array_health(st: &crate::StorageWorld, gid: GroupId) -> (bool, bool) {
    let g = st.fabric.group(gid);
    let mut primary = false;
    let mut secondary = false;
    for &pid in &g.pairs {
        let p = st.fabric.pair(pid);
        primary |= st.array(p.primary.array).is_failed();
        secondary |= st.array(p.secondary.array).is_failed();
    }
    (primary, secondary)
}

/// Restart pumps that parked with work pending: a transfer pump with
/// unsent journal entries and the link up, or an apply pump with arrived
/// entries. Returns true if anything was kicked.
fn maybe_kick<S, E>(state: &mut S, sim: &mut Sim<S, E>, gid: GroupId, now: SimTime) -> bool
where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let (kick_t, kick_a) = {
        let st = state.storage();
        let g = st.fabric.group(gid);
        if g.mode != GroupMode::Adc || !g.is_active() {
            return false;
        }
        // A pump kicked while either side's array is failed parks again
        // on its first cycle; wait for recovery instead of churning.
        let (primary_failed, secondary_failed) = {
            let mut p = false;
            let mut s = false;
            for &pid in &g.pairs {
                let pair = st.fabric.pair(pid);
                p |= st.array(pair.primary.array).is_failed();
                s |= st.array(pair.secondary.array).is_failed();
            }
            (p, s)
        };
        if primary_failed || secondary_failed {
            return false;
        }
        let kick_t = !g.pump_scheduled
            && st.net.link(g.link).is_up(now)
            && g.primary_jnl
                .map(|jid| st.fabric.journal(jid).has_unsent())
                .unwrap_or(false);
        let kick_a = !g.apply_scheduled
            && g.secondary_jnl
                .map(|jid| !st.fabric.journal(jid).is_empty())
                .unwrap_or(false);
        (kick_t, kick_a)
    };
    if kick_t {
        kick_transfer(state, sim, gid, Some(SimDuration::ZERO));
    }
    if kick_a {
        kick_apply(state, sim, gid);
    }
    kick_t || kick_a
}

/// Emit the circuit-breaker alarm for a freshly parked group.
fn raise_park_alarm<S: HasStorage>(state: &mut S, gid: GroupId, attempts: u32, now: SimTime) {
    let st = state.storage_mut();
    st.tracer
        .instant(spans::SUPERVISOR_ALARM, now, SpanId::NONE, || {
            vec![
                ("group", (gid.0 as u64).into()),
                ("attempts", u64::from(attempts).into()),
            ]
        });
}

/// Run one resync attempt: pick delta vs full from the journal debt,
/// resync, restart the pumps and move to `Recovering`.
fn attempt_resync<S, E>(
    state: &mut S,
    sim: &mut Sim<S, E>,
    sv: &mut Supervisor,
    gid: GroupId,
    attempt: u32,
    since: SimTime,
    now: SimTime,
) where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let force_full = journal_debt(state.storage(), gid) > sv.policy.full_resync_debt_bytes;
    let report = state.storage_mut().resync_group_with(gid, force_full);
    sv.stats.attempts += 1;
    if report.delta {
        sv.stats.delta_resyncs += 1;
    } else {
        sv.stats.full_resyncs += 1;
    }
    state.storage_mut().metrics.inc(names::SUPERVISOR_ATTEMPTS);
    kick_transfer(state, sim, gid, Some(SimDuration::ZERO));
    kick_apply(state, sim, gid);
    sv.set_stage(
        gid,
        RecoveryStage::Recovering {
            attempt,
            since,
            deadline: now + sv.policy.stage_timeout,
        },
    );
}

/// After an auto-failover, establish reverse protection as soon as the
/// failed site's arrays are back.
fn try_begin_failback<S, E>(state: &mut S, sim: &mut Sim<S, E>, sv: &mut Supervisor, gid: GroupId)
where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let (ready, link, reverse, cap) = {
        let st = state.storage();
        let g = st.fabric.group(gid);
        if g.pairs.is_empty() {
            return;
        }
        let ready = g
            .pairs
            .iter()
            .all(|&pid| !st.array(st.fabric.pair(pid).primary.array).is_failed());
        let cap = g
            .primary_jnl
            .map(|jid| st.fabric.journal(jid).capacity_bytes())
            .unwrap_or(1 << 20);
        // Data now flows backup→main: the link roles swap.
        (ready, g.reverse, g.link, cap)
    };
    if !ready {
        return;
    }
    let new_gid = state
        .storage_mut()
        .establish_reverse_group(gid, link, reverse, cap);
    sv.set_stage(gid, RecoveryStage::FailingBack { reverse: new_gid });
    sv.set_stage(new_gid, RecoveryStage::Healthy);
    kick_transfer(state, sim, new_gid, Some(SimDuration::ZERO));
}

/// Complete the failback once the reverse group caught up: promote it
/// home and re-establish the original forward protection.
fn try_complete_failback<S, E>(
    state: &mut S,
    sim: &mut Sim<S, E>,
    sv: &mut Supervisor,
    gid: GroupId,
    reverse: GroupId,
) where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let (caught_up, cap) = {
        let st = state.storage();
        let rg = st.fabric.group(reverse);
        let drained = [rg.primary_jnl, rg.secondary_jnl]
            .into_iter()
            .flatten()
            .all(|jid| st.fabric.journal(jid).is_empty());
        let applied = rg.pairs.iter().all(|&pid| {
            let p = st.fabric.pair(pid);
            p.acked_writes == p.applied_writes
        });
        let cap = rg
            .primary_jnl
            .map(|jid| st.fabric.journal(jid).capacity_bytes())
            .unwrap_or(1 << 20);
        (
            rg.is_active() && !rg.pairs.is_empty() && drained && applied,
            cap,
        )
    };
    if !caught_up {
        return;
    }
    let fwd = state.storage_mut().complete_failback(reverse, cap);
    sv.stats.failbacks += 1;
    sv.set_stage(gid, RecoveryStage::Healthy);
    sv.set_stage(reverse, RecoveryStage::Healthy);
    sv.set_stage(fwd, RecoveryStage::Healthy);
    kick_transfer(state, sim, fwd, Some(SimDuration::ZERO));
}

fn step_group<S, E>(state: &mut S, sim: &mut Sim<S, E>, sv: &mut Supervisor, gid: GroupId)
where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let now = sim.now();
    let stage = sv.stage(gid);
    // Terminal / cross-group stages first: they outlive the group's own
    // pair list (failback detaches pairs from the promoted husk).
    match stage {
        RecoveryStage::Parked { .. } => return,
        RecoveryStage::FailingBack { reverse } => {
            try_complete_failback(state, sim, sv, gid, reverse);
            return;
        }
        _ => {}
    }
    let (has_pairs, gstate) = {
        let g = state.storage().fabric.group(gid);
        (!g.pairs.is_empty(), g.state)
    };
    if !has_pairs {
        // Detached husk (old direction of a completed failback): nothing
        // left to supervise.
        sv.set_stage(gid, RecoveryStage::Healthy);
        return;
    }
    match gstate {
        GroupState::Promoted => match stage {
            RecoveryStage::FailedOver { .. } => {
                if sv.policy.auto_failback {
                    try_begin_failback(state, sim, sv, gid);
                }
            }
            // Promoted by someone else (experiment code): adopt the state
            // so auto-failback can still take over.
            _ => sv.set_stage(gid, RecoveryStage::FailedOver { at: now }),
        },
        GroupState::Suspended { since, .. } => match stage {
            RecoveryStage::BackingOff {
                attempt,
                since,
                until,
            } => {
                if now < until {
                    return;
                }
                if recovery_blocked(state.storage(), gid, now) {
                    // Blocked attempts are free: re-check next probe
                    // without consuming the attempt budget.
                    sv.set_stage(
                        gid,
                        RecoveryStage::BackingOff {
                            attempt,
                            since,
                            until: now + PROBE_INTERVAL,
                        },
                    );
                    return;
                }
                attempt_resync(state, sim, sv, gid, attempt, since, now);
            }
            RecoveryStage::Recovering { attempt, since, .. } => {
                // Re-suspended mid-recovery: the attempt failed.
                if sv.begin_backoff(
                    gid,
                    attempt + 1,
                    since,
                    now,
                    &mut state.storage_mut().metrics,
                ) {
                    raise_park_alarm(state, gid, attempt, now);
                }
            }
            _ => {
                // Fresh suspension: enter the ladder at attempt 1,
                // anchored at the suspension instant.
                if sv.begin_backoff(gid, 1, since, now, &mut state.storage_mut().metrics) {
                    raise_park_alarm(state, gid, 0, now);
                }
            }
        },
        GroupState::Active => match stage {
            RecoveryStage::Recovering {
                attempt,
                since,
                deadline,
            } => {
                if now >= deadline {
                    let healed_in = now.saturating_since(since);
                    sv.record_heal(healed_in);
                    sv.set_stage(gid, RecoveryStage::Healthy);
                    let st = state.storage_mut();
                    st.metrics.sample(
                        names::SUPERVISOR_TIME_TO_HEAL,
                        now,
                        healed_in.as_nanos() as f64,
                    );
                    st.metrics
                        .record(names::SUPERVISOR_RECOVERY_STAGE, healed_in.as_nanos());
                    st.tracer
                        .span_complete(spans::RECOVERY, since, now, SpanId::NONE, || {
                            vec![
                                ("group", (gid.0 as u64).into()),
                                ("attempts", u64::from(attempt).into()),
                            ]
                        });
                } else if maybe_kick(state, sim, gid, now) {
                    sv.stats.pump_kicks += 1;
                }
            }
            RecoveryStage::PrimaryDown { since } => {
                let (primary_failed, _) = array_health(state.storage(), gid);
                if !primary_failed {
                    // The site came back before the grace ran out; the
                    // business resumes against the original primary.
                    sv.set_stage(gid, RecoveryStage::Healthy);
                } else if sv.policy.auto_failover && now >= since + sv.policy.failover_grace {
                    state.storage_mut().promote_group(gid);
                    sv.stats.failovers += 1;
                    sv.set_stage(gid, RecoveryStage::FailedOver { at: now });
                    let st = state.storage_mut();
                    st.tracer.instant(spans::RECOVERY, now, SpanId::NONE, || {
                        vec![
                            ("group", (gid.0 as u64).into()),
                            ("action", "failover".into()),
                        ]
                    });
                }
            }
            _ => {
                let (primary_failed, secondary_failed) = array_health(state.storage(), gid);
                if secondary_failed {
                    // The backup site died while the group stayed Active:
                    // in-flight frames are being discarded, so suspend
                    // (starting dirty tracking) and heal by resync once
                    // the array is back.
                    state
                        .storage_mut()
                        .fabric
                        .group_mut(gid)
                        .suspend(now, SuspendReason::Operator);
                    sv.stats.suspends_issued += 1;
                    if sv.begin_backoff(gid, 1, now, now, &mut state.storage_mut().metrics) {
                        raise_park_alarm(state, gid, 0, now);
                    }
                } else if primary_failed {
                    sv.set_stage(gid, RecoveryStage::PrimaryDown { since: now });
                } else {
                    if stage != RecoveryStage::Healthy {
                        // Healed externally (operator resync) — adopt it.
                        sv.set_stage(gid, RecoveryStage::Healthy);
                    }
                    if maybe_kick(state, sim, gid, now) {
                        sv.stats.pump_kicks += 1;
                    }
                }
            }
        },
    }
}

/// One supervisor probe pass over every group. Drive this from a periodic
/// timer event (`tsuru-core`'s `ControlOp::SupervisorTick`); a pass with
/// no armed supervisor is a no-op.
pub fn tick<S, E>(state: &mut S, sim: &mut Sim<S, E>)
where
    S: HasStorage + 'static,
    E: StorageEvents<S>,
{
    let Some(mut sv) = state.storage_mut().take_supervisor() else {
        return;
    };
    sv.stats.probes += 1;
    for gid in state.storage().fabric.group_ids() {
        step_group(state, sim, &mut sv, gid);
    }
    state.storage_mut().put_supervisor(sv);
}
