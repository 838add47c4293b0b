//! The demonstration world's typed kernel event.
//!
//! [`DemoEvent`] is the closed event vocabulary of the whole system:
//! storage data-plane hops, business-process client wake-ups, and the
//! experiment control plane (fault injection, lag sampling, supervisor
//! probes, SLO evaluation). Every variant is a value dispatched by
//! `match`, so scheduling any step costs zero heap allocations on the
//! kernel side (the ledger's `sim.allocs_per_event`); there is no closure
//! arm.

use std::cell::RefCell;
use std::rc::Rc;

use tsuru_ecom::{EcomEvents, EcomOp};
use tsuru_sim::{Event, Sim, SimDuration};
use tsuru_storage::{ArrayId, GroupId, StorageEvents, StorageOp, PROBE_INTERVAL};

use crate::world::DemoWorld;

/// The kernel event type of the demonstration world.
pub type DemoSim = Sim<DemoWorld, DemoEvent>;

/// One scheduled step anywhere in the demonstration system.
pub enum DemoEvent {
    /// A storage data-plane hop (persist, pump cycle, SDC leg, …).
    Storage(StorageOp<DemoWorld, DemoEvent>),
    /// A business-process step (client wake-up).
    Ecom(EcomOp),
    /// An experiment control-plane step (fault injection, sampling).
    Control(ControlOp),
}

/// Experiment control-plane steps.
pub enum ControlOp {
    /// Fail an array at the scheduled instant (site-disaster injection).
    FailArray {
        /// The array to fail.
        array: ArrayId,
    },
    /// Record the replication backlog of `groups` and re-arm every 5 ms
    /// while `remaining > 0` (the A1 lag sampler).
    SampleLag {
        /// Groups whose pair backlogs are summed.
        groups: Vec<GroupId>,
        /// Shared sample sink (read by the experiment after the run).
        out: Rc<RefCell<Vec<u64>>>,
        /// Re-arms left after this sample.
        remaining: u32,
    },
    /// One supervisor probe pass, re-armed every
    /// [`tsuru_storage::PROBE_INTERVAL`] while `remaining > 0` (see
    /// [`tsuru_storage::supervisor::tick`]). A no-op when no supervisor
    /// is armed on the world.
    SupervisorTick {
        /// Re-arms left after this probe.
        remaining: u32,
    },
    /// One SLO evaluation pass (health sampling + alert rules), re-armed
    /// at the armed profile's `eval_interval` while `remaining > 0` (see
    /// [`tsuru_storage::StorageWorld::slo_tick`]). A no-op when no alert
    /// engine is armed on the world.
    SloTick {
        /// Re-arms left after this evaluation.
        remaining: u32,
    },
}

impl ControlOp {
    fn dispatch(self, w: &mut DemoWorld, sim: &mut DemoSim) {
        match self {
            ControlOp::FailArray { array } => {
                let now = sim.now();
                w.st.fail_array(array, now);
            }
            ControlOp::SampleLag {
                groups,
                out,
                remaining,
            } => {
                let lag: u64 = groups
                    .iter()
                    .flat_map(|&g| w.st.fabric.group(g).pairs.clone())
                    .map(|pid| {
                        let p = w.st.fabric.pair(pid);
                        p.acked_writes - p.applied_writes
                    })
                    .sum();
                out.borrow_mut().push(lag);
                if remaining > 0 {
                    sim.schedule_event_in(
                        SimDuration::from_millis(5),
                        DemoEvent::Control(ControlOp::SampleLag {
                            groups,
                            out,
                            remaining: remaining - 1,
                        }),
                    );
                }
            }
            ControlOp::SupervisorTick { remaining } => {
                tsuru_storage::supervisor::tick(w, sim);
                if w.st.supervisor().is_some() && remaining > 0 {
                    sim.schedule_event_in(
                        PROBE_INTERVAL,
                        DemoEvent::Control(ControlOp::SupervisorTick {
                            remaining: remaining - 1,
                        }),
                    );
                }
            }
            ControlOp::SloTick { remaining } => {
                let now = sim.now();
                w.st.slo_tick(now);
                let interval = w.st.alerts().map(|a| a.profile().eval_interval);
                if let Some(interval) = interval {
                    if remaining > 0 {
                        sim.schedule_event_in(
                            interval,
                            DemoEvent::Control(ControlOp::SloTick {
                                remaining: remaining - 1,
                            }),
                        );
                    }
                }
            }
        }
    }
}

impl Event<DemoWorld> for DemoEvent {
    fn dispatch(self, state: &mut DemoWorld, sim: &mut Sim<DemoWorld, Self>) {
        match self {
            DemoEvent::Storage(op) => op.dispatch(state, sim),
            DemoEvent::Ecom(op) => op.dispatch(state, sim),
            DemoEvent::Control(op) => op.dispatch(state, sim),
        }
    }
}

impl StorageEvents<DemoWorld> for DemoEvent {
    fn storage(op: StorageOp<DemoWorld, Self>) -> Self {
        DemoEvent::Storage(op)
    }
}

impl EcomEvents<DemoWorld> for DemoEvent {
    fn ecom(op: EcomOp) -> Self {
        DemoEvent::Ecom(op)
    }
}
