//! Typed kernel events for the business-process driver.
//!
//! The closed-loop client lifecycle has exactly one self-scheduled hop —
//! "wake this client and run its next transaction" — used both for the
//! start-up stagger and for the post-commit think time. Carrying it as a
//! plain enum variant instead of a boxed closure makes the steady-state
//! client loop allocation-free on the kernel side.

use tsuru_sim::Sim;
use tsuru_storage::{HasStorage, StorageEvents};

use crate::app::HasEcom;
use crate::driver::client_txn;

/// One scheduled step of the business-process driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcomOp {
    /// Wake `client` and run its next order transaction (initial stagger
    /// and post-commit think time both land here).
    ClientThink {
        /// Closed-loop client index.
        client: u32,
    },
    /// Wake `client` of the bank-transfer workload.
    BankThink {
        /// Closed-loop client index.
        client: u32,
    },
    /// Wake `client` of the append-list workload.
    AppendThink {
        /// Closed-loop client index.
        client: u32,
    },
}

impl EcomOp {
    /// Fire this step.
    pub fn dispatch<S, E>(self, state: &mut S, sim: &mut Sim<S, E>)
    where
        S: HasStorage + HasEcom + 'static,
        E: EcomEvents<S>,
    {
        match self {
            EcomOp::ClientThink { client } => client_txn(state, sim, client),
            EcomOp::BankThink { client } => crate::bank::bank_txn(state, sim, client),
            EcomOp::AppendThink { client } => crate::append::append_txn(state, sim, client),
        }
    }
}

/// A kernel event type that can carry business-process steps (and, as a
/// supertrait, the storage data-plane steps every transaction bottoms out
/// in).
pub trait EcomEvents<S>: StorageEvents<S> {
    /// Wrap a driver step as a kernel event.
    fn ecom(op: EcomOp) -> Self;
}
