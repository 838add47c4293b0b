//! The controller runtime: level-triggered reconciliation to a fixed point.
//!
//! Controllers (provisioners, plugins, the namespace operator) implement
//! [`Reconciler`]; the [`ControllerManager`] runs them in rounds until a
//! full round produces no API mutation. This mirrors how Kubernetes
//! controllers converge, and the returned [`ConvergenceReport`] is the raw
//! material for experiment E5 (operator automation cost).

use crate::api::ApiServer;

/// A level-triggered controller over the API state plus an external
/// context `C` (the storage world, for CSI drivers and plugins).
pub trait Reconciler<C> {
    /// Controller name (diagnostics).
    fn name(&self) -> &str;
    /// Observe the API state and drive it (and the context) toward the
    /// declared intent. Must be idempotent.
    fn reconcile(&mut self, api: &mut ApiServer, ctx: &mut C);
}

/// What a convergence run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// Full rounds executed (including the final quiet round).
    pub rounds: u32,
    /// Individual `reconcile` invocations.
    pub reconcile_calls: u32,
    /// API mutations performed during the run.
    pub mutations: u64,
    /// Whether a fixed point was reached within the round budget.
    pub converged: bool,
}

/// Runs a set of controllers to a fixed point.
pub struct ControllerManager;

impl ControllerManager {
    /// Run every controller once per round until a whole round leaves the
    /// API untouched, or `max_rounds` is exhausted.
    pub fn run_to_convergence<C>(
        api: &mut ApiServer,
        ctx: &mut C,
        controllers: &mut [&mut dyn Reconciler<C>],
        max_rounds: u32,
    ) -> ConvergenceReport {
        let start_mutations = api.total_mutations();
        let mut rounds = 0;
        let mut calls = 0;
        let mut converged = false;
        while rounds < max_rounds {
            rounds += 1;
            let before = api.total_mutations();
            for c in controllers.iter_mut() {
                c.reconcile(api, ctx);
                calls += 1;
            }
            if api.total_mutations() == before {
                converged = true;
                break;
            }
        }
        ConvergenceReport {
            rounds,
            reconcile_calls: calls,
            mutations: api.total_mutations() - start_mutations,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::ObjectMeta;
    use crate::resources::Namespace;

    /// Creates namespaces `gen-0..gen-N` one per round (a convergent chain).
    struct ChainController {
        target: usize,
    }

    impl Reconciler<()> for ChainController {
        fn name(&self) -> &str {
            "chain"
        }
        fn reconcile(&mut self, api: &mut ApiServer, _ctx: &mut ()) {
            let n = api.namespaces.len();
            if n < self.target {
                api.namespaces.create(Namespace {
                    meta: ObjectMeta::cluster(format!("gen-{n}")),
                });
            }
        }
    }

    /// A controller that never settles.
    struct FlappingController;

    impl Reconciler<()> for FlappingController {
        fn name(&self) -> &str {
            "flap"
        }
        fn reconcile(&mut self, api: &mut ApiServer, _ctx: &mut ()) {
            let key = "flap";
            if api.namespaces.contains(key) {
                api.namespaces.delete(key);
            } else {
                api.namespaces.create(Namespace {
                    meta: ObjectMeta::cluster(key),
                });
            }
        }
    }

    #[test]
    fn chain_converges_in_target_plus_one_rounds() {
        let mut api = ApiServer::new();
        let mut c = ChainController { target: 5 };
        let report = ControllerManager::run_to_convergence(&mut api, &mut (), &mut [&mut c], 100);
        assert!(report.converged);
        assert_eq!(api.namespaces.len(), 5);
        assert_eq!(report.rounds, 6); // 5 productive + 1 quiet
        assert_eq!(report.mutations, 5);
    }

    #[test]
    fn flapping_controller_hits_round_budget() {
        let mut api = ApiServer::new();
        let mut c = FlappingController;
        let report = ControllerManager::run_to_convergence(&mut api, &mut (), &mut [&mut c], 10);
        assert!(!report.converged);
        assert_eq!(report.rounds, 10);
    }

    #[test]
    fn multiple_controllers_interleave() {
        let mut api = ApiServer::new();
        let mut a = ChainController { target: 3 };
        let mut b = ChainController { target: 6 };
        let report =
            ControllerManager::run_to_convergence(&mut api, &mut (), &mut [&mut a, &mut b], 100);
        assert!(report.converged);
        assert_eq!(api.namespaces.len(), 6);
    }

    #[test]
    fn empty_controller_set_converges_immediately() {
        let mut api = ApiServer::new();
        let report = ControllerManager::run_to_convergence::<()>(&mut api, &mut (), &mut [], 10);
        assert!(report.converged);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.reconcile_calls, 0);
    }
}
