//! The container storage interface (CSI) abstraction and the generic PVC
//! provisioner controller.
//!
//! The CSI "standardizes the operations of external storage systems, which
//! vary depending on the vendors" (§II). Here [`CsiDriver`] is that
//! standard surface; the vendor plugin in `tsuru-plugin` implements it
//! against the simulated array. The [`Provisioner`] is the generic
//! controller that turns Pending claims into bound PVs through whatever
//! driver the storage class names.

use std::collections::BTreeMap;

use crate::api::ApiServer;
use crate::meta::ObjectMeta;
use crate::reconcile::Reconciler;
use crate::resources::{ClaimPhase, PersistentVolume, VolumeHandle};

/// Vendor-neutral storage operations (a subset of the CSI controller
/// service, plus the volume-group-snapshot alpha call).
pub trait CsiDriver<C> {
    /// Driver name as referenced by storage classes.
    fn driver_name(&self) -> &str;

    /// Provision a volume.
    fn create_volume(
        &mut self,
        ctx: &mut C,
        name: &str,
        size_blocks: u64,
        parameters: &BTreeMap<String, String>,
    ) -> Result<VolumeHandle, String>;

    /// Delete a provisioned volume.
    fn delete_volume(&mut self, ctx: &mut C, handle: VolumeHandle) -> Result<(), String>;

    /// Take a snapshot of one volume; returns the array snapshot handle.
    fn create_snapshot(
        &mut self,
        ctx: &mut C,
        source: VolumeHandle,
        name: &str,
    ) -> Result<u64, String>;

    /// Take an atomic snapshot of several volumes (the alpha
    /// volume-group-snapshot feature); returns one handle per source.
    fn create_group_snapshot(
        &mut self,
        ctx: &mut C,
        sources: &[VolumeHandle],
        name: &str,
    ) -> Result<Vec<u64>, String>;

    /// Provision a new volume pre-populated from a snapshot (the CSI
    /// volume data-source / restore path). Drivers that cannot restore
    /// report so instead of silently provisioning empty storage.
    fn create_volume_from_snapshot(
        &mut self,
        _ctx: &mut C,
        _snapshot: u64,
        _name: &str,
    ) -> Result<VolumeHandle, String> {
        Err("driver does not support snapshot restore".into())
    }
}

/// The generic dynamic provisioner: binds Pending PVCs whose storage class
/// names this driver.
pub struct Provisioner<D> {
    driver: D,
    /// Provisioning failures (surfaced as events too).
    pub failures: u64,
}

impl<D> Provisioner<D> {
    /// Wrap a driver.
    pub fn new(driver: D) -> Self {
        Provisioner {
            driver,
            failures: 0,
        }
    }

    /// Access the wrapped driver.
    pub fn driver(&self) -> &D {
        &self.driver
    }
}

impl<C, D: CsiDriver<C>> Reconciler<C> for Provisioner<D> {
    fn name(&self) -> &str {
        "csi-provisioner"
    }

    fn reconcile(&mut self, api: &mut ApiServer, ctx: &mut C) {
        // Collect Pending claims whose class points at this driver.
        let work: Vec<(String, String, u64, BTreeMap<String, String>)> = api
            .pvcs
            .list()
            .filter(|pvc| pvc.phase == ClaimPhase::Pending)
            .filter_map(|pvc| {
                let sc = api.storage_classes.get(&pvc.storage_class)?;
                if sc.provisioner == self.driver.driver_name() {
                    Some((
                        pvc.meta.key(),
                        pvc.meta.name.clone(),
                        pvc.size_blocks,
                        sc.parameters.clone(),
                    ))
                } else {
                    None
                }
            })
            .collect();

        for (pvc_key, pvc_name, size, params) in work {
            let pv_name = format!("pv-{}", pvc_key.replace('/', "-"));
            match self.driver.create_volume(ctx, &pv_name, size, &params) {
                Ok(handle) => {
                    let sc_name = api
                        .pvcs
                        .get(&pvc_key)
                        .map(|p| p.storage_class.clone())
                        .unwrap_or_default();
                    if !api.pvs.contains(&pv_name) {
                        api.pvs.create(PersistentVolume {
                            meta: ObjectMeta::cluster(&pv_name),
                            storage_class: sc_name,
                            size_blocks: size,
                            handle,
                            claim_key: Some(pvc_key.clone()),
                        });
                    }
                    api.pvcs.update(&pvc_key, |pvc| {
                        pvc.phase = ClaimPhase::Bound;
                        pvc.volume_name = Some(pv_name.clone());
                        true
                    });
                    api.record_event(
                        format!("PersistentVolumeClaim/{pvc_key}"),
                        "Provisioned",
                        format!("bound to {pv_name} (array volume {})", handle.volume),
                    );
                }
                Err(why) => {
                    self.failures += 1;
                    api.record_event(
                        format!("PersistentVolumeClaim/{pvc_key}"),
                        "ProvisioningFailed",
                        format!("{pvc_name}: {why}"),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconcile::ControllerManager;
    use crate::resources::{PersistentVolumeClaim, StorageClass};

    /// A toy in-memory driver.
    #[derive(Default)]
    struct FakeDriver {
        created: Vec<(String, u64)>,
        fail_on: Option<String>,
    }

    impl CsiDriver<()> for FakeDriver {
        fn driver_name(&self) -> &str {
            "fake.csi"
        }
        fn create_volume(
            &mut self,
            _ctx: &mut (),
            name: &str,
            size_blocks: u64,
            _p: &BTreeMap<String, String>,
        ) -> Result<VolumeHandle, String> {
            if self.fail_on.as_deref() == Some(name) {
                return Err("simulated failure".into());
            }
            self.created.push((name.to_owned(), size_blocks));
            Ok(VolumeHandle {
                array: 0,
                volume: self.created.len() as u64,
            })
        }
        fn delete_volume(&mut self, _ctx: &mut (), _h: VolumeHandle) -> Result<(), String> {
            Ok(())
        }
        fn create_snapshot(
            &mut self,
            _ctx: &mut (),
            _s: VolumeHandle,
            _n: &str,
        ) -> Result<u64, String> {
            Ok(1)
        }
        fn create_group_snapshot(
            &mut self,
            _ctx: &mut (),
            s: &[VolumeHandle],
            _n: &str,
        ) -> Result<Vec<u64>, String> {
            Ok(vec![1; s.len()])
        }
    }

    fn setup(api: &mut ApiServer) {
        api.storage_classes.create(StorageClass {
            meta: ObjectMeta::cluster("tsuru-block"),
            provisioner: "fake.csi".into(),
            parameters: BTreeMap::new(),
        });
        api.storage_classes.create(StorageClass {
            meta: ObjectMeta::cluster("other"),
            provisioner: "someone.else".into(),
            parameters: BTreeMap::new(),
        });
    }

    fn pvc(ns: &str, name: &str, class: &str, size: u64) -> PersistentVolumeClaim {
        PersistentVolumeClaim {
            meta: ObjectMeta::namespaced(ns, name),
            storage_class: class.into(),
            size_blocks: size,
            phase: ClaimPhase::Pending,
            volume_name: None,
        }
    }

    #[test]
    fn pending_claims_get_bound() {
        let mut api = ApiServer::new();
        setup(&mut api);
        api.pvcs
            .create(pvc("shop", "sales-data", "tsuru-block", 100));
        api.pvcs
            .create(pvc("shop", "stock-data", "tsuru-block", 200));
        api.pvcs.create(pvc("shop", "foreign", "other", 50));
        let mut prov = Provisioner::new(FakeDriver::default());
        let report = ControllerManager::run_to_convergence(&mut api, &mut (), &mut [&mut prov], 10);
        assert!(report.converged);
        assert_eq!(api.pvs.len(), 2, "only this driver's claims provisioned");
        let bound = api.pvcs.get("shop/sales-data").unwrap();
        assert_eq!(bound.phase, ClaimPhase::Bound);
        let pv = api.pvs.get(bound.volume_name.as_deref().unwrap()).unwrap();
        assert_eq!(pv.claim_key.as_deref(), Some("shop/sales-data"));
        assert_eq!(pv.size_blocks, 100);
        // Foreign-class claim untouched.
        assert_eq!(
            api.pvcs.get("shop/foreign").unwrap().phase,
            ClaimPhase::Pending
        );
        assert_eq!(prov.driver().created.len(), 2);
    }

    #[test]
    fn provisioning_is_idempotent() {
        let mut api = ApiServer::new();
        setup(&mut api);
        api.pvcs.create(pvc("shop", "a", "tsuru-block", 10));
        let mut prov = Provisioner::new(FakeDriver::default());
        let r1 = ControllerManager::run_to_convergence(&mut api, &mut (), &mut [&mut prov], 10);
        let m1 = api.total_mutations();
        let r2 = ControllerManager::run_to_convergence(&mut api, &mut (), &mut [&mut prov], 10);
        assert!(r1.converged && r2.converged);
        assert_eq!(api.total_mutations(), m1, "second run must be a no-op");
        assert_eq!(prov.driver().created.len(), 1);
    }

    #[test]
    fn failures_are_recorded_and_retried_without_wedging() {
        let mut api = ApiServer::new();
        setup(&mut api);
        api.pvcs.create(pvc("shop", "bad", "tsuru-block", 10));
        let mut prov = Provisioner::new(FakeDriver {
            fail_on: Some("pv-shop-bad".into()),
            ..Default::default()
        });
        let report = ControllerManager::run_to_convergence(&mut api, &mut (), &mut [&mut prov], 5);
        // Each round retries and fails: events keep the API mutating, so
        // the run exhausts its budget — but the claim stays Pending and no
        // PV exists.
        assert!(!report.converged);
        assert!(prov.failures >= 1);
        assert_eq!(api.pvcs.get("shop/bad").unwrap().phase, ClaimPhase::Pending);
        assert_eq!(api.pvs.len(), 0);
    }
}
