//! Object metadata, mirroring the Kubernetes object model.

use std::collections::BTreeMap;

/// Metadata common to every API object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Object name, unique within (kind, namespace).
    pub name: String,
    /// Namespace, `None` for cluster-scoped objects.
    pub namespace: Option<String>,
    /// Unique id assigned at creation.
    pub uid: u64,
    /// Monotonically increasing per-store version, bumped on every write.
    pub resource_version: u64,
    /// Labels (used by selectors and by the namespace operator's backup
    /// tag).
    pub labels: BTreeMap<String, String>,
    /// Free-form annotations (used for operator status notes).
    pub annotations: BTreeMap<String, String>,
}

impl ObjectMeta {
    /// Metadata for a namespaced object.
    pub fn namespaced(namespace: impl Into<String>, name: impl Into<String>) -> Self {
        ObjectMeta {
            name: name.into(),
            namespace: Some(namespace.into()),
            ..Default::default()
        }
    }

    /// Metadata for a cluster-scoped object.
    pub fn cluster(name: impl Into<String>) -> Self {
        ObjectMeta {
            name: name.into(),
            namespace: None,
            ..Default::default()
        }
    }

    /// Attach a label (builder style).
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.insert(key.into(), value.into());
        self
    }

    /// The store key: `namespace/name` or `name`.
    pub fn key(&self) -> String {
        match &self.namespace {
            Some(ns) => format!("{ns}/{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Does this object's label set satisfy `selector` (every selector
    /// entry must match exactly)?
    pub fn matches_labels(&self, selector: &BTreeMap<String, String>) -> bool {
        selector.iter().all(|(k, v)| self.labels.get(k) == Some(v))
    }
}

/// Every API object exposes its metadata and a kind string.
pub trait Object {
    /// Kind name, e.g. `PersistentVolumeClaim`.
    const KIND: &'static str;
    /// Borrow metadata.
    fn meta(&self) -> &ObjectMeta;
    /// Mutably borrow metadata.
    fn meta_mut(&mut self) -> &mut ObjectMeta;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys() {
        assert_eq!(ObjectMeta::namespaced("shop", "db").key(), "shop/db");
        assert_eq!(ObjectMeta::cluster("pv-1").key(), "pv-1");
    }

    #[test]
    fn label_matching() {
        let meta = ObjectMeta::cluster("x")
            .with_label("app", "shop")
            .with_label("tier", "db");
        let mut sel = BTreeMap::new();
        assert!(meta.matches_labels(&sel)); // empty selector matches all
        sel.insert("app".into(), "shop".into());
        assert!(meta.matches_labels(&sel));
        sel.insert("tier".into(), "web".into());
        assert!(!meta.matches_labels(&sel));
        sel.insert("tier".into(), "db".into());
        assert!(meta.matches_labels(&sel));
        sel.insert("missing".into(), "x".into());
        assert!(!meta.matches_labels(&sel));
    }
}
