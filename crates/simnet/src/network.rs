//! A registry of named inter-site links.

use tsuru_sim::DetRng;
use tsuru_telemetry::Tracer;

use crate::link::{Link, LinkConfig, LinkId};

/// A collection of unidirectional links indexed by [`LinkId`]: ids are
/// minted in registration order and links are never removed, so `LinkId(n)`
/// is element `n`.
///
/// The demonstration system uses one link per replication direction between
/// the main and backup arrays; larger topologies (fan-in consolidation,
/// three-data-centre) simply register more links.
#[derive(Debug, Default)]
pub struct Network {
    links: Vec<Link>,
    tracer: Tracer,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Register a new link and return its id. `rng` seeds the link's
    /// jitter/loss stream.
    pub fn add_link(&mut self, config: LinkConfig, rng: DetRng) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        let mut link = Link::new(config, rng);
        link.set_tracer(self.tracer.clone(), id.0 as u64);
        self.links.push(link);
        id
    }

    /// Install a tracing handle on the network and every link —
    /// existing and future ones alike.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for (i, l) in self.links.iter_mut().enumerate() {
            l.set_tracer(tracer.clone(), i as u64);
        }
        self.tracer = tracer;
    }

    /// Borrow a link.
    ///
    /// # Panics
    /// Panics on an unknown id — link ids are created by this registry, so a
    /// miss is a programming error, not a runtime condition.
    pub fn link(&self, id: LinkId) -> &Link {
        self.links
            .get(id.0 as usize)
            .expect("invariant: LinkId is only minted by add_link")
    }

    /// Mutably borrow a link.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        self.links
            .get_mut(id.0 as usize)
            .expect("invariant: LinkId is only minted by add_link")
    }

    /// Number of registered links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True if no links are registered.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Restore every link.
    pub fn heal_all(&mut self) {
        for l in &mut self.links {
            l.set_up();
        }
    }

    /// Iterate over `(id, link)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::TransferOutcome;
    use tsuru_sim::{SimDuration, SimTime};

    #[test]
    fn register_and_use_links() {
        let mut net = Network::new();
        let rng = DetRng::new(1);
        let a = net.add_link(
            LinkConfig::with(SimDuration::from_millis(1), 1_000_000),
            rng.derive(0),
        );
        let b = net.add_link(
            LinkConfig::with(SimDuration::from_millis(2), 1_000_000),
            rng.derive(1),
        );
        assert_ne!(a, b);
        assert_eq!(net.len(), 2);
        assert!(matches!(
            net.link_mut(a).offer(SimTime::ZERO, 10),
            TransferOutcome::DeliveredAt { .. }
        ));
        assert_eq!(
            net.link(b).config().propagation,
            SimDuration::from_millis(2)
        );
    }

    #[test]
    fn partition_and_heal() {
        let mut net = Network::new();
        let rng = DetRng::new(2);
        let a = net.add_link(LinkConfig::metro(), rng.derive(0));
        net.link_mut(a).set_down(SimTime::from_secs(1), None);
        assert!(!net.link(a).is_up(SimTime::from_secs(2)));
        net.heal_all();
        assert!(net.link(a).is_up(SimTime::from_secs(2)));
    }

    #[test]
    #[should_panic(expected = "LinkId is only minted by add_link")]
    fn unknown_link_panics() {
        let net = Network::new();
        let _ = net.link(LinkId(7));
    }
}
