//! Deterministic e-commerce workload generation.

use serde::{Deserialize, Serialize};
use tsuru_sim::{DetRng, SimDuration, Zipf};

/// Workload shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Closed-loop client count.
    pub clients: usize,
    /// Mean think time between a client's transactions (exponential).
    pub think_time_mean: SimDuration,
    /// Catalogue size.
    pub items: usize,
    /// Item-popularity skew (0 = uniform, 1 ≈ classic Zipf).
    pub zipf_theta: f64,
    /// Initial stock per item.
    pub initial_stock: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            clients: 8,
            think_time_mean: SimDuration::from_millis(5),
            items: 100,
            zipf_theta: 0.9,
            initial_stock: 1_000_000,
        }
    }
}

/// Which closed-loop workload a trial runs against the two databases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// The order workload (stock decrement then order row).
    Ecom,
    /// Bank transfers over the stock rows (total-balance invariant).
    Bank,
    /// Per-key ordered appends in the sales database.
    AppendList,
}

impl WorkloadKind {
    /// All workloads, in report order.
    pub const ALL: [WorkloadKind; 3] =
        [WorkloadKind::Ecom, WorkloadKind::Bank, WorkloadKind::AppendList];

    /// Stable label for tables and reports.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Ecom => "ecom",
            WorkloadKind::Bank => "bank",
            WorkloadKind::AppendList => "append-list",
        }
    }
}

/// One order to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderSpec {
    /// Globally unique order id.
    pub order_id: u64,
    /// Item to purchase.
    pub item: u64,
    /// Quantity (1–3).
    pub quantity: u32,
    /// Issuing client.
    pub client: u32,
}

/// Deterministic generator of orders and think times.
#[derive(Debug)]
pub struct WorkloadGen {
    /// Shape parameters.
    pub config: WorkloadConfig,
    rng: DetRng,
    zipf: Zipf,
    next_order: u64,
}

impl WorkloadGen {
    /// A generator seeded from a dedicated stream.
    pub fn new(config: WorkloadConfig, rng: DetRng) -> Self {
        let zipf = Zipf::new(config.items, config.zipf_theta);
        WorkloadGen {
            config,
            rng,
            zipf,
            next_order: 1,
        }
    }

    /// Generate the next order for `client`.
    pub fn next_order(&mut self, client: u32) -> OrderSpec {
        let order_id = self.next_order;
        self.next_order += 1;
        OrderSpec {
            order_id,
            item: self.zipf.sample(&mut self.rng) as u64,
            quantity: 1 + self.rng.gen_range(3) as u32,
            client,
        }
    }

    /// Sample a think time.
    pub fn think_time(&mut self) -> SimDuration {
        let mean = self.config.think_time_mean.as_nanos() as f64;
        SimDuration::from_nanos(self.rng.gen_exp(mean.max(1.0)) as u64)
    }

    /// Orders generated so far.
    pub fn orders_generated(&self) -> u64 {
        self.next_order - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_ids_are_unique_and_fields_bounded() {
        let mut g = WorkloadGen::new(WorkloadConfig::default(), DetRng::new(1));
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000 {
            let o = g.next_order(i % 8);
            assert!(seen.insert(o.order_id));
            assert!((o.item as usize) < g.config.items);
            assert!((1..=3).contains(&o.quantity));
        }
        assert_eq!(g.orders_generated(), 1000);
    }

    #[test]
    fn hot_items_dominate() {
        let mut g = WorkloadGen::new(
            WorkloadConfig {
                zipf_theta: 1.1,
                ..Default::default()
            },
            DetRng::new(2),
        );
        let mut counts = vec![0u32; g.config.items];
        for _ in 0..20_000 {
            counts[g.next_order(0).item as usize] += 1;
        }
        assert!(counts[0] > counts[50] * 5);
    }

    #[test]
    fn same_seed_same_workload() {
        let mk = || {
            let mut g = WorkloadGen::new(WorkloadConfig::default(), DetRng::new(7));
            (0..100)
                .map(|i| {
                    let o = g.next_order(i % 4);
                    (o.item, o.quantity, g.think_time())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn think_times_average_near_mean() {
        let mut g = WorkloadGen::new(
            WorkloadConfig {
                think_time_mean: SimDuration::from_millis(10),
                ..Default::default()
            },
            DetRng::new(3),
        );
        let n = 20_000;
        let total: u64 = (0..n).map(|_| g.think_time().as_nanos()).sum();
        let mean_ms = total as f64 / n as f64 / 1e6;
        assert!((mean_ms - 10.0).abs() < 0.5, "mean {mean_ms}ms");
    }
}
