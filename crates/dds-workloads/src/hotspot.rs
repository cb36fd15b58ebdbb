//! Skewed-activity churn: most topology changes touch a small *hot* id
//! range. With the default decile hot set (`hot_ids = n/10`) and endpoint
//! bias 0.7, well over 60 % of all edge endpoints land in the first id
//! decile, so a few nodes carry most of the round engine's work. Shrinking
//! `hot_ids` to a handful of nodes turns the same generator into a hub
//! workload (a few nodes on almost every change).
//!
//! Deletions pick uniformly from the live edge set; since insertions are
//! hot-skewed, the live set — and therefore deletion activity — inherits
//! the same skew.

use crate::schedule::{EdgeLedger, Workload};
use dds_net::{Edge, EventBatch, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`Hotspot`].
#[derive(Clone, Copy, Debug)]
pub struct HotspotConfig {
    /// Number of nodes.
    pub n: usize,
    /// Size of the hot id range `0..hot_ids` (clamped to `1..=n`).
    pub hot_ids: usize,
    /// Probability that one endpoint of a new edge is drawn from the hot
    /// range (the other factor of skew: cold endpoints are uniform over
    /// all of `0..n`, so they land in the hot range too at rate
    /// `hot_ids / n`).
    pub hot: f64,
    /// Equilibrium live-edge count the churn hovers around.
    pub target_edges: usize,
    /// Topology changes attempted per round.
    pub changes_per_round: usize,
    /// Number of rounds to generate.
    pub rounds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        HotspotConfig {
            n: 64,
            hot_ids: 7,
            hot: 0.7,
            target_edges: 128,
            changes_per_round: 4,
            rounds: 300,
            seed: 0x407,
        }
    }
}

/// Hotspot / hub churn workload.
pub struct Hotspot {
    cfg: HotspotConfig,
    ledger: EdgeLedger,
    rng: SmallRng,
    round: usize,
    /// Live edges, for uniform deletion (order is insertion order with
    /// swap-remove holes — irrelevant, deletion indexes uniformly).
    live: Vec<Edge>,
}

impl Hotspot {
    /// New workload from configuration.
    pub fn new(mut cfg: HotspotConfig) -> Self {
        assert!(cfg.n >= 2, "hotspot needs at least two nodes");
        cfg.hot_ids = cfg.hot_ids.clamp(1, cfg.n);
        cfg.hot = cfg.hot.clamp(0.0, 1.0);
        Hotspot {
            ledger: EdgeLedger::new(),
            rng: SmallRng::seed_from_u64(cfg.seed),
            round: 0,
            live: Vec::new(),
            cfg,
        }
    }

    /// One endpoint: hot range with probability `hot`, else uniform.
    fn endpoint(&mut self) -> u32 {
        let hot_millis = (self.cfg.hot * 1000.0) as u64;
        if self.rng.gen_range(0..1000u64) < hot_millis {
            self.rng.gen_range(0..self.cfg.hot_ids as u32)
        } else {
            self.rng.gen_range(0..self.cfg.n as u32)
        }
    }
}

impl Workload for Hotspot {
    fn n(&self) -> usize {
        self.cfg.n
    }

    fn rounds_hint(&self) -> Option<usize> {
        Some(self.cfg.rounds.saturating_sub(self.round))
    }

    fn next_batch(&mut self) -> Option<EventBatch> {
        if self.round >= self.cfg.rounds {
            return None;
        }
        self.round += 1;
        let mut batch = EventBatch::new();
        for _ in 0..self.cfg.changes_per_round {
            // Hover around the target: fill while under, churn at it.
            let insert = if self.live.is_empty() {
                true
            } else if self.live.len() >= self.cfg.target_edges {
                false
            } else {
                self.rng.gen_range(0..4u32) < 3 // 3:1 toward filling up
            };
            if insert {
                let u = self.endpoint();
                let w = self.endpoint();
                if u == w {
                    continue;
                }
                let e = Edge::new(NodeId(u), NodeId(w));
                if self.ledger.insert(&mut batch, e) {
                    self.live.push(e);
                }
            } else {
                let i = self.rng.gen_range(0..self.live.len());
                let e = self.live.swap_remove(i);
                self.ledger.delete(&mut batch, e);
            }
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::record;

    #[test]
    fn valid_and_reproducible() {
        let cfg = HotspotConfig::default();
        let a = record(Hotspot::new(cfg), usize::MAX);
        assert!(a.validate().is_ok());
        assert_eq!(a.rounds(), cfg.rounds);
        assert_eq!(a, record(Hotspot::new(cfg), usize::MAX));
    }

    #[test]
    fn activity_concentrates_in_the_hot_decile() {
        let n = 1000usize;
        let cfg = HotspotConfig {
            n,
            hot_ids: n / 10,
            hot: 0.7,
            target_edges: 2 * n,
            changes_per_round: 40,
            rounds: 200,
            seed: 9,
        };
        let t = record(Hotspot::new(cfg), usize::MAX);
        let (mut hot, mut total) = (0usize, 0usize);
        for batch in &t.batches {
            for ev in batch.iter() {
                let (a, b) = ev.edge().endpoints();
                for id in [a.0, b.0] {
                    total += 1;
                    if (id as usize) < n / 10 {
                        hot += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        let frac = hot as f64 / total as f64;
        assert!(frac >= 0.6, "hot-decile activity only {frac:.2}");
    }

    #[test]
    fn hub_mode_pins_activity_to_a_handful_of_ids() {
        let cfg = HotspotConfig {
            n: 500,
            hot_ids: 2,
            hot: 0.9,
            target_edges: 600,
            changes_per_round: 20,
            rounds: 100,
            seed: 4,
        };
        let t = record(Hotspot::new(cfg), usize::MAX);
        let (mut hub, mut total) = (0usize, 0usize);
        for batch in &t.batches {
            for ev in batch.iter() {
                let (a, b) = ev.edge().endpoints();
                total += 1;
                if a.0 < 2 || b.0 < 2 {
                    hub += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            hub as f64 / total as f64 >= 0.75,
            "hub touched only {hub}/{total} changes"
        );
    }
}
