//! Config-deduplicated [`LinkWorker`] pool shared by the measurement
//! runners.
//!
//! A [`LinkWorker`] only carries *configuration-shaped* machinery — the
//! transmitter, the streaming channel, receiver scratch — while everything
//! per-round (waveform records, payload snapshots) lives in the caller's
//! storage. A pool therefore holds one worker per **distinct**
//! [`Gen2Config`] rather than one per link: a 10 000-link network on a
//! round-robin channel policy costs 14 workers, not 10 000.
//!
//! This used to be private to [`crate::runner::NetWorker`]; it is a module
//! of its own so that event-driven layers above the network round machinery
//! (the `uwb-mac` discrete-event simulator, which synthesizes and decodes
//! transmissions for event-selected link subsets rather than whole rounds)
//! can share the exact same pooling discipline.

use crate::controller::NetPlan;
use uwb_phy::Gen2Config;
use uwb_platform::link::LinkWorker;

/// One [`LinkWorker`] per distinct link configuration in a [`NetPlan`],
/// plus the link → worker index map.
pub struct WorkerPool {
    workers: Vec<LinkWorker>,
    /// Per link: index of its configuration's worker in `workers`.
    config_of: Vec<u32>,
}

impl WorkerPool {
    /// Builds the pool from the frozen plan: one worker per distinct
    /// `Gen2Config`, in first-appearance (ascending link) order.
    pub fn new(plan: &NetPlan) -> Self {
        let n = plan.len();
        let mut workers: Vec<LinkWorker> = Vec::new();
        let mut pool_configs: Vec<&Gen2Config> = Vec::new();
        let mut config_of = Vec::with_capacity(n);
        for l in &plan.links {
            let cfg = &l.scenario.config;
            let id = match pool_configs.iter().position(|c| *c == cfg) {
                Some(i) => i,
                None => {
                    pool_configs.push(cfg);
                    workers.push(LinkWorker::new(&l.scenario));
                    pool_configs.len() - 1
                }
            };
            config_of.push(id as u32);
        }
        WorkerPool { workers, config_of }
    }

    /// Number of links the pool serves.
    pub fn links(&self) -> usize {
        self.config_of.len()
    }

    /// The shared worker serving link `l`'s configuration.
    pub fn worker_for(&mut self, l: usize) -> &mut LinkWorker {
        &mut self.workers[self.config_of[l] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::plan_network;
    use crate::scenario::{ChannelPolicy, NetScenario};
    use uwb_phy::bandplan::Channel;

    #[test]
    fn pool_deduplicates_by_config() {
        // 6 links round-robin over 3 channels -> 3 distinct configs.
        let mut sc = NetScenario::ring(6, 8.0, 7);
        sc.probe_spectral = false;
        sc.policy = ChannelPolicy::RoundRobin(
            (3..6).map(|i| Channel::new(i).unwrap()).collect(),
        );
        let plan = plan_network(&sc);
        let pool = WorkerPool::new(&plan);
        assert_eq!(pool.links(), 6);
        assert_eq!(pool.workers.len(), 3);
        // Links sharing a channel share a worker.
        assert_eq!(pool.config_of[0], pool.config_of[3]);
        assert_eq!(pool.config_of[1], pool.config_of[4]);
        assert_ne!(pool.config_of[0], pool.config_of[1]);
    }
}
