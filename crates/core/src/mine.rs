//! Algorithm 1 — the Minimum Energy (MinE) transfer algorithm.

use crate::planner::Planner;
use crate::{Algorithm, PlannedRun};
use eadt_dataset::{partition, Dataset, PartitionConfig, SizeClass};
use eadt_endsys::Placement;
use eadt_transfer::{NullController, TransferEnv, TransferPlan};
use serde::{Deserialize, Serialize};

/// Minimum Energy transfer (Algorithm 1).
///
/// Partitions the dataset by BDP, merges undersized chunks, computes
/// per-chunk pipelining/parallelism/concurrency with the closed-form rules
/// of §2.3, and transfers all chunks concurrently. Small chunks get deep
/// pipelines and most of the channels (keeping the network busy and the
/// transfer short, which *is* the energy saving for small files); Large
/// chunks — the dominant energy sink — are pinned to a single channel, with
/// the Multi-Chunk reallocation picking up the slack once smaller chunks
/// drain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinE {
    /// `maxChannel`: the channel budget handed to the allocation rule.
    pub max_channel: u32,
    /// BDP-relative partitioning thresholds.
    pub partition: PartitionConfig,
}

impl MinE {
    /// MinE with the default partitioning.
    pub fn new(max_channel: u32) -> Self {
        MinE {
            max_channel: max_channel.max(1),
            partition: PartitionConfig::default(),
        }
    }
}

impl Algorithm for MinE {
    fn name(&self) -> &'static str {
        "MinE"
    }

    fn plan(&self, env: &TransferEnv, dataset: &Dataset) -> PlannedRun {
        let planner = Planner::new(&env.link);
        let chunks = partition(dataset, env.link.bdp(), &self.partition);
        let alloc = planner.mine_allocation(&chunks, self.max_channel);
        let mut chunk_plans = planner.chunk_plans(&chunks, &alloc);
        // The energy guard: Large chunks keep one channel for the whole
        // transfer, even when other chunks free theirs.
        for (plan, chunk) in chunk_plans.iter_mut().zip(&chunks) {
            plan.accepts_reallocation = chunk.class != SizeClass::Large;
        }
        let plan = TransferPlan::concurrent(chunk_plans, Placement::PackFirst);
        PlannedRun::new(plan, NullController, false)
            .with_decision("closed-form plan: Large chunks pinned to one channel")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{mixed_dataset, wan_env};
    use crate::RunCtx;

    #[test]
    fn plan_pins_large_chunk_to_one_channel() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let plan = MinE::new(12).plan(&env, &dataset).plan;
        assert_eq!(plan.stages.len(), 1, "MinE is multi-chunk (concurrent)");
        let chunks = &plan.stages[0].chunks;
        assert!(chunks.len() >= 2);
        let large = chunks
            .iter()
            .find(|c| c.label == "Large")
            .expect("has a large chunk");
        assert_eq!(large.channels, 1);
        // Small chunk holds the bulk of the allocation.
        let small = chunks
            .iter()
            .find(|c| c.label == "Small")
            .expect("has a small chunk");
        assert!(
            small.channels > large.channels,
            "{:?}",
            chunks
                .iter()
                .map(|c| (&c.label, c.channels))
                .collect::<Vec<_>>()
        );
        assert!(small.pipelining > 1);
        assert_eq!(large.pipelining, 1);
    }

    #[test]
    fn run_completes_and_reports() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let report = MinE::new(8).run(&mut RunCtx::new(&env, &dataset));
        assert!(report.completed);
        assert_eq!(report.moved_bytes, dataset.total_size());
        assert!(report.total_energy_j() > 0.0);
    }

    #[test]
    fn more_channels_do_not_hurt_throughput() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let lo = MinE::new(2).run(&mut RunCtx::new(&env, &dataset));
        let hi = MinE::new(12).run(&mut RunCtx::new(&env, &dataset));
        assert!(
            hi.avg_throughput().as_mbps() >= lo.avg_throughput().as_mbps() * 0.95,
            "hi={} lo={}",
            hi.avg_throughput(),
            lo.avg_throughput()
        );
    }
}
