//! Ablations over the design choices DESIGN.md §6 calls out.
//!
//! Each ablation runs the same dataset through a paper variant and an
//! alternative, reporting throughput/energy/efficiency so the cost or
//! benefit of each design choice is a number, not a claim.

use eadt_core::baselines::ProMc;
use eadt_core::{Algorithm, Htee, MinE, Planner, RunCtx, Slaee};
use eadt_dataset::{partition, Dataset};
use eadt_endsys::Placement;
use eadt_sim::SimDuration;
use eadt_testbeds::Environment;
use eadt_transfer::{
    ChunkPlan, Engine, FaultModel, FaultPlan, NullController, OutageModel, SiteSide, TransferPlan,
    TransferReport,
};
use serde::{Deserialize, Serialize};

/// One ablation outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Which design choice is being varied.
    pub study: String,
    /// The variant within the study ("paper" is always present).
    pub variant: String,
    /// Average throughput, Mbps.
    pub throughput_mbps: f64,
    /// Total end-system energy, Joules.
    pub energy_j: f64,
    /// Throughput/energy ratio.
    pub efficiency: f64,
}

impl AblationRow {
    fn new(study: &str, variant: &str, r: &TransferReport) -> Self {
        AblationRow {
            study: study.to_string(),
            variant: variant.to_string(),
            throughput_mbps: r.avg_throughput().as_mbps(),
            energy_j: r.total_energy_j(),
            efficiency: r.efficiency(),
        }
    }
}

/// Runs the full ablation matrix on one testbed.
pub fn ablation_matrix(tb: &Environment, dataset: &Dataset, max_channel: u32) -> Vec<AblationRow> {
    let env = &tb.env;
    let mut rows = Vec::new();

    // 1. HTEE chunk weights: log·log (paper) vs byte-linear.
    {
        let paper = ProMc {
            partition: tb.partition,
            ..ProMc::new(max_channel)
        }
        .run(&mut RunCtx::new(env, dataset));
        rows.push(AblationRow::new("chunk-weights", "log-log (paper)", &paper));
        let chunks = partition(dataset, env.link.bdp(), &tb.partition);
        let planner = Planner::new(&env.link);
        let alloc = planner.linear_weight_allocation(&chunks, max_channel);
        let plans: Vec<ChunkPlan> = chunks
            .iter()
            .zip(&alloc)
            .map(|(c, &ch)| {
                let p = planner.chunk_params(c);
                ChunkPlan::from_chunk(c, p.pipelining, p.parallelism, ch)
            })
            .collect();
        let plan = TransferPlan::concurrent(plans, Placement::PackFirst);
        let linear = Engine::new(env).run(&plan, &mut NullController);
        rows.push(AblationRow::new("chunk-weights", "byte-linear", &linear));
    }

    // 2. HTEE search stride: 2 (paper) vs full sweep.
    {
        let stride2 = Htee {
            partition: tb.partition,
            ..Htee::new(max_channel)
        }
        .run(&mut RunCtx::new(env, dataset));
        rows.push(AblationRow::new(
            "htee-stride",
            "stride 2 (paper)",
            &stride2,
        ));
        let stride1 = Htee {
            partition: tb.partition,
            search_stride: 1,
            ..Htee::new(max_channel)
        }
        .run(&mut RunCtx::new(env, dataset));
        rows.push(AblationRow::new(
            "htee-stride",
            "stride 1 (full sweep)",
            &stride1,
        ));
    }

    // 3. HTEE probe window: 5 s (paper) vs 1 s and 10 s.
    for (label, secs) in [("5 s (paper)", 5u64), ("1 s", 1), ("10 s", 10)] {
        let algo = Htee {
            partition: tb.partition,
            probe_window: SimDuration::from_secs(secs),
            ..Htee::new(max_channel)
        };
        rows.push(AblationRow::new(
            "probe-window",
            label,
            &algo.run(&mut RunCtx::new(env, dataset)),
        ));
    }

    // 4. MinE's single-channel-for-Large pin: on (paper) vs off.
    {
        let mine = MinE {
            partition: tb.partition,
            ..MinE::new(max_channel)
        };
        let pinned = mine.run(&mut RunCtx::new(env, dataset));
        rows.push(AblationRow::new(
            "mine-large-pin",
            "pinned (paper)",
            &pinned,
        ));
        let mut plan = mine.plan(env, dataset).plan;
        for c in &mut plan.stages[0].chunks {
            c.accepts_reallocation = true;
        }
        let unpinned = Engine::new(env).run(&plan, &mut NullController);
        rows.push(AblationRow::new("mine-large-pin", "unpinned", &unpinned));
    }

    // 5. Channel placement: pack one server (custom client) vs spread
    // (GO). Run at concurrency 2 — the regime the paper's GO-vs-SC
    // comparison highlights; at high concurrency spreading can *win* by
    // ducking the over-subscription penalty, which the matrix also shows
    // when max_channel is large.
    for cc in [2u32, max_channel] {
        let promc = ProMc {
            partition: tb.partition,
            ..ProMc::new(cc)
        };
        let packed = promc.run(&mut RunCtx::new(env, dataset));
        rows.push(AblationRow::new(
            "placement",
            &format!("pack-first cc={cc} (paper)"),
            &packed,
        ));
        let mut plan = promc.plan(env, dataset).plan;
        plan.placement = Placement::RoundRobin;
        let spread = Engine::new(env).run(&plan, &mut NullController);
        rows.push(AblationRow::new(
            "placement",
            &format!("round-robin cc={cc}"),
            &spread,
        ));
    }

    // 6. SLAEE guard thresholds: the overshoot-shedding margin (extension)
    // on vs effectively off.
    {
        let reference = ProMc {
            partition: tb.partition,
            ..ProMc::new(max_channel)
        }
        .run(&mut RunCtx::new(env, dataset));
        for (label, margin) in [("shed at +15% (default)", 1.15), ("never shed", 1e9)] {
            let algo = Slaee {
                partition: tb.partition,
                overshoot_margin: margin,
                ..Slaee::new(0.5, reference.avg_throughput(), max_channel)
            };
            rows.push(AblationRow::new(
                "slaee-shedding",
                label,
                &algo.run(&mut RunCtx::new(env, dataset)),
            ));
        }
    }

    rows
}

/// One row of the robustness ablation: energy overhead vs channel MTBF.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultAblationRow {
    /// Channel mean-time-to-failure in seconds; 0 = clean (no faults).
    pub mtbf_s: u64,
    /// "static" or "fault-aware".
    pub variant: String,
    /// Wall-clock transfer duration, seconds.
    pub duration_s: f64,
    /// Average throughput, Mbps.
    pub throughput_mbps: f64,
    /// Total end-system energy, Joules.
    pub energy_j: f64,
    /// Fractional energy overhead vs the clean static run (0.07 = +7 %).
    pub energy_overhead: f64,
    /// Total injected failures observed (channel + outage).
    pub failures: u64,
    /// Slices retried after backoff.
    pub retries: u64,
    /// Circuit-breaker open transitions.
    pub breaker_opens: u64,
    /// Bytes re-sent because progress was lost.
    pub retransmitted_bytes: u64,
    /// Energy re-spent moving those bytes, Joules.
    pub retransmitted_energy_j: f64,
}

impl FaultAblationRow {
    fn new(mtbf_s: u64, variant: &str, r: &TransferReport, clean_energy_j: f64) -> Self {
        FaultAblationRow {
            mtbf_s,
            variant: variant.to_string(),
            duration_s: r.duration.as_secs_f64(),
            throughput_mbps: r.avg_throughput().as_mbps(),
            energy_j: r.total_energy_j(),
            energy_overhead: r.total_energy_j() / clean_energy_j - 1.0,
            failures: r.faults.total_failures(),
            retries: r.faults.retries,
            breaker_opens: r.faults.breaker_opens,
            retransmitted_bytes: r.faults.retransmitted_bytes.as_u64(),
            retransmitted_energy_j: r.retransmitted_energy_j(),
        }
    }
}

/// Sweeps channel MTBF against a fixed destination-server outage and
/// reports the energy overhead of surviving it.
///
/// The clean (no-fault) static run anchors `energy_overhead`; each MTBF
/// point then runs three recovery policies over the identical fault
/// schedule: the paper client with restart markers ("markers"), the same
/// client with markers dropped so every failure re-sends the file from
/// byte zero ("no markers"), and the marker-protected client wrapped in
/// the [`eadt_transfer::FaultAware`] decorator. The table answers three
/// questions at once: what do faults cost, how much of that cost is
/// retransmission (recoverable by checkpointing), and what adaptive
/// shedding changes on top.
pub fn fault_ablation(
    tb: &Environment,
    dataset: &Dataset,
    max_channel: u32,
    mtbfs_s: &[u64],
    seed: u64,
) -> Vec<FaultAblationRow> {
    let promc = |fault_aware: bool| ProMc {
        partition: tb.partition,
        fault_aware,
        ..ProMc::new(max_channel)
    };
    let clean = promc(false).run(&mut RunCtx::new(&tb.env, dataset));
    let clean_j = clean.total_energy_j();
    let mut rows = vec![FaultAblationRow::new(0, "clean", &clean, clean_j)];

    for &mtbf in mtbfs_s {
        let plan = FaultPlan::from(FaultModel::new(SimDuration::from_secs(mtbf), seed))
            .with_outage(OutageModel::new(
                SiteSide::Dst,
                0,
                SimDuration::from_secs(6),
                SimDuration::from_secs(4),
                seed ^ 0x0fa1,
            ));
        let configs = [
            ("markers", false, false),
            ("no markers", false, true),
            ("fault-aware", true, false),
        ];
        for (variant, aware, drop_markers) in configs {
            let mut env = tb.env.clone();
            let mut p = plan.clone();
            p.drop_restart_markers = drop_markers;
            env.faults = Some(p);
            let r = promc(aware).run(&mut RunCtx::new(&env, dataset));
            rows.push(FaultAblationRow::new(mtbf, variant, &r, clean_j));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadt_testbeds::xsede;

    #[test]
    fn matrix_covers_all_studies_and_shows_expected_directions() {
        let tb = xsede();
        let dataset = tb.dataset_spec.scaled(0.03).generate(5);
        let rows = ablation_matrix(&tb, &dataset, 8);
        let studies: std::collections::BTreeSet<&str> =
            rows.iter().map(|r| r.study.as_str()).collect();
        assert_eq!(
            studies.into_iter().collect::<Vec<_>>(),
            vec![
                "chunk-weights",
                "htee-stride",
                "mine-large-pin",
                "placement",
                "probe-window",
                "slaee-shedding"
            ]
        );
        let get = |study: &str, variant: &str| -> &AblationRow {
            rows.iter()
                .find(|r| r.study == study && r.variant.starts_with(variant))
                .unwrap_or_else(|| panic!("missing {study}/{variant}"))
        };
        // Spreading channels over four servers costs energy at the GO
        // regime (concurrency 2).
        assert!(
            get("placement", "round-robin cc=2").energy_j
                > get("placement", "pack-first cc=2").energy_j
        );
        // Unpinning MinE's Large chunk buys throughput.
        assert!(
            get("mine-large-pin", "unpinned").throughput_mbps
                >= get("mine-large-pin", "pinned").throughput_mbps
        );
        // The shedding guard must not cost energy vs never shedding.
        assert!(
            get("slaee-shedding", "shed at +15%").energy_j
                <= get("slaee-shedding", "never shed").energy_j * 1.02
        );
        // Every row is a completed run with sane numbers.
        for r in &rows {
            assert!(r.throughput_mbps > 0.0, "{r:?}");
            assert!(r.energy_j > 0.0, "{r:?}");
        }
    }

    #[test]
    fn fault_ablation_shows_overhead_growing_as_mtbf_shrinks() {
        let tb = xsede();
        let dataset = tb.dataset_spec.scaled(0.03).generate(5);
        let rows = fault_ablation(&tb, &dataset, 8, &[40, 8], 11);
        // 1 clean row + 3 variants × 2 MTBF points.
        assert_eq!(rows.len(), 7);
        let clean = &rows[0];
        assert_eq!((clean.mtbf_s, clean.failures), (0, 0));
        assert!(clean.energy_overhead.abs() < 1e-12);
        let get = |mtbf: u64, variant: &str| -> &FaultAblationRow {
            rows.iter()
                .find(|r| r.mtbf_s == mtbf && r.variant == variant)
                .unwrap_or_else(|| panic!("missing mtbf={mtbf}/{variant}"))
        };
        for r in rows.iter().skip(1) {
            assert!(r.failures > 0, "{r:?}");
            assert!(r.retries > 0, "{r:?}");
            assert!(r.duration_s >= clean.duration_s, "{r:?}");
        }
        for mtbf in [40, 8] {
            // Restart markers make recovery free of retransmission …
            assert_eq!(get(mtbf, "markers").retransmitted_bytes, 0);
            assert_eq!(get(mtbf, "fault-aware").retransmitted_bytes, 0);
            // … dropping them books lost progress as re-sent energy.
            assert!(get(mtbf, "no markers").retransmitted_bytes > 0);
            assert!(get(mtbf, "no markers").retransmitted_energy_j > 0.0);
        }
        // Shorter MTBF → more failures. (Retransmitted *bytes* are not
        // monotone in MTBF: rarer failures each lose more accumulated
        // progress, which is exactly why the table reports both.)
        assert!(get(8, "markers").failures > get(40, "markers").failures);
        for mtbf in [40, 8] {
            // Retransmission is the energy overhead: dropping markers
            // costs real joules, markers keep the overhead near zero.
            assert!(get(mtbf, "no markers").energy_overhead > 0.02);
            assert!(get(mtbf, "no markers").energy_overhead > get(mtbf, "markers").energy_overhead);
            assert!(get(mtbf, "markers").energy_overhead.abs() < 0.05);
            // The breaker quarantined the outaged server in every arm.
            for v in ["markers", "no markers", "fault-aware"] {
                assert!(get(mtbf, v).breaker_opens >= 1, "{:?}", get(mtbf, v));
            }
            // Shedding under quarantine trades duration for energy: the
            // fault-aware arm is never more expensive than the static one.
            assert!(get(mtbf, "fault-aware").energy_j <= get(mtbf, "markers").energy_j);
        }
        // Deterministic: the same sweep reproduces bit-identically.
        assert_eq!(rows, fault_ablation(&tb, &dataset, 8, &[40, 8], 11));
    }
}
