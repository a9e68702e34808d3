//! Ablations over the design choices DESIGN.md calls out:
//!
//! * HTEE chunk weights: `log·log` (paper) vs. byte-linear;
//! * HTEE search stride: 2 (paper) vs. full sweep (stride 1);
//! * MinE's single-channel-for-Large rule: on (paper) vs. off;
//! * probe window length: 5 s (paper) vs. 1 s and 10 s;
//! * channel placement: pack-one-server (custom client) vs. spread (GO).
//!
//! Each benchmark *measures the outcome* of the variant (energy/duration
//! trade-off is printed by `figures ablations`); here Criterion times the
//! variants to show the search-overhead differences are real.

use criterion::{criterion_group, criterion_main, Criterion};
use eadt_core::{Algorithm, Htee, MinE, RunCtx};
use eadt_endsys::Placement;
use eadt_sim::SimDuration;
use eadt_testbeds::xsede;
use eadt_transfer::{Engine, NullController};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let tb = xsede();
    let dataset = tb.dataset_spec.scaled(0.01).generate(42);
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);

    g.bench_function("htee_stride2", |b| {
        b.iter(|| black_box(Htee::new(8).run(&mut RunCtx::new(&tb.env, &dataset))))
    });
    g.bench_function("htee_probe_1s", |b| {
        let algo = Htee {
            probe_window: SimDuration::from_secs(1),
            ..Htee::new(8)
        };
        b.iter(|| black_box(algo.run(&mut RunCtx::new(&tb.env, &dataset))))
    });
    g.bench_function("htee_probe_10s", |b| {
        let algo = Htee {
            probe_window: SimDuration::from_secs(10),
            ..Htee::new(8)
        };
        b.iter(|| black_box(algo.run(&mut RunCtx::new(&tb.env, &dataset))))
    });
    g.bench_function("mine_large_pinned", |b| {
        b.iter(|| black_box(MinE::new(8).run(&mut RunCtx::new(&tb.env, &dataset))))
    });
    g.bench_function("mine_large_unpinned", |b| {
        let algo = MinE::new(8);
        b.iter(|| {
            let mut plan = algo.plan(&tb.env, &dataset).plan;
            for chunk in &mut plan.stages[0].chunks {
                chunk.accepts_reallocation = true; // lift the energy guard
            }
            black_box(Engine::new(&tb.env).run(&plan, &mut NullController))
        })
    });
    g.bench_function("placement_packed_vs_spread", |b| {
        let algo = MinE::new(8);
        b.iter(|| {
            let mut plan = algo.plan(&tb.env, &dataset).plan;
            plan.placement = Placement::RoundRobin;
            black_box(Engine::new(&tb.env).run(&plan, &mut NullController))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
