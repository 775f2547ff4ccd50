//! Observability layer end-to-end: stage metrics flow from the pipeline
//! through dataset aggregation into a schema-valid `BENCH_pipeline.json`.

// Test helpers may abort on setup failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ent_core::metrics::{
    bench_json, json_parse, validate_bench_json, BenchContext, PipelineMetrics, MANDATORY_STAGES,
};
use ent_integration::{small_dataset, test_gen_config};

#[test]
fn study_metrics_export_is_schema_valid_and_live() {
    let d0 = small_dataset("D0", 6);
    let d4 = small_dataset("D4", 4);
    let mut total = PipelineMetrics::default();
    let mut datasets = Vec::new();
    for da in [&d0, &d4] {
        let m = da.pipeline_metrics();
        datasets.push((
            da.spec.name.to_string(),
            da.traces.len() as u64,
            m.trace_wall_ns,
            m.packets(),
            m.bytes(),
        ));
        total.absorb(&m);
    }
    let gen = test_gen_config();
    let doc = bench_json(
        &BenchContext {
            scale: gen.scale,
            seed: gen.seed,
            threads: 2,
            study_wall_ns: total.trace_wall_ns,
            datasets,
        },
        &total,
    );
    let summary = validate_bench_json(&doc).expect("schema-valid export");
    assert_eq!(summary.traces, (d0.traces.len() + d4.traces.len()) as u64);
    assert_eq!(summary.packets, total.packets());
    assert_eq!(summary.stages.len(), MANDATORY_STAGES.len());
    // Every mandatory stage is live on a real two-dataset run: nonzero
    // wall time AND events (the instrumentation-rot invariant).
    for (name, wall_us, events) in &summary.stages {
        assert!(*wall_us > 0.0, "stage {name} has zero wall time");
        assert!(*events > 0, "stage {name} has zero events");
    }
    // The document parses as plain JSON and round-trips key run facts.
    let v = json_parse(&doc).expect("well-formed JSON");
    assert_eq!(
        v.get("threads").and_then(|t| t.as_f64()),
        Some(2.0),
        "threads field"
    );
    assert_eq!(
        v.get("packets").and_then(|p| p.as_f64()),
        Some(total.packets() as f64)
    );
}

#[test]
fn per_trace_metrics_are_consistent_with_analyses() {
    let d0 = small_dataset("D0", 6);
    for t in &d0.traces {
        // frame_parse sees every dissectable frame the analysis counted.
        assert_eq!(t.metrics.frame_parse.events, t.packets);
        assert_eq!(t.metrics.flow_ingest.events, t.packets);
        assert!(t.metrics.trace_wall_ns > 0);
        assert_eq!(t.metrics.traces, 1);
        // The conn-table high-water mark can never exceed what ingest saw.
        assert!(t.metrics.peak_open_conns <= t.metrics.flow_ingest.events);
    }
    let m = d0.pipeline_metrics();
    assert_eq!(m.traces, d0.traces.len() as u64);
    assert_eq!(
        m.packets(),
        d0.traces.iter().map(|t| t.packets).sum::<u64>()
    );
}
