//! Differential oracle across the three ingest paths that must agree on
//! one trace:
//!
//! 1. arena batch — `analyze_packets` over the generator's
//!    `captured_frames()`;
//! 2. written-then-read pcap — the same capture serialized and streamed
//!    back through the recovering reader by `analyze_capture`;
//! 3. the resident monitor with one epoch spanning the whole trace and no
//!    checkpoints.
//!
//! On D0–D4 (first monitored subnet, scale 0.01) at seeds 1 and 2005, the
//! batch and pcap paths must give the same `events_signature` and
//! `peak_open_conns`; the monitor must match them on every signature
//! entry except its own `epoch_rotate` stage, and on the peak. All three
//! must also give the same per-record-kind totals (`MonitorTotals`),
//! which see what the signature does not: scanner removal and
//! retransmission accounting. Under every non-fatal capture fault,
//! `analyze_capture` and the monitor must also report the same
//! `IngestHealth`.

// Test assertions may abort.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ent_core::monitor::{drive_capture, Monitor, MonitorConfig, MonitorSummary, MonitorTotals};
use ent_core::pipeline::analyze_packets;
use ent_core::{analyze_capture, capture_meta, PipelineConfig, PipelineMetrics, TraceAnalysis};
use ent_gen::build::{build_site, generate_trace_into};
use ent_gen::dataset::all_datasets;
use ent_gen::GenConfig;
use ent_pcap::{Fault, FaultInjector, PacketArena, Trace, TraceMeta};

const SCALE: f64 = 0.01;
const SEEDS: [u64; 2] = [1, 2005];

/// The monitor's rotation stage: the one signature entry no batch path
/// has.
const MONITOR_ONLY_STAGE: &str = "stage:epoch_rotate";

/// One generated capture: its metadata, the arena-batch analysis and the
/// serialized pcap bytes.
struct Capture {
    name: String,
    meta: TraceMeta,
    batch: TraceAnalysis,
    pcap: Vec<u8>,
}

fn capture(dataset_idx: usize, seed: u64) -> Capture {
    let spec = all_datasets()[dataset_idx];
    let config = GenConfig {
        scale: SCALE,
        seed,
        hosts_per_subnet: None,
    };
    let (site, wan) = build_site(&spec, &config);
    let mut arena = PacketArena::unbounded();
    let (meta, _) = generate_trace_into(
        &site,
        &wan,
        &spec,
        spec.monitored.start,
        1,
        &config,
        &mut arena,
    );
    assert!(
        !arena.is_empty(),
        "{} seed {seed}: empty capture",
        spec.name
    );
    let batch = analyze_packets(
        &meta,
        arena.captured_frames(),
        &PipelineConfig::default(),
        arena.len(),
    );
    let trace = Trace {
        meta: meta.clone(),
        packets: arena.captured_packets(),
    };
    let mut pcap = Vec::new();
    trace.write_pcap(&mut pcap).expect("serialize");
    Capture {
        name: format!("{} seed {seed}", spec.name),
        meta,
        batch,
        pcap,
    }
}

/// Drive the monitor over `data` with a single epoch as long as the
/// trace, asserting that exactly one epoch was flushed.
fn monitor_run(data: &[u8], meta: &TraceMeta, label: &str) -> MonitorSummary {
    let cfg = MonitorConfig {
        epoch_secs: meta.duration.micros() / 1_000_000,
        checkpoints: false,
        pipeline: PipelineConfig::default(),
    };
    let monitor_meta = capture_meta(&meta.dataset, data).expect("capture meta");
    let mut monitor = Monitor::new(monitor_meta, cfg, data.len() / 600);
    let mut epochs = 0u64;
    let summary = drive_capture(data, &mut monitor, None, None, |_| epochs += 1, |_| {})
        .expect("monitor run")
        .expect("completed run");
    assert_eq!(epochs, 1, "{label}: the epoch must span the trace");
    summary
}

/// A batch analysis's record totals, folded as the monitor folds its one
/// epoch.
fn totals(a: &TraceAnalysis) -> MonitorTotals {
    let mut t = MonitorTotals::default();
    t.absorb(a);
    t
}

/// The events signature without the monitor-only rotation stage.
fn batch_comparable(m: &PipelineMetrics) -> Vec<(String, u64, u64)> {
    m.events_signature()
        .into_iter()
        .filter(|(name, _, _)| name != MONITOR_ONLY_STAGE)
        .collect()
}

#[test]
fn batch_pcap_and_monitor_agree_on_every_dataset() {
    let mut scanners_removed = 0;
    for seed in SEEDS {
        for dataset_idx in 0..5 {
            let c = capture(dataset_idx, seed);
            let pcap = analyze_capture(&c.pcap, c.meta.clone(), &PipelineConfig::default())
                .expect("clean capture analyzes");
            let batch = &c.batch.metrics;
            assert!(batch.packets() > 0, "{}: nothing analyzed", c.name);
            assert_eq!(
                batch.events_signature(),
                pcap.metrics.events_signature(),
                "{}: pcap path drifted from the arena batch",
                c.name
            );
            assert_eq!(
                batch.peak_open_conns, pcap.metrics.peak_open_conns,
                "{}: pcap peak drifted from the arena batch",
                c.name
            );
            assert_eq!(
                totals(&c.batch),
                totals(&pcap),
                "{}: pcap records drifted from the arena batch",
                c.name
            );

            let monitor = monitor_run(&c.pcap, &c.meta, &c.name);
            assert_eq!(
                batch_comparable(batch),
                batch_comparable(&monitor.metrics),
                "{}: monitor drifted from the arena batch",
                c.name
            );
            assert_eq!(
                batch.peak_open_conns, monitor.metrics.peak_open_conns,
                "{}: monitor peak drifted from the arena batch",
                c.name
            );
            assert_eq!(
                totals(&c.batch),
                monitor.totals,
                "{}: monitor records drifted from the arena batch",
                c.name
            );
            scanners_removed += monitor.totals.scanner_conns_removed;
        }
    }
    assert!(scanners_removed > 0, "no trace exercised scanner removal");
}

#[test]
fn monitor_and_pcap_agree_under_every_nonfatal_fault() {
    let c = capture(0, 2005);
    let mut checked = 0;
    for (i, fault) in Fault::ALL.into_iter().enumerate() {
        if fault.is_fatal() {
            continue;
        }
        let mut bytes = c.pcap.clone();
        let mut inj = FaultInjector::new(0x5EED + i as u64);
        assert!(inj.apply(&mut bytes, fault), "{fault:?} did not apply");
        let label = format!("{} under {fault:?}", c.name);
        let pcap = analyze_capture(&bytes, c.meta.clone(), &PipelineConfig::default())
            .expect("non-fatal fault stays analyzable");
        let monitor = monitor_run(&bytes, &c.meta, &label);
        assert_eq!(
            pcap.health, monitor.health,
            "{label}: ingest health differs"
        );
        assert_eq!(totals(&pcap), monitor.totals, "{label}: records differ");
        assert_eq!(
            batch_comparable(&pcap.metrics),
            batch_comparable(&monitor.metrics),
            "{label}: monitor drifted from the pcap path"
        );
        checked += 1;
    }
    assert_eq!(checked, 11, "every non-fatal fault mode is exercised");
}
