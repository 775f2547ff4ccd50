//! Differential equivalence suite: the optimized pipeline (fast hasher,
//! slab-indexed analyzer state, zero-copy ingest) must be output-identical
//! to the std-SipHash reference path (`PipelineConfig { use_std_hash:
//! true, .. }`) on every dataset D0–D4, at 1 and 4 worker threads.
//!
//! Optimization without regression pinning silently drifts results; this
//! suite is the safety case for the hot-path overhaul. Three layers are
//! compared against the serial std-hash reference:
//!
//! 1. `events_signature()` — every stage's and analyzer's event/byte
//!    totals (wall times excluded by construction);
//! 2. per-trace `TraceAnalysis` fingerprints — record counts per kind plus
//!    connection-level aggregates and health counters;
//! 3. study-level table inputs — the rendered report, byte-for-byte.

// Test assertions may abort.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ent_core::run::{run_datasets, DatasetAnalysis, StudyConfig};
use ent_core::{PipelineConfig, PipelineMetrics, TraceAnalysis};
use ent_gen::GenConfig;
use ent_integration::{differential_study, trimmed_specs};

const SCALE: f64 = 0.01;
const SUBNETS: u16 = 3;

/// Everything about one trace's output that must not drift, flattened to
/// a comparable/printable form. Includes per-kind record counts (the
/// satellite requirement) plus aggregate byte sums and health counters so
/// a drifted summary field cannot hide behind an unchanged count.
fn trace_fingerprint(t: &TraceAnalysis) -> String {
    let payload: u64 = t
        .conns
        .iter()
        .map(|c| c.summary.orig.payload_bytes + c.summary.resp.payload_bytes)
        .sum();
    let unique: u64 = t
        .conns
        .iter()
        .map(|c| c.summary.orig.unique_bytes + c.summary.resp.unique_bytes)
        .sum();
    let duration_us: u64 = t.conns.iter().map(|c| c.summary.duration_us()).sum();
    format!(
        "{}/s{}p{} pkts={} ip={} arp={} ipx={} other={} conns={} http={} dns={} nbns={} \
         cifs={} rpc={} nfs={} ncp={} tls={} smtp={} imap={} scan_removed={} scan_conns={} \
         retx_ent={:?} retx_wan={:?} payload={payload} unique={unique} dur={duration_us} \
         bins={} binsum={} health=[{}] peak={}",
        t.dataset,
        t.subnet,
        t.pass,
        t.packets,
        t.ip_packets,
        t.arp_packets,
        t.ipx_packets,
        t.other_l3_packets,
        t.conns.len(),
        t.http.len(),
        t.dns.len(),
        t.nbns.len(),
        t.cifs.len(),
        t.rpc.len(),
        t.nfs.len(),
        t.ncp.len(),
        t.tls.len(),
        t.smtp_message_bytes.len(),
        t.imap_polls.len(),
        t.scanners_removed.len(),
        t.scanner_conns_removed,
        t.retx_ent,
        t.retx_wan,
        t.bytes_per_second.len(),
        t.bytes_per_second.iter().sum::<u64>(),
        t.health,
        t.metrics.peak_open_conns,
    )
}

fn study_fingerprints(study: &[DatasetAnalysis]) -> Vec<String> {
    study
        .iter()
        .flat_map(|d| d.traces.iter().map(trace_fingerprint))
        .collect()
}

fn assert_equivalent(reference: &[DatasetAnalysis], candidate: &[DatasetAnalysis], label: &str) {
    // Layer 1: stage/analyzer event signatures, per dataset.
    for (r, c) in reference.iter().zip(candidate) {
        assert_eq!(
            r.pipeline_metrics().events_signature(),
            c.pipeline_metrics().events_signature(),
            "events_signature drifted for {} under {label}",
            r.spec.name
        );
    }
    // Layer 2: per-trace record counts and aggregates.
    let (rf, cf) = (study_fingerprints(reference), study_fingerprints(candidate));
    assert_eq!(rf.len(), cf.len(), "trace count drifted under {label}");
    for (r, c) in rf.iter().zip(&cf) {
        assert_eq!(r, c, "trace fingerprint drifted under {label}");
    }
    // Layer 3: study-level table inputs, byte-for-byte.
    let rr = ent_core::build_report(reference).render();
    let cr = ent_core::build_report(candidate).render();
    assert_eq!(rr, cr, "rendered study report drifted under {label}");
}

/// The one differential run: a serial std-hash reference vs the optimized
/// path and the 4-thread variants of both. One test (not four) so the
/// reference study is generated once.
#[test]
fn optimized_pipeline_is_output_identical_to_std_hash_reference() {
    let reference = differential_study(SCALE, 1, true, SUBNETS);
    // Sanity: the workload exercises every dataset and produces records.
    assert_eq!(reference.len(), 5);
    assert!(reference.iter().all(|d| !d.traces.is_empty()));
    let total_conns: usize = reference
        .iter()
        .flat_map(|d| &d.traces)
        .map(|t| t.conns.len())
        .sum();
    assert!(total_conns > 1_000, "workload too small: {total_conns}");

    let optimized = differential_study(SCALE, 1, false, SUBNETS);
    assert_equivalent(&reference, &optimized, "fx-hash @ 1 thread");

    let optimized_mt = differential_study(SCALE, 4, false, SUBNETS);
    assert_equivalent(&reference, &optimized_mt, "fx-hash @ 4 threads");

    let reference_mt = differential_study(SCALE, 4, true, SUBNETS);
    assert_equivalent(&reference, &reference_mt, "std-hash @ 4 threads");
}

/// The thread-count determinism gate at test scale, for more than one
/// generator seed: `events_signature`, the packet count and the peak of
/// open connections must be identical whether the trace workers run on
/// one thread or several.
#[test]
fn events_signature_is_invariant_across_thread_counts() {
    for seed in [1u64, 2005] {
        let mut curve: Vec<(usize, u64, u64, u64)> = Vec::new();
        for threads in [1usize, 2, 4] {
            let study = run_datasets(
                &trimmed_specs(2),
                &StudyConfig {
                    gen: GenConfig {
                        scale: 0.004,
                        seed,
                        hosts_per_subnet: Some(10),
                    },
                    pipeline: PipelineConfig::default(),
                    threads,
                },
            );
            let mut total = PipelineMetrics::default();
            for d in &study {
                total.absorb(&d.pipeline_metrics());
            }
            curve.push((
                threads,
                total.events_signature_hash(),
                total.packets(),
                total.peak_open_conns,
            ));
        }
        let (_, ref_sig, ref_packets, ref_peak) = curve[0];
        assert!(ref_packets > 0, "seed {seed}: empty workload");
        for &(threads, sig, packets, peak) in &curve {
            assert_eq!(
                (sig, packets, peak),
                (ref_sig, ref_packets, ref_peak),
                "seed {seed}: signature, packets or peak drifted at {threads} threads"
            );
        }
    }
}
