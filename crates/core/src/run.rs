//! Study orchestration: generate + analyze whole datasets, parallel
//! across traces (each trace is independent, exactly like the paper's
//! per-subnet capture files).
//!
//! All datasets of a study share a single global work queue — workers
//! never idle at a dataset boundary waiting for the previous dataset's
//! last straggler traces.

use crate::metrics::{PipelineMetrics, StageTimer};
use crate::pipeline::{analyze_packets, PipelineConfig};
use crate::records::{IngestHealth, TraceAnalysis};
use ent_gen::build::{build_site, generate_trace_into, GenConfig, GenTiming};
use ent_gen::dataset::{all_datasets, DatasetSpec};
use ent_pcap::PacketArena;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configuration for a study run.
#[derive(Debug, Clone)]
#[derive(Default)]
pub struct StudyConfig {
    /// Generator configuration (scale, seed).
    pub gen: GenConfig,
    /// Pipeline configuration (scanner removal).
    pub pipeline: PipelineConfig,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
}


/// One analyzed dataset.
#[derive(Debug)]
pub struct DatasetAnalysis {
    /// The dataset spec used.
    pub spec: DatasetSpec,
    /// Per-trace analyses, ordered by (pass, subnet).
    pub traces: Vec<TraceAnalysis>,
}

impl DatasetAnalysis {
    /// Ingest damage aggregated across every trace of the dataset.
    pub fn ingest_health(&self) -> IngestHealth {
        let mut h = IngestHealth::default();
        for t in &self.traces {
            h.absorb(&t.health);
        }
        h
    }

    /// Pipeline metrics aggregated across every trace of the dataset.
    pub fn pipeline_metrics(&self) -> PipelineMetrics {
        let mut m = PipelineMetrics::default();
        for t in &self.traces {
            m.absorb(&t.metrics);
        }
        m
    }
}

/// Generate and analyze several datasets over one global work queue.
///
/// Every trace of every dataset is a single work item; one thread pool
/// drains the whole list. Packets are dropped as soon as each trace is
/// analyzed, bounding memory. Results come back in work order, which is
/// monotone in (pass, subnet) within a dataset — so per-trace ordering
/// (and content) is identical to running each dataset alone.
pub fn run_datasets(specs: &[DatasetSpec], config: &StudyConfig) -> Vec<DatasetAnalysis> {
    let sites: Vec<_> = specs.iter().map(|s| build_site(s, &config.gen)).collect();
    // Global work list of (dataset index, spec, site, subnet, pass).
    let mut work = Vec::new();
    for (di, (spec, (site, wan))) in specs.iter().zip(&sites).enumerate() {
        for pass in 1..=spec.passes {
            for subnet in spec.monitored {
                if spec.name == "D4" && pass == 2 && subnet % 2 == 0 {
                    continue;
                }
                work.push((di, spec, site, wan, subnet, pass));
            }
        }
    }
    let analyses = trace_pool(config.threads, &work, |&(_, spec, site, wan, subnet, pass), arena| {
        let gt = StageTimer::start();
        let (meta, gen) = generate_trace_into(site, wan, spec, subnet, pass, &config.gen, arena);
        let gen_ns = gt.elapsed_ns();
        let mut analysis =
            analyze_packets(&meta, arena.captured_frames(), &config.pipeline, arena.len());
        add_generation(&mut analysis.metrics, gen_ns, &gen, arena);
        analysis
    });
    let mut traces: Vec<Vec<TraceAnalysis>> = specs.iter().map(|_| Vec::new()).collect();
    for (&(di, ..), analysis) in work.iter().zip(analyses) {
        if let Some(bin) = traces.get_mut(di) {
            bin.push(analysis);
        }
    }
    specs
        .iter()
        .zip(traces)
        .map(|(spec, traces)| DatasetAnalysis { spec: *spec, traces })
        .collect()
}

/// Run `item` over every work item on a pool of trace workers and return
/// the results in work order, so the output is identical for any thread
/// count. `requested_threads` is capped by [`effective_threads`]. Each
/// worker owns one arena, reused across its items: after the first trace
/// its buffers are warm and generation stops allocating.
pub(crate) fn trace_pool<W, T, F>(requested_threads: usize, work: &[W], item: F) -> Vec<T>
where
    W: Sync,
    T: Send,
    F: Fn(&W, &mut PacketArena) -> T + Sync,
{
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let threads = effective_threads(requested_threads, cores, work.len());
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(work.len()));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut arena = PacketArena::unbounded();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(w) = work.get(i) else {
                        break;
                    };
                    let out = item(w, &mut arena);
                    // A worker that panicked poisons the lock; the results
                    // already pushed are still valid, so recover the guard.
                    done.lock().unwrap_or_else(|e| e.into_inner()).push((i, out));
                }
            });
        }
    });
    let mut done = done.into_inner().unwrap_or_else(|e| e.into_inner());
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Charge one trace's generation to its analysis metrics: the `generate`
/// stage with its nested sub-stages (session emission, the global sort,
/// the capture tap), and the generation wall to the per-trace worker wall,
/// which covers the whole item, not just analysis.
pub(crate) fn add_generation(
    m: &mut PipelineMetrics,
    gen_ns: u64,
    gen: &GenTiming,
    arena: &PacketArena,
) {
    m.generate.add(gen_ns, arena.len() as u64, arena.wire_bytes());
    m.gen_synth.add(gen.synth_ns, gen.synth_packets, gen.synth_bytes);
    m.gen_sort.add(gen.sort_ns, gen.sorted_packets, 0);
    m.gen_tap.add(gen.tap_ns, arena.len() as u64, gen.captured_bytes);
    m.trace_wall_ns += gen_ns;
}

/// Worker threads for a run of `work_items` traces: `requested` (0 = one
/// per core), never more than the cores or the work items, never fewer
/// than one. Thread count never affects results — only wall time — so
/// capping is always safe.
pub fn effective_threads(requested: usize, cores: usize, work_items: usize) -> usize {
    let cores = cores.max(1);
    let want = if requested == 0 { cores } else { requested.min(cores) };
    want.min(work_items.max(1))
}

/// Generate and analyze one dataset, trace-parallel.
pub fn run_dataset(spec: &DatasetSpec, config: &StudyConfig) -> DatasetAnalysis {
    run_datasets(std::slice::from_ref(spec), config)
        .pop()
        .unwrap_or_else(|| DatasetAnalysis {
            spec: *spec,
            traces: Vec::new(),
        })
}

/// Run the whole five-dataset study over one shared work queue.
pub fn run_study(config: &StudyConfig) -> Vec<DatasetAnalysis> {
    run_datasets(&all_datasets(), config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StudyConfig {
        StudyConfig {
            gen: GenConfig {
                scale: 0.003,
                seed: 5,
                hosts_per_subnet: Some(8),
            },
            ..Default::default()
        }
    }

    /// Two shrunken datasets — enough work items to exercise the global
    /// queue across a dataset boundary while staying test-sized.
    fn two_small_specs() -> Vec<DatasetSpec> {
        let specs = all_datasets();
        let mut a = specs[0];
        a.monitored = (0..3).into();
        let mut b = specs[1];
        b.monitored = (0..2).into();
        vec![a, b]
    }

    #[test]
    fn effective_threads_caps_at_cores_and_work() {
        // Auto (requested 0): one thread per core.
        assert_eq!(effective_threads(0, 8, 100), 8);
        // Explicit requests are honored up to the core count, never above.
        assert_eq!(effective_threads(4, 16, 100), 4);
        assert_eq!(effective_threads(32, 16, 100), 16);
        // Never more threads than work items.
        assert_eq!(effective_threads(0, 16, 3), 3);
        assert_eq!(effective_threads(8, 16, 3), 3);
        // Degenerate inputs stay sane: never below one thread.
        assert_eq!(effective_threads(0, 0, 0), 1);
        assert_eq!(effective_threads(4, 0, 100), 1);
    }

    #[test]
    fn run_dataset_produces_one_analysis_per_trace() {
        let specs = all_datasets();
        let da = run_dataset(&specs[0], &tiny());
        assert_eq!(da.traces.len(), 22);
        assert!(da.traces.iter().all(|t| t.packets > 0));
        // Deterministic ordering by (pass, subnet).
        assert_eq!(da.traces[0].subnet, 0);
        assert_eq!(da.traces[21].subnet, 21);
    }

    #[test]
    fn parallel_equals_serial() {
        let specs = all_datasets();
        let mut spec = specs[0];
        spec.monitored = (0..4).into();
        let par = run_dataset(
            &spec,
            &StudyConfig {
                threads: 4,
                ..tiny()
            },
        );
        let ser = run_dataset(
            &spec,
            &StudyConfig {
                threads: 1,
                ..tiny()
            },
        );
        assert_eq!(par.traces.len(), ser.traces.len());
        for (a, b) in par.traces.iter().zip(&ser.traces) {
            assert_eq!(a.packets, b.packets);
            assert_eq!(a.conns.len(), b.conns.len());
            assert_eq!(a.subnet, b.subnet);
            assert_eq!(a.health, b.health);
        }
    }

    #[test]
    fn parallel_equals_serial_study_wide() {
        // The global work queue interleaves traces from different
        // datasets across workers; results must still be identical to a
        // serial run, trace for trace.
        let specs = two_small_specs();
        let par = run_datasets(
            &specs,
            &StudyConfig {
                threads: 4,
                ..tiny()
            },
        );
        let ser = run_datasets(
            &specs,
            &StudyConfig {
                threads: 1,
                ..tiny()
            },
        );
        assert_eq!(par.len(), ser.len());
        for (dp, ds) in par.iter().zip(&ser) {
            assert_eq!(dp.spec.name, ds.spec.name);
            assert_eq!(dp.traces.len(), ds.traces.len());
            for (a, b) in dp.traces.iter().zip(&ds.traces) {
                assert_eq!((a.subnet, a.pass), (b.subnet, b.pass));
                assert_eq!(a.packets, b.packets);
                assert_eq!(a.conns.len(), b.conns.len());
                assert_eq!(a.health, b.health);
                assert_eq!(a.bytes_per_second, b.bytes_per_second);
            }
        }
    }

    #[test]
    fn metrics_event_counts_are_thread_count_invariant() {
        // Wall times legitimately vary run to run; event and byte counts
        // must not. The signature excludes every timer field.
        let specs = two_small_specs();
        let par = run_datasets(
            &specs,
            &StudyConfig {
                threads: 4,
                ..tiny()
            },
        );
        let ser = run_datasets(
            &specs,
            &StudyConfig {
                threads: 1,
                ..tiny()
            },
        );
        let mut mp = PipelineMetrics::default();
        let mut ms = PipelineMetrics::default();
        for d in &par {
            mp.absorb(&d.pipeline_metrics());
        }
        for d in &ser {
            ms.absorb(&d.pipeline_metrics());
        }
        assert_eq!(mp.events_signature(), ms.events_signature());
        assert!(mp.packets() > 0);
        assert!(mp.generate.events > 0);
        assert!(mp.finalize.events > 0);
    }
}
