//! `study`: the researcher's path. D0–D4 at the ROADMAP's gate
//! configuration (one worker thread, no shards), each trace generated and
//! analyzed as `run_datasets` does it, then `build_report` + `render`.
//! Generation and parse/ingest share the work; neither the pcap reader nor
//! the epoch machinery runs.

use crate::layers::{add_proto, isolate_frames, Frame};
use crate::trace::Tracer;
use crate::{heap, median, sub_seed, Checked, Laps, Workload};
use ent_core::pipeline::analyze_packets;
use ent_core::{
    build_report, run_datasets, DatasetAnalysis, PipelineConfig, StudyConfig, TraceAnalysis,
};
use ent_gen::build::{build_site, generate_trace_into, GenConfig, GenTiming};
use ent_gen::dataset::{all_datasets, DatasetSpec};
use ent_gen::{Site, WanPool};
use ent_pcap::{PacketArena, TraceMeta};
use std::path::Path;
use std::time::Instant;

/// The gate configuration's generator scale.
const SCALE: f64 = 0.01;
/// Studies whose peak heap `peak_heap_mib` is the median of.
const MEMORY_STUDIES: usize = 7;

pub struct Study {
    specs: Vec<DatasetSpec>,
    config: StudyConfig,
    sites: Vec<(Site, WanPool)>,
    /// Every trace of the study as (dataset index, subnet, pass), in the
    /// order `run_datasets` makes and reports them.
    work: Vec<(usize, u16, u8)>,
    arena: PacketArena,
    /// Captured packets and events-signature hash of each trace of one
    /// `run_datasets` call over all five datasets; every run must match.
    reference: Vec<(u64, u64)>,
}

pub struct StudyRun {
    datasets: Vec<DatasetAnalysis>,
    /// Captured packets of each trace, in dataset then trace order.
    captured: Vec<u64>,
    text: String,
}

/// Generate one trace into the arena, as `run_datasets` does.
fn generate(
    (site, wan): &(Site, WanPool),
    spec: &DatasetSpec,
    subnet: u16,
    pass: u8,
    config: &StudyConfig,
    arena: &mut PacketArena,
) -> (TraceMeta, GenTiming, u64) {
    let t = Instant::now();
    let (meta, timing) = generate_trace_into(site, wan, spec, subnet, pass, &config.gen, arena);
    (meta, timing, t.elapsed().as_nanos() as u64)
}

/// Analyze the arena's trace and fold its generation into the metrics, as
/// `run_datasets` does, so the events signature covers both.
fn analyze(
    meta: &TraceMeta,
    timing: &GenTiming,
    gen_ns: u64,
    config: &StudyConfig,
    arena: &PacketArena,
) -> TraceAnalysis {
    let mut a = analyze_packets(meta, arena.captured_frames(), &config.pipeline, arena.len());
    let m = &mut a.metrics;
    m.generate
        .add(gen_ns, arena.len() as u64, arena.wire_bytes());
    m.gen_synth
        .add(timing.synth_ns, timing.synth_packets, timing.synth_bytes);
    m.gen_sort.add(timing.sort_ns, timing.sorted_packets, 0);
    m.gen_tap
        .add(timing.tap_ns, arena.len() as u64, timing.captured_bytes);
    m.trace_wall_ns += gen_ns;
    a
}

impl Study {
    /// Gather each dataset's traces, in `work` order, into the study's
    /// datasets.
    fn collect(&self, traces: Vec<TraceAnalysis>) -> Vec<DatasetAnalysis> {
        let mut datasets: Vec<DatasetAnalysis> = self
            .specs
            .iter()
            .map(|spec| DatasetAnalysis {
                spec: *spec,
                traces: Vec::new(),
            })
            .collect();
        for (&(di, _, _), t) in self.work.iter().zip(traces) {
            datasets[di].traces.push(t);
        }
        datasets
    }
}

impl Workload for Study {
    type Output = StudyRun;

    /// The study generates its traces inside the timed run; set-up is only
    /// the site build.
    fn setup(seed: u64) -> (Study, f64) {
        let t = Instant::now();
        let specs = all_datasets();
        let config = StudyConfig {
            gen: GenConfig {
                scale: SCALE,
                seed,
                hosts_per_subnet: None,
            },
            pipeline: PipelineConfig::default(),
            threads: 1,
        };
        let sites = specs.iter().map(|s| build_site(s, &config.gen)).collect();
        let secs = t.elapsed().as_secs_f64();
        let mut work = Vec::new();
        for (di, spec) in specs.iter().enumerate() {
            for pass in 1..=spec.passes {
                for subnet in spec.monitored {
                    // D4 monitored only part of its subnets twice.
                    if spec.name == "D4" && pass == 2 && subnet % 2 == 0 {
                        continue;
                    }
                    work.push((di, subnet, pass));
                }
            }
        }
        let study = Study {
            specs,
            config,
            sites,
            work,
            arena: PacketArena::unbounded(),
            reference: Vec::new(),
        };
        (study, secs)
    }

    fn save(&self, _dir: &Path) -> std::io::Result<()> {
        Ok(())
    }

    /// Set-up again, and one untimed `run_datasets` call over all five
    /// datasets: the reference every run is checked against.
    fn load(_dir: &Path, seed: u64, _scratch: &Path) -> std::io::Result<Study> {
        let mut study = Study::setup(seed).0;
        let whole = run_datasets(&study.specs, &study.config);
        study.reference = whole
            .iter()
            .flat_map(|d| &d.traces)
            .map(|t| (t.metrics.generate.events, t.metrics.events_signature_hash()))
            .collect();
        Ok(study)
    }

    /// Each trace is a timed unit: `generate_trace_into` into the one
    /// reused arena, then `analyze_packets`, the calls `run_datasets` makes
    /// for a trace on its one worker thread; the report is one more unit.
    /// A trace is about 1% of the study, and a unit that small finds a
    /// quiet spell on a shared host far more often than the whole study
    /// does: the sum of the units' fastest times holds steady where the
    /// fastest whole study swings by a fifth from run to run.
    fn run(&mut self, laps: &mut Laps) -> StudyRun {
        let mut traces = Vec::with_capacity(self.work.len());
        let mut captured = Vec::with_capacity(self.work.len());
        for &(di, subnet, pass) in &self.work {
            let (spec, site, config) = (&self.specs[di], &self.sites[di], &self.config);
            let arena = &mut self.arena;
            traces.push(laps.lap(|| {
                let (meta, timing, gen_ns) = generate(site, spec, subnet, pass, config, arena);
                analyze(&meta, &timing, gen_ns, config, arena)
            }));
            captured.push(arena.len() as u64);
        }
        let datasets = self.collect(traces);
        let text = laps.lap(|| build_report(&datasets).render());
        StudyRun {
            datasets,
            captured,
            text,
        }
    }

    /// `run` with generation and analysis in spans of their own, then
    /// isolation passes over each trace's frames.
    fn run_traced(&mut self, tr: &mut Tracer) -> StudyRun {
        let mut traces = Vec::with_capacity(self.work.len());
        let mut captured = Vec::with_capacity(self.work.len());
        for &(di, subnet, pass) in &self.work {
            let (spec, site, config) = (&self.specs[di], &self.sites[di], &self.config);
            let arena = &mut self.arena;
            let (meta, timing, gen_ns) = tr.span("gen.generate", || {
                generate(site, spec, subnet, pass, config, arena)
            });
            tr.add("gen.pkts", arena.len() as f64);
            tr.add("gen.synth_s", timing.synth_ns as f64 / 1e9);
            tr.add("gen.sort_s", timing.sort_ns as f64 / 1e9);
            tr.add("gen.tap_s", timing.tap_ns as f64 / 1e9);
            let analysis = tr.span("core.analyze", || {
                analyze(&meta, &timing, gen_ns, config, arena)
            });
            add_proto(tr, &analysis.metrics);
            let frames: Vec<Frame<'_>> = arena.captured_frames().collect();
            isolate_frames(tr, &frames, 0);
            captured.push(arena.len() as u64);
            traces.push(analysis);
        }
        let datasets = self.collect(traces);
        let text = tr.span("core.report", || build_report(&datasets).render());
        StudyRun {
            datasets,
            captured,
            text,
        }
    }

    /// The median peak heap of [`MEMORY_STUDIES`] studies, each from a
    /// sub-seed of the run's seed and run once from a fresh set-up. A
    /// study's peak is its largest trace's arena plus the run's analyses,
    /// and the largest trace is heavy-tailed: 18 of the sub-seeds 100–199
    /// peaked 10% to 90% higher (134–231 MiB) than the rest (119–126 MiB).
    /// The median of seven keeps such seeds from setting the figure.
    fn peak_heap(_dir: &Path, seed: u64, _scratch: &Path) -> std::io::Result<f64> {
        let peaks: Vec<f64> = (0..MEMORY_STUDIES)
            .map(|i| {
                let mut study = Study::setup(sub_seed(seed, i, MEMORY_STUDIES)).0;
                heap::reset_peak();
                drop(study.run(&mut Laps::default()));
                heap::peak_mib()
            })
            .collect();
        Ok(median(&peaks))
    }

    /// An operation is a trace: its ingest health must be clean, the
    /// parser must have seen every captured packet, and its captured count
    /// and events signature (generation stages included) must equal those
    /// of the same trace in the one `run_datasets` call over the study.
    fn check(&mut self, out: StudyRun) -> Checked {
        let traces: Vec<_> = out.datasets.iter().flat_map(|d| &d.traces).collect();
        let runs: Vec<(u64, u64)> = traces
            .iter()
            .zip(&out.captured)
            .map(|(t, &captured)| (captured, t.metrics.events_signature_hash()))
            .collect();
        let reference = &self.reference;
        let mut c = Checked::default();
        for ((t, run), expected) in traces.iter().zip(&runs).zip(reference.iter()) {
            c.ops += 1;
            c.pkts += t.packets;
            if !t.health.is_clean() || t.metrics.frame_parse.events != run.0 || run != expected {
                c.failed += 1;
            }
        }
        if traces.len() != reference.len() || out.text.is_empty() {
            c.failed = c.ops.max(1);
        }
        c
    }
}
