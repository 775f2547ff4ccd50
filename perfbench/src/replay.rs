//! `replay_payload`: the analyst's path. `analyze_capture` over in-memory
//! pcap buffers of full-payload traces (snaplen 1500), written with
//! `PcapWriter` during set-up. The pcap reader and the `ent-proto`
//! analyzers do the most work of any workload; `ent-gen` does none of the
//! timed work.

use crate::layers::{add_proto, isolate_capture, write_pcap};
use crate::trace::Tracer;
use crate::{heap, sub_seed, Checked, Laps, Workload};
use ent_core::pipeline::analyze_packets;
use ent_core::{analyze_capture, AnalysisError, PipelineConfig, TraceAnalysis};
use ent_gen::build::{build_site, generate_trace_into, GenConfig};
use ent_gen::dataset::dataset;
use ent_pcap::{PacketArena, TraceMeta};
use ent_wire::Timestamp;
use std::path::Path;

/// Full-payload subnets that between them feed every analyzer: D0 subnet 3
/// hosts the NFS/NCP servers and cleartext IMAP; the D3/D4 subnets add NFS
/// over UDP, NCP, SMTP, CIFS/DCE-RPC, HTTP and TLS. Each of them carries
/// more than [`RECORDS`] packets at [`SCALE`] on every seed tried (1-10,
/// 2005); subnets that fall short on some seeds were left out.
const SUBNETS: [(&str, u16); 9] = [
    ("D0", 3),
    ("D3", 22),
    ("D3", 26),
    ("D3", 34),
    ("D3", 38),
    ("D4", 23),
    ("D4", 25),
    ("D4", 35),
    ("D4", 37),
];
/// Capture `i` is a trace of `SUBNETS[i % 9]` generated with sub-seed `i`
/// of the run's seed. One trace's traffic mix swings widely from seed to
/// seed; many independent draws hold the whole set steady.
const CAPTURES: usize = 36;
const SCALE: f64 = 0.02;
/// Each capture keeps the first this-many records of its trace. A whole
/// trace's size swings several-fold from seed to seed; a fixed record count
/// keeps the work per run steady.
const RECORDS: usize = 4_000;
/// Capture sets whose peak heap `peak_heap_mib` is the mean of.
const MEMORY_SETS: usize = 8;

struct Capture {
    meta: TraceMeta,
    pcap: Vec<u8>,
    /// `analyze_packets` over the generator's arena: the events-signature
    /// hash every replay of the serialized capture must reproduce.
    reference: u64,
}

pub struct Replay {
    captures: Vec<Capture>,
}

pub type ReplayRun = Vec<Result<TraceAnalysis, AnalysisError>>;

impl Workload for Replay {
    type Output = ReplayRun;

    fn setup(seed: u64) -> (Replay, f64) {
        let mut arena = PacketArena::unbounded();
        let mut timed = 0.0;
        let mut captures = Vec::new();
        for i in 0..CAPTURES {
            let t = std::time::Instant::now();
            let (name, subnet) = SUBNETS[i % SUBNETS.len()];
            let gen = GenConfig {
                scale: SCALE,
                seed: sub_seed(seed, i, CAPTURES),
                hosts_per_subnet: None,
            };
            let spec = dataset(name).expect("dataset names are D0-D4");
            let (site, wan) = build_site(&spec, &gen);
            let (meta, _) = generate_trace_into(&site, &wan, &spec, subnet, 1, &gen, &mut arena);
            let pcap = write_pcap(meta.snaplen, arena.captured_frames().take(RECORDS));
            timed += t.elapsed().as_secs_f64();
            let frames = arena.captured_frames().take(RECORDS);
            let reference = analyze_packets(&meta, frames, &PipelineConfig::default(), RECORDS)
                .metrics
                .events_signature_hash();
            captures.push(Capture {
                meta,
                pcap,
                reference,
            });
        }
        (Replay { captures }, timed)
    }

    /// One `capture-<i>.pcap` per capture, and an index line each: dataset,
    /// subnet, pass, nominal duration (µs), snaplen, link capacity and the
    /// reference signature hash.
    fn save(&self, dir: &Path) -> std::io::Result<()> {
        let mut index = String::new();
        for (i, c) in self.captures.iter().enumerate() {
            std::fs::write(dir.join(format!("capture-{i}.pcap")), &c.pcap)?;
            let m = &c.meta;
            index.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                m.dataset,
                m.subnet,
                m.pass,
                m.duration.micros(),
                m.snaplen,
                m.link_capacity_bps,
                c.reference
            ));
        }
        std::fs::write(dir.join("index.tsv"), index)
    }

    fn load(dir: &Path, _seed: u64, _scratch: &Path) -> std::io::Result<Replay> {
        let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "bad index.tsv");
        let index = std::fs::read_to_string(dir.join("index.tsv"))?;
        let mut captures = Vec::new();
        for (i, line) in index.lines().enumerate() {
            let f: Vec<&str> = line.split('\t').collect();
            let [dataset, subnet, pass, duration, snaplen, link, reference] = f[..] else {
                return Err(bad());
            };
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let meta = TraceMeta {
                dataset: dataset.into(),
                subnet: subnet.parse().map_err(|_| bad())?,
                pass: pass.parse().map_err(|_| bad())?,
                duration: Timestamp::from_micros(num(duration)?),
                snaplen: snaplen.parse().map_err(|_| bad())?,
                link_capacity_bps: num(link)?,
            };
            captures.push(Capture {
                meta,
                pcap: std::fs::read(dir.join(format!("capture-{i}.pcap")))?,
                reference: num(reference)?,
            });
        }
        Ok(Replay { captures })
    }

    /// Each capture is a timed unit.
    fn run(&mut self, laps: &mut Laps) -> ReplayRun {
        let config = PipelineConfig::default();
        self.captures
            .iter()
            .map(|c| laps.lap(|| analyze_capture(&c.pcap, c.meta.clone(), &config)))
            .collect()
    }

    fn run_traced(&mut self, tr: &mut Tracer) -> ReplayRun {
        let config = PipelineConfig::default();
        let mut out = Vec::with_capacity(self.captures.len());
        for c in &self.captures {
            let analysis = tr.span("core.analyze", || {
                analyze_capture(&c.pcap, c.meta.clone(), &config)
            });
            if let Ok(a) = &analysis {
                add_proto(tr, &a.metrics);
            }
            isolate_capture(tr, &c.pcap, 0);
            out.push(analysis);
        }
        out
    }

    /// The mean peak heap of a run over [`MEMORY_SETS`] capture sets, each
    /// set up from a sub-seed of the run's seed and run twice, the second
    /// run measured. A run's heap is mostly its 36 analyses, whose size
    /// follows the traffic: over seeds 101–110 one set's figure spread by
    /// 14% of its median (2.6–3.3 MiB).
    fn peak_heap(_dir: &Path, seed: u64, _scratch: &Path) -> std::io::Result<f64> {
        let peaks: Vec<f64> = (0..MEMORY_SETS)
            .map(|i| {
                let mut replay = Replay::setup(sub_seed(seed, i, MEMORY_SETS)).0;
                drop(replay.run(&mut Laps::default()));
                heap::reset_peak();
                drop(replay.run(&mut Laps::default()));
                heap::peak_mib()
            })
            .collect();
        Ok(peaks.iter().sum::<f64>() / peaks.len() as f64)
    }

    /// An operation is a capture: it must analyze cleanly and reproduce the
    /// events signature of the in-memory analysis made during set-up.
    fn check(&mut self, out: ReplayRun) -> Checked {
        let mut c = Checked::default();
        for (result, capture) in out.iter().zip(&self.captures) {
            c.ops += 1;
            match result {
                Ok(a)
                    if a.health.is_clean()
                        && a.metrics.events_signature_hash() == capture.reference =>
                {
                    c.pkts += a.packets;
                }
                Ok(a) => {
                    c.pkts += a.packets;
                    c.failed += 1;
                }
                Err(_) => c.failed += 1,
            }
        }
        c
    }
}
