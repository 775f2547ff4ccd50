//! `monitor_headers`: the operator's path, as a closed loop at full replay
//! speed. `Monitor::observe`/`finish` over a header-only D1 capture
//! (snaplen 68) with 10-second trace-time epochs and a checkpoint at each
//! boundary. The connection budget sits below the capture's unbudgeted
//! peak, so evictions happen: rotation, eviction and checkpointing run
//! beside the flow table while the analyzers idle.

use crate::layers::{add_proto, isolate_capture, write_pcap};
use crate::trace::Tracer;
use crate::{sub_seed, Checked, Laps, Workload};
use ent_core::PipelineConfig;
use ent_core::{capture_meta, Checkpoint, Monitor, MonitorConfig, MonitorSummary, MonitorTotals};
use ent_gen::build::{build_site, generate_trace_into, GenConfig};
use ent_gen::dataset::dataset;
use ent_pcap::merge::{merge_streams, Stream};
use ent_pcap::{PacketArena, RecoveringReader, TraceMeta};
use std::path::{Path, PathBuf};

/// Every D1 subnet (router A's 22), merged into one capture as a tap on
/// their shared uplink would see them. Subnet `i` is generated with
/// sub-seed `i` of the run's seed and contributes at most [`RECORDS`]
/// records: one subnet's volume is heavy-tailed (a few subnets of a seed
/// can double the total), and the cap keeps the capture's size within a
/// few percent from seed to seed. About half the subnets stay under the
/// cap and span the whole hour, so the capture still covers 360 epochs.
const SUBNETS: std::ops::Range<u16> = 0..22;
const SCALE: f64 = 0.01;
const RECORDS: usize = 20_000;
const EPOCH_SECS: u64 = 10;
/// Share of the unbudgeted peak of open connections the budget allows.
const BUDGET_SHARE: f64 = 0.75;

pub struct MonitorBench {
    pcap: Vec<u8>,
    meta: TraceMeta,
    cfg: MonitorConfig,
    /// Records and wire bytes the capture holds, as its reader sees them.
    records: u64,
    bytes: u64,
    /// Each boundary checkpoint goes to a file of its own here.
    checkpoint_dir: PathBuf,
    /// The first run's totals; every later run must match them.
    reference: Option<MonitorTotals>,
}

pub struct MonitorRun {
    summary: MonitorSummary,
    records: u64,
    checkpoints: Vec<Checkpoint>,
}

impl MonitorBench {
    fn new_monitor(&self) -> Monitor {
        Monitor::new(self.meta.clone(), self.cfg.clone(), self.pcap.len() / 600)
    }

    fn checkpoint_file(&self, ck: &Checkpoint) -> PathBuf {
        self.checkpoint_dir
            .join(format!("epoch-{:06}.ckpt", ck.epoch_index))
    }

    /// Write each checkpoint to a file of its own with `write_atomic`
    /// (replacing one live file makes ext4 force every version to disk),
    /// load it back, and delete it. Returns how many failed to round-trip.
    fn disk_round_trip(&self, checkpoints: &[Checkpoint]) -> u64 {
        let mut failed = 0;
        for ck in checkpoints {
            let file = self.checkpoint_file(ck);
            let back = ck
                .write_atomic(&file)
                .and_then(|()| Checkpoint::load(&file));
            failed += u64::from(!matches!(back, Ok(ref back) if back == ck));
            let _ = std::fs::remove_file(file);
        }
        // Let the file system finish its work before anything is timed.
        if std::fs::File::open(&self.checkpoint_dir)
            .and_then(|d| d.sync_all())
            .is_err()
        {
            failed += 1;
        }
        failed
    }

    /// Point a boundary checkpoint at the record that triggered it, as the
    /// capture driver does.
    fn keep(mut ck: Checkpoint, pos: u64, clock: Option<u64>, kept: &mut Vec<Checkpoint>) {
        ck.resume_offset = pos;
        ck.reader_clock_us = clock;
        kept.push(ck);
    }
}

fn monitor_config(max_conns: usize) -> MonitorConfig {
    MonitorConfig {
        epoch_secs: EPOCH_SECS,
        checkpoints: true,
        pipeline: PipelineConfig {
            max_conns,
            ..PipelineConfig::default()
        },
    }
}

/// The budget-free pass that measures the capture's peak of open
/// connections.
fn unbudgeted_peak(pcap: &[u8], meta: &TraceMeta) -> u64 {
    let cfg = MonitorConfig {
        epoch_secs: EPOCH_SECS,
        checkpoints: false,
        pipeline: PipelineConfig::default(),
    };
    let mut monitor = Monitor::new(meta.clone(), cfg, pcap.len() / 600);
    let mut reader =
        RecoveringReader::new(pcap).expect("benchmark-written capture has a valid header");
    while let Some(r) = reader.next_record() {
        monitor.observe(r.ts, r.frame, r.orig_len);
    }
    monitor.finish(reader.stats()).1.metrics.peak_open_conns
}

impl Workload for MonitorBench {
    type Output = MonitorRun;

    fn setup(seed: u64) -> (MonitorBench, f64) {
        let t = std::time::Instant::now();
        let spec = dataset("D1").expect("dataset names are D0-D4");
        let mut arena = PacketArena::unbounded();
        let streams = SUBNETS
            .map(|subnet| {
                let gen = GenConfig {
                    scale: SCALE,
                    seed: sub_seed(seed, subnet.into(), SUBNETS.len()),
                    hosts_per_subnet: None,
                };
                let (site, wan) = build_site(&spec, &gen);
                generate_trace_into(&site, &wan, &spec, subnet, 1, &gen, &mut arena);
                let mut packets = arena.captured_packets();
                packets.truncate(RECORDS);
                Stream::synchronized(packets)
            })
            .collect();
        let merged = merge_streams(streams);
        let frames = merged.iter().map(|p| (p.ts, &p.frame[..], p.orig_len));
        let pcap = write_pcap(spec.snaplen, frames);
        let secs = t.elapsed().as_secs_f64();

        let meta = capture_meta("D1", &pcap).expect("benchmark-written capture has a valid header");
        let (mut records, mut bytes) = (0, 0);
        let mut reader =
            RecoveringReader::new(&pcap).expect("benchmark-written capture has a valid header");
        while let Some(r) = reader.next_record() {
            records += 1;
            bytes += u64::from(r.orig_len);
        }
        let peak = unbudgeted_peak(&pcap, &meta);
        let cfg = monitor_config(((peak as f64 * BUDGET_SHARE) as usize).max(1));
        let bench = MonitorBench {
            pcap,
            meta,
            cfg,
            records,
            bytes,
            checkpoint_dir: PathBuf::new(),
            reference: None,
        };
        (bench, secs)
    }

    /// `capture.pcap`, and one line: connection budget, records, wire bytes.
    fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::write(dir.join("capture.pcap"), &self.pcap)?;
        let params = format!(
            "{}\t{}\t{}\n",
            self.cfg.pipeline.max_conns, self.records, self.bytes
        );
        std::fs::write(dir.join("monitor.tsv"), params)
    }

    fn load(dir: &Path, _seed: u64, scratch: &Path) -> std::io::Result<MonitorBench> {
        let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "bad monitor.tsv");
        let params = std::fs::read_to_string(dir.join("monitor.tsv"))?;
        let nums: Vec<u64> = params
            .split_whitespace()
            .map(|s| s.parse().map_err(|_| bad()))
            .collect::<Result<_, _>>()?;
        let [max_conns, records, bytes] = nums[..] else {
            return Err(bad());
        };
        let pcap = std::fs::read(dir.join("capture.pcap"))?;
        let meta = capture_meta("D1", &pcap).map_err(|_| bad())?;
        Ok(MonitorBench {
            pcap,
            meta,
            cfg: monitor_config(max_conns as usize),
            records,
            bytes,
            checkpoint_dir: scratch.to_path_buf(),
            reference: None,
        })
    }

    /// Each stretch of records up to and including the one that closes an
    /// epoch is a timed unit, and so is `finish`: the same 360-odd units in
    /// every run, since every run reads the same capture.
    fn run(&mut self, laps: &mut Laps) -> MonitorRun {
        let mut monitor = self.new_monitor();
        let mut reader = RecoveringReader::new(&self.pcap)
            .expect("benchmark-written capture has a valid header");
        let mut checkpoints = Vec::new();
        let mut more = true;
        while more {
            more = laps.lap(|| loop {
                let (pos, clock) = (reader.position(), reader.last_clock_us());
                let Some(r) = reader.next_record() else {
                    return false;
                };
                if monitor.observe(r.ts, r.frame, r.orig_len).is_empty() {
                    continue;
                }
                for ck in monitor.take_boundaries() {
                    Self::keep(ck, pos, clock, &mut checkpoints);
                }
                return true;
            });
        }
        let summary = laps.lap(|| monitor.finish(reader.stats()).1);
        MonitorRun {
            summary,
            records: reader.stats().records,
            checkpoints,
        }
    }

    /// `run` with spans: `core.observe` around the whole loop and a
    /// `core.epoch_close` child around each `observe` call that crosses an
    /// epoch boundary (known ahead from the first timestamp and the epoch
    /// length, so no other call pays for a clock read); then isolation
    /// passes that encode and write the run's checkpoints, and read the
    /// capture's layers.
    fn run_traced(&mut self, tr: &mut Tracer) -> MonitorRun {
        let epoch_us = EPOCH_SECS * 1_000_000;
        let mut monitor = self.new_monitor();
        let mut reader = RecoveringReader::new(&self.pcap)
            .expect("benchmark-written capture has a valid header");
        let mut checkpoints = Vec::new();
        let mut next_boundary = None;
        let mut unpredicted = 0u64;
        let root = tr.enter("core.observe");
        loop {
            let (pos, clock) = (reader.position(), reader.last_clock_us());
            let Some(r) = reader.next_record() else { break };
            let ts = r.ts.micros();
            let boundary = *next_boundary.get_or_insert(ts + epoch_us);
            let flushed = if ts >= boundary {
                let id = tr.enter("core.epoch_close");
                let reports = monitor.observe(r.ts, r.frame, r.orig_len);
                tr.exit(id);
                if reports.is_empty() {
                    tr.rename(id, "core.observe");
                }
                next_boundary = Some(boundary + (ts - boundary) / epoch_us * epoch_us + epoch_us);
                !reports.is_empty()
            } else {
                let flushed = !monitor.observe(r.ts, r.frame, r.orig_len).is_empty();
                unpredicted += u64::from(flushed);
                flushed
            };
            if !flushed {
                continue;
            }
            for ck in monitor.take_boundaries() {
                Self::keep(ck, pos, clock, &mut checkpoints);
            }
        }
        let run = MonitorRun {
            summary: monitor.finish(reader.stats()).1,
            records: reader.stats().records,
            checkpoints,
        };
        tr.exit(root);
        if unpredicted > 0 {
            eprintln!("perfbench: {unpredicted} epoch flushes fell outside predicted boundaries");
        }

        let bytes = tr.isolate("core.checkpoint_encode", || {
            run.checkpoints
                .iter()
                .map(|ck| ck.encode().len())
                .sum::<usize>()
        });
        tr.add("core.checkpoint_bytes", bytes as f64);
        tr.isolate("core.checkpoint_write", || {
            for ck in &run.checkpoints {
                let _ = ck.write_atomic(&self.checkpoint_file(ck));
            }
        });
        for ck in &run.checkpoints {
            let _ = std::fs::remove_file(self.checkpoint_file(ck));
        }
        tr.add("core.epochs", run.summary.totals.epochs as f64);
        add_proto(tr, &run.summary.metrics);
        isolate_capture(tr, &self.pcap, self.cfg.pipeline.max_conns);
        run
    }

    /// An operation is an epoch. Every checkpoint must decode back
    /// unchanged (`Checkpoint::parse` of its encoding). In the first,
    /// untimed run each is also written with `write_atomic` and loaded back
    /// from disk; later runs leave the disk alone, because the file
    /// system's background work slowed the monitor's own work by about 45%
    /// and split its run times into two modes. The totals must count
    /// exactly the reader's records and wire bytes, match the first run's,
    /// and show evictions; otherwise every epoch fails.
    fn check(&mut self, out: MonitorRun) -> Checked {
        let totals = out.summary.totals;
        let mut c = Checked {
            pkts: totals.packets,
            ops: totals.epochs,
            failed: 0,
        };
        for ck in &out.checkpoints {
            if !matches!(Checkpoint::parse(&ck.encode()), Ok(ref back) if back == ck) {
                c.failed += 1;
            }
        }
        if self.reference.is_none() {
            c.failed += self.disk_round_trip(&out.checkpoints);
        }
        let reference = *self.reference.get_or_insert(totals);
        if totals.packets != self.records
            || totals.bytes != self.bytes
            || out.records != self.records
            || out.summary.health.evicted_conns == 0
            || totals != reference
        {
            c.failed = c.ops.max(1);
        }
        c.failed = c.failed.min(c.ops.max(1));
        c
    }
}
