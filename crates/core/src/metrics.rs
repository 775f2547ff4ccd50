//! `ent-obs` — pipeline observability: stage timers, throughput counters
//! and the machine-readable perf trajectory (`BENCH_pipeline.json`).
//!
//! The paper's evaluation is throughput-heavy batch analysis (>100 hours
//! of traces); the ROADMAP demands the pipeline run as fast as the
//! hardware allows. Neither is achievable blind: this module records
//! where a study run spends its time — per pipeline stage and per
//! application analyzer — with cheap monotonic timers
//! ([`std::time::Instant`] costs ~20 ns on Linux via the vDSO), threaded
//! through [`crate::pipeline::analyze_trace`] exactly like
//! [`crate::records::IngestHealth`]: accumulated per trace, merged
//! lock-free per worker, aggregated per dataset and study-wide.
//!
//! Two invariants make the numbers trustworthy:
//!
//! * **Event and byte counts are deterministic** — independent of thread
//!   count and work-queue scheduling, so they double as a correctness
//!   fingerprint (see the determinism test in [`crate::run`]).
//! * **Wall times are honest** — nested stages are documented as nested
//!   (analyzer delivery time is *inside* flow-ingest time), never
//!   double-reported as disjoint.

use crate::error::BenchJsonError;
use crate::report::Table;
use std::time::Instant;

/// Wall time, event count and byte volume for one pipeline stage.
///
/// `wall_ns` is cumulative monotonic time; `events` and `bytes` are
/// stage-specific (documented per stage on [`PipelineMetrics`]) and are
/// deterministic for a given input regardless of parallelism.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageStat {
    /// Cumulative wall-clock nanoseconds spent in the stage.
    pub wall_ns: u64,
    /// Stage-specific event count (packets, deliveries, connections, …).
    pub events: u64,
    /// Bytes processed by the stage (0 where not meaningful).
    pub bytes: u64,
}

impl StageStat {
    /// Record one batch of work.
    #[inline]
    pub fn add(&mut self, wall_ns: u64, events: u64, bytes: u64) {
        self.wall_ns += wall_ns;
        self.events += events;
        self.bytes += bytes;
    }

    /// Fold another stat into this one.
    pub fn absorb(&mut self, other: &StageStat) {
        self.wall_ns += other.wall_ns;
        self.events += other.events;
        self.bytes += other.bytes;
    }

    /// Wall time in (fractional) microseconds.
    pub fn wall_us(&self) -> f64 {
        self.wall_ns as f64 / 1_000.0
    }

    /// Events per second of stage wall time (0 when untimed).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// A cheap monotonic stopwatch for attributing wall time to stages.
///
/// `lap()` returns the nanoseconds since the previous lap (or start) and
/// restarts the clock, so a chain of laps attributes a loop body to
/// consecutive stages with one clock read per boundary.
#[derive(Debug, Clone, Copy)]
pub struct StageTimer(Instant);

impl StageTimer {
    /// Start the stopwatch.
    #[inline]
    pub fn start() -> StageTimer {
        StageTimer(Instant::now())
    }

    /// Nanoseconds since start/previous lap; restarts the clock.
    #[inline]
    pub fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.0).as_nanos() as u64;
        self.0 = now;
        ns
    }

    /// Nanoseconds since start/previous lap, without restarting.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Application analyzers with individually-attributed delivery time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzerKind {
    /// HTTP transaction parsing.
    Http,
    /// SMTP session tracking.
    Smtp,
    /// Cleartext IMAP4 command tracking.
    Imap,
    /// TLS record/handshake tracking (HTTPS, IMAP-S, POP-S).
    Tls,
    /// CIFS/SMB (and NetBIOS-SSN) message parsing.
    Cifs,
    /// DCE/RPC call parsing (mapped ports and pipes).
    Dcerpc,
    /// NFS over TCP.
    NfsTcp,
    /// NFS over UDP.
    NfsUdp,
    /// NCP call parsing.
    Ncp,
    /// DNS query/response matching.
    Dns,
    /// NetBIOS-NS transaction matching.
    Nbns,
}

/// Per-analyzer cumulative delivery time, event and byte counts.
///
/// One event is one payload delivery into the analyzer (a TCP segment's
/// in-order data or one UDP datagram); bytes are the delivered payload
/// bytes. Wall time is nested inside
/// [`PipelineMetrics::flow_ingest`] (deliveries happen during ingest).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzerMetrics {
    /// HTTP.
    pub http: StageStat,
    /// SMTP.
    pub smtp: StageStat,
    /// IMAP4 (cleartext).
    pub imap: StageStat,
    /// TLS.
    pub tls: StageStat,
    /// CIFS/SMB.
    pub cifs: StageStat,
    /// DCE/RPC.
    pub dcerpc: StageStat,
    /// NFS over TCP.
    pub nfs_tcp: StageStat,
    /// NFS over UDP.
    pub nfs_udp: StageStat,
    /// NCP.
    pub ncp: StageStat,
    /// DNS.
    pub dns: StageStat,
    /// NetBIOS-NS.
    pub nbns: StageStat,
}

impl AnalyzerMetrics {
    /// Mutable stat for one analyzer kind.
    #[inline]
    pub fn stat_mut(&mut self, kind: AnalyzerKind) -> &mut StageStat {
        match kind {
            AnalyzerKind::Http => &mut self.http,
            AnalyzerKind::Smtp => &mut self.smtp,
            AnalyzerKind::Imap => &mut self.imap,
            AnalyzerKind::Tls => &mut self.tls,
            AnalyzerKind::Cifs => &mut self.cifs,
            AnalyzerKind::Dcerpc => &mut self.dcerpc,
            AnalyzerKind::NfsTcp => &mut self.nfs_tcp,
            AnalyzerKind::NfsUdp => &mut self.nfs_udp,
            AnalyzerKind::Ncp => &mut self.ncp,
            AnalyzerKind::Dns => &mut self.dns,
            AnalyzerKind::Nbns => &mut self.nbns,
        }
    }

    /// (name, stat) pairs in a stable order.
    pub fn named(&self) -> [(&'static str, &StageStat); 11] {
        [
            ("http", &self.http),
            ("smtp", &self.smtp),
            ("imap", &self.imap),
            ("tls", &self.tls),
            ("cifs", &self.cifs),
            ("dcerpc", &self.dcerpc),
            ("nfs_tcp", &self.nfs_tcp),
            ("nfs_udp", &self.nfs_udp),
            ("ncp", &self.ncp),
            ("dns", &self.dns),
            ("nbns", &self.nbns),
        ]
    }

    /// Fold another set of analyzer stats into this one.
    pub fn absorb(&mut self, other: &AnalyzerMetrics) {
        self.http.absorb(&other.http);
        self.smtp.absorb(&other.smtp);
        self.imap.absorb(&other.imap);
        self.tls.absorb(&other.tls);
        self.cifs.absorb(&other.cifs);
        self.dcerpc.absorb(&other.dcerpc);
        self.nfs_tcp.absorb(&other.nfs_tcp);
        self.nfs_udp.absorb(&other.nfs_udp);
        self.ncp.absorb(&other.ncp);
        self.dns.absorb(&other.dns);
        self.nbns.absorb(&other.nbns);
    }
}

/// The ten pipeline stages required in every `BENCH_pipeline.json`.
/// A zero-valued mandatory stage in a study run means the instrumentation
/// rotted; `entreport obs-check` fails on it.
pub const MANDATORY_STAGES: [&str; 10] = [
    "generate",
    "gen_synth",
    "gen_sort",
    "gen_tap",
    "frame_parse",
    "flow_ingest",
    "tcp_deliver",
    "udp_deliver",
    "finalize",
    "scanner_removal",
];

/// Stage-level observability for the analysis pipeline.
///
/// Accumulated per trace during [`crate::pipeline::analyze_trace`] (the
/// `generate` stage is added by [`crate::run`], which is where generation
/// happens), carried on [`crate::records::TraceAnalysis::metrics`], and
/// aggregated with [`PipelineMetrics::absorb`].
///
/// Stage semantics (events / bytes):
///
/// * `generate` — synthesis of the trace: packets generated / wire bytes.
/// * `gen_synth` — application-session emission into the trace buffer
///   (nested inside `generate`): logical packets emitted, *including* the
///   beyond-window tail the trace never materializes / logical wire
///   bytes of the same.
/// * `gen_sort` — the global timestamp sort of the emitted packet
///   records (nested inside `generate`): in-window records sorted / 0.
/// * `gen_tap` — tap admission, snaplen clamping and trace
///   materialization (nested inside `generate`): packets captured /
///   captured (post-snaplen) bytes.
/// * `frame_parse` — link/network/transport dissection: frames seen
///   (including rejected ones) / captured bytes.
/// * `flow_ingest` — connection demultiplexing *including* nested analyzer
///   deliveries and conn finalization: packets ingested / wire bytes.
/// * `tcp_deliver` — in-order TCP payload handed to an application
///   analyzer: deliveries / delivered bytes. Nested inside `flow_ingest`.
/// * `udp_deliver` — datagrams handed to an application analyzer:
///   deliveries / delivered bytes. Nested inside `flow_ingest`.
/// * `finalize` — per-connection analyzer drain at close: connections
///   summarized / payload bytes of those connections. Nested inside
///   `flow_ingest`.
/// * `scanner_removal` — the paper's §3 scanner filter: connections
///   examined / connections removed (in `bytes`, 0-cost reuse of the
///   field as a count is *not* done — bytes is 0 here).
///
/// Monitor mode adds three stages (all zero for batch runs):
///
/// * `epoch_rotate` — epoch-boundary rotation: epochs flushed (including
///   the final partial epoch) / connections force-closed at a boundary.
/// * `checkpoint` — checkpoint serialization + atomic write: checkpoints
///   written / 0.
/// * `backpressure` — bounded-state degradation: evicted connections plus
///   dropped pending-map entries / 0.
///
/// The sharded pipeline adds one more (also recorded by the serial batch
/// path, zero in monitor mode):
///
/// * `shard_ingest` — *elapsed* wall of the frame-parse + flow-ingest
///   phase of one trace, end to end. Unlike `frame_parse`/`flow_ingest`,
///   whose walls are summed across shard workers running concurrently,
///   this is dispatcher-observed elapsed time — the denominator of the
///   multi-shard scaling curve. Events and bytes are always 0 so the
///   stage is signature-neutral.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PipelineMetrics {
    /// Trace synthesis (`ent-gen`).
    pub generate: StageStat,
    /// Session emission into the trace buffer (nested in `generate`).
    pub gen_synth: StageStat,
    /// Timestamp sort of emitted records (nested in `generate`).
    pub gen_sort: StageStat,
    /// Tap admission + snaplen clamp + materialization (nested in
    /// `generate`).
    pub gen_tap: StageStat,
    /// Frame dissection (`ent-wire`).
    pub frame_parse: StageStat,
    /// Flow demultiplexing (`ent-flow`), nested stages included.
    pub flow_ingest: StageStat,
    /// TCP payload deliveries into analyzers (nested in `flow_ingest`).
    pub tcp_deliver: StageStat,
    /// UDP datagram deliveries into analyzers (nested in `flow_ingest`).
    pub udp_deliver: StageStat,
    /// Per-connection analyzer drain at close (nested in `flow_ingest`).
    pub finalize: StageStat,
    /// Scanner-removal pass over finished connections.
    pub scanner_removal: StageStat,
    /// Monitor-mode epoch rotation (zero for batch runs).
    pub epoch_rotate: StageStat,
    /// Monitor-mode checkpoint writes (zero for batch runs).
    pub checkpoint: StageStat,
    /// Bounded-state degradation events: forced evictions + pending-map
    /// drops (zero when no budget was exceeded).
    pub backpressure: StageStat,
    /// Elapsed (not summed-across-workers) wall of the ingest phase per
    /// trace; events/bytes always 0 (signature-neutral).
    pub shard_ingest: StageStat,
    /// Per-analyzer delivery time and event counts.
    pub analyzers: AnalyzerMetrics,
    /// High-water mark of simultaneously open connections (max, not sum,
    /// under [`PipelineMetrics::absorb`]).
    pub peak_open_conns: u64,
    /// Total wall time attributed to traces (generation + analysis). Under
    /// aggregation this is *worker* time: the sum over traces, which can
    /// exceed elapsed wall clock when workers run in parallel.
    pub trace_wall_ns: u64,
    /// Traces folded into this record.
    pub traces: u64,
}

impl PipelineMetrics {
    /// (name, stat) pairs for every pipeline stage: the ten batch stages
    /// in [`MANDATORY_STAGES`] order, then the three monitor-mode stages,
    /// then the sharding elapsed-wall stage.
    pub fn stages(&self) -> [(&'static str, &StageStat); 14] {
        [
            ("generate", &self.generate),
            ("gen_synth", &self.gen_synth),
            ("gen_sort", &self.gen_sort),
            ("gen_tap", &self.gen_tap),
            ("frame_parse", &self.frame_parse),
            ("flow_ingest", &self.flow_ingest),
            ("tcp_deliver", &self.tcp_deliver),
            ("udp_deliver", &self.udp_deliver),
            ("finalize", &self.finalize),
            ("scanner_removal", &self.scanner_removal),
            ("epoch_rotate", &self.epoch_rotate),
            ("checkpoint", &self.checkpoint),
            ("backpressure", &self.backpressure),
            ("shard_ingest", &self.shard_ingest),
        ]
    }

    /// Fold another trace's (or dataset's) metrics into this one.
    /// Wall times and counts add; `peak_open_conns` takes the max.
    pub fn absorb(&mut self, other: &PipelineMetrics) {
        self.generate.absorb(&other.generate);
        self.gen_synth.absorb(&other.gen_synth);
        self.gen_sort.absorb(&other.gen_sort);
        self.gen_tap.absorb(&other.gen_tap);
        self.frame_parse.absorb(&other.frame_parse);
        self.flow_ingest.absorb(&other.flow_ingest);
        self.tcp_deliver.absorb(&other.tcp_deliver);
        self.udp_deliver.absorb(&other.udp_deliver);
        self.finalize.absorb(&other.finalize);
        self.scanner_removal.absorb(&other.scanner_removal);
        self.epoch_rotate.absorb(&other.epoch_rotate);
        self.checkpoint.absorb(&other.checkpoint);
        self.backpressure.absorb(&other.backpressure);
        self.shard_ingest.absorb(&other.shard_ingest);
        self.analyzers.absorb(&other.analyzers);
        self.peak_open_conns = self.peak_open_conns.max(other.peak_open_conns);
        self.trace_wall_ns += other.trace_wall_ns;
        self.traces += other.traces;
    }

    /// Packets analyzed (the flow-ingest event count).
    pub fn packets(&self) -> u64 {
        self.flow_ingest.events
    }

    /// Wire bytes analyzed.
    pub fn bytes(&self) -> u64 {
        self.flow_ingest.bytes
    }

    /// Packets per second of worker time (generation + analysis).
    pub fn packets_per_sec(&self) -> f64 {
        if self.trace_wall_ns == 0 {
            return 0.0;
        }
        self.packets() as f64 / (self.trace_wall_ns as f64 / 1e9)
    }

    /// Wire bytes per second of worker time.
    pub fn bytes_per_sec(&self) -> f64 {
        if self.trace_wall_ns == 0 {
            return 0.0;
        }
        self.bytes() as f64 / (self.trace_wall_ns as f64 / 1e9)
    }

    /// Deterministic fingerprint of the metrics: every stage's and
    /// analyzer's (name, events, bytes), plus the trace total.
    /// Wall times are deliberately excluded — two runs of the same study
    /// must produce identical signatures regardless of thread count — and
    /// so is `peak_open_conns`: a sharded run reports the *sum* of
    /// per-shard peaks (a serial run its true peak), making the peak the
    /// one counter that legitimately varies with shard count. It is still
    /// compared exactly between runs of the same configuration via the
    /// top-level bench keys.
    pub fn events_signature(&self) -> Vec<(String, u64, u64)> {
        let mut sig: Vec<(String, u64, u64)> = self
            .stages()
            .iter()
            .map(|(n, s)| (format!("stage:{n}"), s.events, s.bytes))
            .collect();
        for (n, s) in self.analyzers.named() {
            sig.push((format!("analyzer:{n}"), s.events, s.bytes));
        }
        sig.push(("traces".into(), self.traces, 0));
        sig
    }

    /// [`Self::events_signature`] folded into one u64 for display and for
    /// the scaling-curve gate — FNV-1a over the (name, events, bytes)
    /// triples, so two runs match iff every counter matches.
    pub fn events_signature_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (name, events, bytes) in self.events_signature() {
            mix(name.as_bytes());
            mix(&events.to_le_bytes());
            mix(&bytes.to_le_bytes());
        }
        h
    }

    /// Render the study-wide per-stage table for the CLI.
    pub fn stage_table(&self, title: &str) -> Table {
        let mut t = Table::new(
            title,
            &["stage", "wall ms", "events", "Mbytes", "ev/s"],
        );
        for (name, s) in self.stages() {
            // The monitor-only stages stay out of batch-study tables.
            if !MANDATORY_STAGES.contains(&name) && *s == StageStat::default() {
                continue;
            }
            t.row(stage_row(name, s));
        }
        for (name, s) in self.analyzers.named() {
            if s.events == 0 {
                continue;
            }
            t.row(stage_row(&format!("analyzer:{name}"), s));
        }
        t.row(vec![
            "peak open conns".into(),
            String::new(),
            self.peak_open_conns.to_string(),
            String::new(),
            String::new(),
        ]);
        t
    }
}

fn stage_row(name: &str, s: &StageStat) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{:.3}", s.wall_ns as f64 / 1e6),
        s.events.to_string(),
        format!("{:.3}", s.bytes as f64 / 1e6),
        format!("{:.0}", s.events_per_sec()),
    ]
}

/// Schema identifier emitted into and required from `BENCH_pipeline.json`.
pub const BENCH_SCHEMA: &str = "ent-bench-pipeline/1";

/// Schema identifier for monitor-mode bench documents (`entreport monitor
/// --bench-json`). A separate schema from [`BENCH_SCHEMA`] because a
/// monitor run has no generation stages and its gate keys are state
/// budgets, not study wall time.
pub const MONITOR_SCHEMA: &str = "ent-bench-monitor/1";

/// The stages required nonzero in every monitor-mode bench document
/// (which implies the run had checkpointing enabled and saw both TCP and
/// UDP traffic — what the CI smoke drives).
pub const MONITOR_MANDATORY_STAGES: [&str; 8] = [
    "frame_parse",
    "flow_ingest",
    "tcp_deliver",
    "udp_deliver",
    "finalize",
    "scanner_removal",
    "epoch_rotate",
    "checkpoint",
];

/// The top-level counters a monitor bench document must carry. The first
/// three are run parameters (comparability keys for
/// [`compare_bench_json`]); the rest are outcome totals compared exactly —
/// including the bounded-state memory gate (`peak_open_conns`,
/// `evicted_conns`, `pending_dropped`).
pub const MONITOR_NUMERIC_KEYS: [&str; 11] = [
    "epoch_secs",
    "max_conns",
    "max_pending",
    "epochs",
    "checkpoints",
    "packets",
    "bytes",
    "peak_open_conns",
    "evicted_conns",
    "pending_dropped",
    "checkpoint_recoveries",
];

/// Study-level context for the perf-trajectory export.
#[derive(Debug, Clone, Default)]
pub struct BenchContext {
    /// Generator scale of the run.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Worker threads used (resolved, not the `0 = auto` sentinel).
    pub threads: usize,
    /// Intra-trace shard count of the run (0 = serial single-table path).
    pub shards: usize,
    /// Elapsed wall-clock nanoseconds for the whole study.
    pub study_wall_ns: u64,
    /// Per-dataset (name, traces, worker wall ns, packets, bytes).
    pub datasets: Vec<(String, u64, u64, u64, u64)>,
}

fn push_stat(out: &mut String, name: &str, s: &StageStat) {
    out.push_str(&format!(
        "    \"{name}\": {{\"wall_us\": {:.3}, \"events\": {}, \"bytes\": {}}}",
        s.wall_us(),
        s.events,
        s.bytes
    ));
}

/// Serialize a study's metrics as the `BENCH_pipeline.json` document.
///
/// Schema (`ent-bench-pipeline/1`): a flat object with run parameters,
/// study totals, and two maps — `stages` and `analyzers` — of
/// `name → {wall_us, events, bytes}`, plus a `datasets` array of per-
/// dataset totals. All ten [`MANDATORY_STAGES`] are always present.
pub fn bench_json(ctx: &BenchContext, total: &PipelineMetrics) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{BENCH_SCHEMA}\",\n"));
    out.push_str(&format!("  \"scale\": {},\n", ctx.scale));
    out.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    out.push_str(&format!("  \"threads\": {},\n", ctx.threads));
    out.push_str(&format!("  \"shards\": {},\n", ctx.shards));
    out.push_str(&format!(
        "  \"study_wall_us\": {:.3},\n",
        ctx.study_wall_ns as f64 / 1e3
    ));
    out.push_str(&format!(
        "  \"worker_wall_us\": {:.3},\n",
        total.trace_wall_ns as f64 / 1e3
    ));
    out.push_str(&format!("  \"traces\": {},\n", total.traces));
    out.push_str(&format!("  \"packets\": {},\n", total.packets()));
    out.push_str(&format!("  \"bytes\": {},\n", total.bytes()));
    out.push_str(&format!(
        "  \"packets_per_sec\": {:.1},\n",
        total.packets_per_sec()
    ));
    out.push_str(&format!(
        "  \"bytes_per_sec\": {:.1},\n",
        total.bytes_per_sec()
    ));
    out.push_str(&format!(
        "  \"peak_open_conns\": {},\n",
        total.peak_open_conns
    ));
    out.push_str("  \"stages\": {\n");
    let stages = total.stages();
    for (i, (name, s)) in stages.iter().enumerate() {
        push_stat(&mut out, name, s);
        out.push_str(if i + 1 < stages.len() { ",\n" } else { "\n" });
    }
    out.push_str("  },\n");
    out.push_str("  \"analyzers\": {\n");
    let an = total.analyzers.named();
    for (i, (name, s)) in an.iter().enumerate() {
        push_stat(&mut out, name, s);
        out.push_str(if i + 1 < an.len() { ",\n" } else { "\n" });
    }
    out.push_str("  },\n");
    out.push_str("  \"datasets\": [\n");
    for (i, (name, traces, wall_ns, packets, bytes)) in ctx.datasets.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"traces\": {traces}, \"wall_us\": {:.3}, \"packets\": {packets}, \"bytes\": {bytes}}}",
            *wall_ns as f64 / 1e3
        ));
        out.push_str(if i + 1 < ctx.datasets.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Run parameters and outcome totals for a monitor-mode bench document.
#[derive(Debug, Clone, Default)]
pub struct MonitorBenchContext {
    /// Epoch length in seconds of trace time.
    pub epoch_secs: u64,
    /// Connection-table budget (0 = unbounded).
    pub max_conns: u64,
    /// Per-connection pending-transaction budget (0 = unbounded).
    pub max_pending: u64,
    /// Epochs flushed (including the final partial epoch).
    pub epochs: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Connections force-evicted by the table budget.
    pub evicted_conns: u64,
    /// Pending-map entries dropped by the pending budget.
    pub pending_dropped: u64,
    /// Bad checkpoints degraded to counted cold starts.
    pub checkpoint_recoveries: u64,
}

/// Serialize a monitor run's metrics as an `ent-bench-monitor/1` document.
///
/// Same shape as [`bench_json`] — flat counters plus `stages` and
/// `analyzers` maps — but keyed by the monitor's state budgets so
/// [`compare_bench_json`] can gate steady-state memory (peak open conns,
/// eviction and drop counters) alongside wall time.
pub fn monitor_bench_json(ctx: &MonitorBenchContext, total: &PipelineMetrics) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{MONITOR_SCHEMA}\",\n"));
    out.push_str(&format!("  \"epoch_secs\": {},\n", ctx.epoch_secs));
    out.push_str(&format!("  \"max_conns\": {},\n", ctx.max_conns));
    out.push_str(&format!("  \"max_pending\": {},\n", ctx.max_pending));
    out.push_str(&format!("  \"epochs\": {},\n", ctx.epochs));
    out.push_str(&format!("  \"checkpoints\": {},\n", ctx.checkpoints));
    out.push_str(&format!("  \"packets\": {},\n", total.packets()));
    out.push_str(&format!("  \"bytes\": {},\n", total.bytes()));
    out.push_str(&format!(
        "  \"peak_open_conns\": {},\n",
        total.peak_open_conns
    ));
    out.push_str(&format!("  \"evicted_conns\": {},\n", ctx.evicted_conns));
    out.push_str(&format!(
        "  \"pending_dropped\": {},\n",
        ctx.pending_dropped
    ));
    out.push_str(&format!(
        "  \"checkpoint_recoveries\": {},\n",
        ctx.checkpoint_recoveries
    ));
    out.push_str("  \"stages\": {\n");
    let stages = total.stages();
    for (i, (name, s)) in stages.iter().enumerate() {
        push_stat(&mut out, name, s);
        out.push_str(if i + 1 < stages.len() { ",\n" } else { "\n" });
    }
    out.push_str("  },\n");
    out.push_str("  \"analyzers\": {\n");
    let an = total.analyzers.named();
    for (i, (name, s)) in an.iter().enumerate() {
        push_stat(&mut out, name, s);
        out.push_str(if i + 1 < an.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// Schema identifier for shard scaling-curve documents
/// (`entreport scaling`). One study repeated per shard count at a fixed
/// scale/seed/threads; the document is the multi-thread scaling gate.
pub const SCALING_SCHEMA: &str = "ent-bench-scaling/1";

/// One point on the intra-trace shard scaling curve.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalingEntry {
    /// Shard count of this run (0 = serial single-table path).
    pub shards: usize,
    /// Elapsed ingest wall (the `shard_ingest` stage): frame parse + flow
    /// ingest of every trace, end to end, dispatcher-observed.
    pub ingest_wall_ns: u64,
    /// Summed-across-workers `frame_parse` wall.
    pub frame_parse_wall_ns: u64,
    /// Summed-across-workers `flow_ingest` wall.
    pub flow_ingest_wall_ns: u64,
    /// Packets analyzed (must be identical across entries).
    pub packets: u64,
    /// Traces analyzed (must be identical across entries).
    pub traces: u64,
    /// Peak open connections — the serial peak at shards ≤ 1, the sum of
    /// per-shard peaks otherwise. Deterministic per (config, shards), so
    /// compared exactly between documents entry-for-entry.
    pub peak_open_conns: u64,
    /// [`PipelineMetrics::events_signature_hash`] of the run (must be
    /// identical across entries — the determinism half of the gate).
    pub signature_hash: u64,
}

/// Run parameters for the scaling-curve export.
#[derive(Debug, Clone, Default)]
pub struct ScalingContext {
    /// Generator scale of the runs.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Worker threads per run (the curve varies shards, not threads).
    pub threads: usize,
    /// CPU cores available where this document was produced. Not a
    /// comparability key: the speedup floor is only *enforced* when the
    /// candidate machine has at least 4 cores, so single-core CI keeps
    /// the determinism half without a meaningless wall gate.
    pub cores: usize,
    /// Minimum required speedup of the 4-shard run over the 1-shard run
    /// on elapsed ingest wall.
    pub floor: f64,
    /// One entry per shard count, in run order.
    pub entries: Vec<ScalingEntry>,
}

/// Serialize a scaling study as an `ent-bench-scaling/1` document.
pub fn scaling_bench_json(ctx: &ScalingContext) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCALING_SCHEMA}\",\n"));
    out.push_str(&format!("  \"scale\": {},\n", ctx.scale));
    out.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    out.push_str(&format!("  \"threads\": {},\n", ctx.threads));
    out.push_str(&format!("  \"cores\": {},\n", ctx.cores));
    out.push_str(&format!("  \"floor\": {},\n", ctx.floor));
    out.push_str("  \"entries\": [\n");
    for (i, e) in ctx.entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"ingest_wall_us\": {:.3}, \
             \"frame_parse_wall_us\": {:.3}, \"flow_ingest_wall_us\": {:.3}, \
             \"packets\": {}, \"traces\": {}, \"peak_open_conns\": {}, \
             \"signature\": \"{:016x}\"}}",
            e.shards,
            e.ingest_wall_ns as f64 / 1e3,
            e.frame_parse_wall_ns as f64 / 1e3,
            e.flow_ingest_wall_ns as f64 / 1e3,
            e.packets,
            e.traces,
            e.peak_open_conns,
            e.signature_hash,
        ));
        out.push_str(if i + 1 < ctx.entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Schema identifier for labeled scenario-pack documents
/// (`entreport packs`). One labeled generation + analysis run per pack;
/// the document is the scanner-removal scoring gate (precision/recall
/// floors) and the trace-complexity record (per-pack packet-header
/// entropy after Avin et al.).
pub const PACKS_SCHEMA: &str = "ent-bench-packs/1";

/// One scored scenario pack in an `ent-bench-packs/1` document.
#[derive(Debug, Clone, Default)]
pub struct PackBenchEntry {
    /// Pack name (`"base"`, `"sweep"`, ...).
    pub name: String,
    /// Traces generated and analyzed for this pack.
    pub traces: u64,
    /// Packets analyzed.
    pub packets: u64,
    /// Packets carrying a should-be-flagged attack label.
    pub attack_packets: u64,
    /// Distinct ground-truth scan source addresses.
    pub scan_sources: u64,
    /// Connections the scanner-removal stage flagged.
    pub flagged: u64,
    /// Flagged connections whose originator is a labeled scan source.
    pub true_pos: u64,
    /// Flagged connections whose originator is not a labeled scan source.
    pub false_pos: u64,
    /// Kept connections whose originator is a labeled scan source.
    pub false_neg: u64,
    /// `tp / (tp + fp)`; vacuously 1 when nothing was flagged.
    pub precision: f64,
    /// `tp / (tp + fn)`; vacuously 1 when there was nothing to find.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
    /// Non-temporal (first-order) header-symbol entropy, bits.
    pub entropy_nontemporal: f64,
    /// Temporal (conditional pair) header-symbol entropy, bits.
    pub entropy_temporal: f64,
}

/// Run parameters for the scenario-pack export.
#[derive(Debug, Clone, Default)]
pub struct PacksBenchContext {
    /// Generator scale of the runs.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Worker threads per pack run.
    pub threads: usize,
    /// Intra-trace shard count (0 = serial single-table path).
    pub shards: usize,
    /// Minimum acceptable precision for any pack that flagged anything.
    pub precision_floor: f64,
    /// Minimum acceptable recall for any pack with labeled scan sources.
    pub recall_floor: f64,
    /// One entry per pack, in run order (`"base"` must be present).
    pub packs: Vec<PackBenchEntry>,
}

/// Serialize a scenario-pack study as an `ent-bench-packs/1` document.
pub fn packs_bench_json(ctx: &PacksBenchContext) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{PACKS_SCHEMA}\",\n"));
    out.push_str(&format!("  \"scale\": {},\n", ctx.scale));
    out.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    out.push_str(&format!("  \"threads\": {},\n", ctx.threads));
    out.push_str(&format!("  \"shards\": {},\n", ctx.shards));
    out.push_str(&format!(
        "  \"precision_floor\": {},\n",
        ctx.precision_floor
    ));
    out.push_str(&format!("  \"recall_floor\": {},\n", ctx.recall_floor));
    out.push_str("  \"packs\": [\n");
    for (i, p) in ctx.packs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"traces\": {}, \"packets\": {}, \
             \"attack_packets\": {}, \"scan_sources\": {}, \"flagged\": {}, \
             \"true_pos\": {}, \"false_pos\": {}, \"false_neg\": {}, \
             \"precision\": {:.6}, \"recall\": {:.6}, \"f1\": {:.6}, \
             \"entropy_nontemporal\": {:.9}, \"entropy_temporal\": {:.9}}}",
            p.name,
            p.traces,
            p.packets,
            p.attack_packets,
            p.scan_sources,
            p.flagged,
            p.true_pos,
            p.false_pos,
            p.false_neg,
            p.precision,
            p.recall,
            p.f1,
            p.entropy_nontemporal,
            p.entropy_temporal,
        ));
        out.push_str(if i + 1 < ctx.packs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON reader for schema validation (`entreport obs-check`) and
// cross-run comparison. Hand-rolled because the workspace builds offline
// with no registry dependencies. Accepts the JSON subset this module
// emits (objects, arrays, strings without exotic escapes, numbers,
// booleans, null) — enough to validate any conforming producer.
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (f64 precision suffices for validation).
    Number(f64),
    /// A string (escape sequences decoded for `\" \\ \/ \n \t \r`).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

struct JsonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonReader<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn require(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos.saturating_sub(1),
                got.map(|g| g as char)
            )),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        for expected in word.bytes() {
            match self.bump() {
                Some(got) if got == expected => {}
                _ => return Err(format!("malformed literal near byte {}", self.pos)),
            }
        }
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        // Opening quote already consumed by the caller.
        let mut s = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    other => {
                        return Err(format!(
                            "unsupported escape {:?} at byte {}",
                            other.map(|o| o as char),
                            self.pos
                        ))
                    }
                },
                Some(b) => s.push(b as char),
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self, _first: u8) -> Result<JsonValue, String> {
        let start = self.pos.saturating_sub(1);
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .unwrap_or("");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.bump() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                loop {
                    self.require(b'"')?;
                    let key = self.string()?;
                    self.require(b':')?;
                    let val = self.value()?;
                    members.push((key, val));
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(JsonValue::Object(members)),
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(JsonValue::Array(items)),
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("rue", JsonValue::Bool(true)),
            Some(b'f') => self.literal("alse", JsonValue::Bool(false)),
            Some(b'n') => self.literal("ull", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(b),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|o| o as char),
                self.pos
            )),
        }
    }
}

/// Parse a JSON document (the subset [`bench_json`] emits).
pub fn json_parse(text: &str) -> Result<JsonValue, BenchJsonError> {
    json_parse_inner(text).map_err(BenchJsonError::new)
}

// Internal plumbing keeps `String` diagnoses (cheap to compose with
// `format!`); the public wrappers above/below convert to the taxonomy's
// [`BenchJsonError`] exactly once, at the crate boundary.
fn json_parse_inner(text: &str) -> Result<JsonValue, String> {
    let mut r = JsonReader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = r.value()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(format!("trailing garbage at byte {}", r.pos));
    }
    Ok(v)
}

/// A validated `BENCH_pipeline.json` summary, for human-readable echo.
#[derive(Debug, Clone, Default)]
pub struct BenchSummary {
    /// Total packets analyzed.
    pub packets: u64,
    /// Total traces.
    pub traces: u64,
    /// Study wall microseconds.
    pub study_wall_us: f64,
    /// (stage, wall_us, events) per mandatory stage.
    pub stages: Vec<(String, f64, u64)>,
}

fn stat_fields(stage: &JsonValue, name: &str) -> Result<(f64, u64, u64), String> {
    let field = |key: &str| -> Result<f64, String> {
        stage
            .get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("stage {name:?}: missing numeric field {key:?}"))
    };
    let wall_us = field("wall_us")?;
    let events = field("events")?;
    let bytes = field("bytes")?;
    if wall_us < 0.0 || events < 0.0 || bytes < 0.0 {
        return Err(format!("stage {name:?}: negative value"));
    }
    Ok((wall_us, events as u64, bytes as u64))
}

/// Schema of a bench document (the dispatch key for validation and
/// comparison).
fn bench_schema(doc: &JsonValue) -> Result<&str, String> {
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or("missing \"schema\"")?;
    if schema != BENCH_SCHEMA
        && schema != MONITOR_SCHEMA
        && schema != SCALING_SCHEMA
        && schema != PACKS_SCHEMA
    {
        return Err(format!(
            "schema mismatch: got {schema:?}, want {BENCH_SCHEMA:?}, {MONITOR_SCHEMA:?}, \
             {SCALING_SCHEMA:?} or {PACKS_SCHEMA:?}"
        ));
    }
    Ok(schema)
}

/// Payload-delivery stages: on a header-only capture no payload reaches
/// an analyzer, so these may be idle (see [`check_mandatory_stages`]).
const DELIVERY_STAGES: [&str; 2] = ["tcp_deliver", "udp_deliver"];

/// Check every `names` stage exists in the document's `stages` map with
/// nonzero wall time and events (the instrumentation-rot check), pushing
/// each into `summary`. One exception: a delivery stage
/// ([`DELIVERY_STAGES`]) may be *idle* — zero events and zero wall
/// together — when the `analyzers` map records no events either, which
/// is what a header-only capture produces. A stage with events but zero
/// wall is always rot.
fn check_mandatory_stages(
    doc: &JsonValue,
    names: &[&str],
    summary: &mut BenchSummary,
) -> Result<(), String> {
    let stages = doc.get("stages").ok_or("missing \"stages\" object")?;
    let analyzers = doc.get("analyzers").ok_or("missing \"analyzers\" object")?;
    let JsonValue::Object(analyzer_stats) = analyzers else {
        return Err("\"analyzers\" is not an object".into());
    };
    let mut analyzer_events = 0u64;
    for (name, stat) in analyzer_stats {
        analyzer_events += stat_fields(stat, name)?.1;
    }
    for &name in names {
        let stage = stages
            .get(name)
            .ok_or_else(|| format!("missing mandatory stage {name:?}"))?;
        let (wall_us, events, _bytes) = stat_fields(stage, name)?;
        let idle_delivery = wall_us <= 0.0
            && events == 0
            && analyzer_events == 0
            && DELIVERY_STAGES.contains(&name);
        if !idle_delivery && wall_us <= 0.0 {
            return Err(format!(
                "mandatory stage {name:?} has zero wall time — instrumentation rot?"
            ));
        }
        if !idle_delivery && events == 0 {
            return Err(format!(
                "mandatory stage {name:?} has zero events — instrumentation rot?"
            ));
        }
        summary.stages.push((name.to_string(), wall_us, events));
    }
    Ok(())
}

/// Validate a bench document — either schema.
///
/// * `ent-bench-pipeline/1` (`BENCH_pipeline.json`): required run
///   parameters, the per-stage map with all [`MANDATORY_STAGES`] present,
///   and — the instrumentation-rot check — nonzero wall time *and* event
///   counts for every mandatory stage (delivery stages may be idle when
///   no analyzer saw an event: a header-only capture).
/// * `ent-bench-monitor/1` (`entreport monitor --bench-json`): the
///   [`MONITOR_NUMERIC_KEYS`] counters plus nonzero
///   [`MONITOR_MANDATORY_STAGES`].
/// * `ent-bench-scaling/1` (`entreport scaling`): per-shard-count entries
///   that must all agree on packets, traces and the events signature —
///   shape validation doubles as the sharding determinism gate.
/// * `ent-bench-packs/1` (`entreport packs`): per-pack scored entries; a
///   `"base"` entry must be present, every pack with labeled scan sources
///   must reach `recall_floor`, every pack that flagged anything must
///   reach `precision_floor`, and every adversarial pack's header entropy
///   must be distinguishable from the base mix — the validation doubles
///   as the scanner-removal quality gate.
pub fn validate_bench_json(text: &str) -> Result<BenchSummary, BenchJsonError> {
    validate_bench_json_inner(text).map_err(BenchJsonError::new)
}

fn validate_bench_json_inner(text: &str) -> Result<BenchSummary, String> {
    let doc = json_parse_inner(text)?;
    let mut summary = BenchSummary {
        packets: doc.get("packets").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64,
        traces: 0,
        study_wall_us: 0.0,
        stages: Vec::new(),
    };
    if bench_schema(&doc)? == SCALING_SCHEMA {
        return validate_scaling_inner(&doc);
    }
    if bench_schema(&doc)? == PACKS_SCHEMA {
        return validate_packs_inner(&doc);
    }
    if bench_schema(&doc)? == MONITOR_SCHEMA {
        for key in MONITOR_NUMERIC_KEYS {
            if doc.get(key).and_then(|v| v.as_f64()).is_none() {
                return Err(format!("missing numeric field {key:?}"));
            }
        }
        // Epochs stand in for traces in the human-readable echo.
        summary.traces = doc.get("epochs").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        check_mandatory_stages(&doc, &MONITOR_MANDATORY_STAGES, &mut summary)?;
        if summary.packets == 0 {
            return Err("monitor run analyzed zero packets".into());
        }
        return Ok(summary);
    }
    for key in ["scale", "seed", "threads", "study_wall_us", "worker_wall_us", "traces", "packets", "bytes", "packets_per_sec", "bytes_per_sec", "peak_open_conns"] {
        if doc.get(key).and_then(|v| v.as_f64()).is_none() {
            return Err(format!("missing numeric field {key:?}"));
        }
    }
    summary.traces = doc.get("traces").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
    summary.study_wall_us = doc
        .get("study_wall_us")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    check_mandatory_stages(&doc, &MANDATORY_STAGES, &mut summary)?;
    match doc.get("datasets") {
        Some(JsonValue::Array(items)) => {
            for d in items {
                for key in ["name", "traces", "wall_us", "packets", "bytes"] {
                    if d.get(key).is_none() {
                        return Err(format!("dataset entry missing {key:?}"));
                    }
                }
            }
        }
        _ => return Err("missing \"datasets\" array".into()),
    }
    if summary.packets == 0 {
        return Err("study analyzed zero packets".into());
    }
    Ok(summary)
}

/// Numeric fields every scaling-curve entry must carry.
const SCALING_ENTRY_KEYS: [&str; 7] = [
    "shards",
    "ingest_wall_us",
    "frame_parse_wall_us",
    "flow_ingest_wall_us",
    "packets",
    "traces",
    "peak_open_conns",
];

/// Validate an `ent-bench-scaling/1` document. Beyond shape, this is the
/// determinism half of the scaling gate: every entry — serial and every
/// shard count — must report the same packet count, trace count and
/// events signature, or sharding changed the analysis results.
fn validate_scaling_inner(doc: &JsonValue) -> Result<BenchSummary, String> {
    for key in ["scale", "seed", "threads", "cores", "floor"] {
        if doc.get(key).and_then(|v| v.as_f64()).is_none() {
            return Err(format!("missing numeric field {key:?}"));
        }
    }
    let entries = match doc.get("entries") {
        Some(JsonValue::Array(items)) if !items.is_empty() => items,
        _ => return Err("missing non-empty \"entries\" array".into()),
    };
    let mut summary = BenchSummary::default();
    let mut seen_shards: Vec<u64> = Vec::new();
    let mut reference: Option<(String, u64, u64)> = None;
    for e in entries {
        for key in SCALING_ENTRY_KEYS {
            if e.get(key).and_then(|v| v.as_f64()).is_none() {
                return Err(format!("scaling entry missing numeric field {key:?}"));
            }
        }
        let shards = e.get("shards").and_then(|v| v.as_f64()).unwrap_or(-1.0) as u64;
        let wall = e
            .get("ingest_wall_us")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        if wall <= 0.0 {
            return Err(format!(
                "scaling entry shards={shards} has zero ingest wall — instrumentation rot?"
            ));
        }
        if seen_shards.contains(&shards) {
            return Err(format!("duplicate scaling entry for shards={shards}"));
        }
        seen_shards.push(shards);
        let sig = e
            .get("signature")
            .and_then(|v| v.as_str())
            .ok_or("scaling entry missing string field \"signature\"")?;
        let packets = e.get("packets").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        let traces = e.get("traces").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        if packets == 0 {
            return Err(format!("scaling entry shards={shards} analyzed zero packets"));
        }
        match &reference {
            None => reference = Some((sig.to_string(), packets, traces)),
            Some((rsig, rpackets, rtraces)) => {
                if sig != rsig {
                    return Err(format!(
                        "determinism violation: shards={shards} signature {sig} differs \
                         from {rsig} — sharding changed the analysis results"
                    ));
                }
                if packets != *rpackets || traces != *rtraces {
                    return Err(format!(
                        "determinism violation: shards={shards} analyzed {packets} packets / \
                         {traces} traces, other entries {rpackets} / {rtraces}"
                    ));
                }
            }
        }
        summary
            .stages
            .push((format!("shards={shards}"), wall, packets));
    }
    if let Some((_, packets, traces)) = reference {
        summary.packets = packets;
        summary.traces = traces;
    }
    Ok(summary)
}

/// Numeric fields every scenario-pack entry must carry.
const PACK_ENTRY_KEYS: [&str; 13] = [
    "traces",
    "packets",
    "attack_packets",
    "scan_sources",
    "flagged",
    "true_pos",
    "false_pos",
    "false_neg",
    "precision",
    "recall",
    "f1",
    "entropy_nontemporal",
    "entropy_temporal",
];

/// Entropies closer than this (bits, on both axes) count as
/// indistinguishable when checking that an adversarial pack actually
/// shifted the base mix's header-symbol complexity.
const PACK_ENTROPY_DISTINCT_EPS: f64 = 1e-9;

/// Validate an `ent-bench-packs/1` document. Beyond shape, this is the
/// scoring gate: a `"base"` entry must exist, recall and precision floors
/// are enforced per entry, and every non-base pack's entropy pair must
/// differ from base — a pack whose complexity matches the base mix
/// injected nothing measurable.
fn validate_packs_inner(doc: &JsonValue) -> Result<BenchSummary, String> {
    for key in ["scale", "seed", "threads", "shards", "precision_floor", "recall_floor"] {
        if doc.get(key).and_then(|v| v.as_f64()).is_none() {
            return Err(format!("missing numeric field {key:?}"));
        }
    }
    let precision_floor = doc
        .get("precision_floor")
        .and_then(|v| v.as_f64())
        .unwrap_or(f64::NAN);
    let recall_floor = doc
        .get("recall_floor")
        .and_then(|v| v.as_f64())
        .unwrap_or(f64::NAN);
    let packs = match doc.get("packs") {
        Some(JsonValue::Array(items)) if !items.is_empty() => items,
        _ => return Err("missing non-empty \"packs\" array".into()),
    };
    let mut summary = BenchSummary::default();
    let mut seen_names: Vec<String> = Vec::new();
    let mut base_entropy: Option<(f64, f64)> = None;
    // Two passes so "base" need not be the first entry: find it, then
    // check every other entry's entropy against it.
    for p in packs {
        if p.get("name").and_then(|v| v.as_str()) == Some("base") {
            base_entropy = Some((
                p.get("entropy_nontemporal")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(f64::NAN),
                p.get("entropy_temporal")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(f64::NAN),
            ));
        }
    }
    let Some((base_nt, base_t)) = base_entropy else {
        return Err("no \"base\" pack entry — the unperturbed mix is the scoring anchor".into());
    };
    for p in packs {
        let name = p
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or("pack entry missing string field \"name\"")?
            .to_string();
        if seen_names.contains(&name) {
            return Err(format!("duplicate pack entry for {name:?}"));
        }
        for key in PACK_ENTRY_KEYS {
            if p.get(key).and_then(|v| v.as_f64()).is_none() {
                return Err(format!("pack {name:?} missing numeric field {key:?}"));
            }
        }
        let num = |key: &str| p.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        let packets = num("packets") as u64;
        if packets == 0 {
            return Err(format!("pack {name:?} analyzed zero packets"));
        }
        let scan_sources = num("scan_sources") as u64;
        let flagged = num("flagged") as u64;
        let recall = num("recall");
        let precision = num("precision");
        if scan_sources > 0 && recall < recall_floor {
            return Err(format!(
                "pack {name:?} recall {recall:.4} below floor {recall_floor} \
                 ({scan_sources} labeled scan sources went undercaught)"
            ));
        }
        if flagged > 0 && precision < precision_floor {
            return Err(format!(
                "pack {name:?} precision {precision:.4} below floor {precision_floor} \
                 (scanner removal is flagging benign traffic)"
            ));
        }
        let (nt, t) = (num("entropy_nontemporal"), num("entropy_temporal"));
        if name != "base"
            && (nt - base_nt).abs() <= PACK_ENTROPY_DISTINCT_EPS
            && (t - base_t).abs() <= PACK_ENTROPY_DISTINCT_EPS
        {
            return Err(format!(
                "pack {name:?} entropy ({nt:.9}, {t:.9}) is indistinguishable from base \
                 — the pack injected nothing measurable"
            ));
        }
        summary.packets += packets;
        summary.traces += num("traces") as u64;
        summary.stages.push((format!("pack={name}"), num("f1"), packets));
        seen_names.push(name);
    }
    Ok(summary)
}

/// Compare two scaling-curve documents: exact entry-for-entry determinism
/// (signature, packets, traces, peak) against the baseline, plus the
/// candidate-internal speedup floor — elapsed ingest wall at 1 shard over
/// 4 shards must reach `floor`. Wall times are never compared *between*
/// documents (different machines); the floor is only enforced when the
/// candidate ran on at least 4 cores and `check_wall` is set.
fn compare_scaling_inner(
    b: &JsonValue,
    c: &JsonValue,
    check_wall: bool,
) -> Result<String, String> {
    let num = |doc: &JsonValue, key: &str| {
        doc.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
    };
    for key in ["scale", "seed", "threads", "floor"] {
        if num(b, key) != num(c, key) {
            return Err(format!(
                "runs are not comparable: {key:?} differs (baseline {}, candidate {})",
                num(b, key),
                num(c, key)
            ));
        }
    }
    fn entries(doc: &JsonValue) -> Result<Vec<&JsonValue>, String> {
        match doc.get("entries") {
            Some(JsonValue::Array(items)) => Ok(items.iter().collect()),
            _ => Err("missing \"entries\" array".into()),
        }
    }
    let be = entries(b).map_err(|e| format!("baseline: {e}"))?;
    let ce = entries(c).map_err(|e| format!("candidate: {e}"))?;
    let shard_of = |e: &JsonValue| num(e, "shards");
    if be.iter().map(|e| shard_of(e)).collect::<Vec<_>>()
        != ce.iter().map(|e| shard_of(e)).collect::<Vec<_>>()
    {
        return Err("runs are not comparable: shard-count lists differ".into());
    }
    let mut failures: Vec<String> = Vec::new();
    let mut report = format!(
        "{:<10} {:>14} {:>14} {:>9} {:>9}  determinism\n",
        "shards", "base_ingest_us", "cand_ingest_us", "base_spd", "cand_spd"
    );
    let speedup = |list: &[&JsonValue], e: &JsonValue| -> f64 {
        let one = list
            .iter()
            .find(|x| shard_of(x) == 1.0)
            .map_or(f64::NAN, |x| num(x, "ingest_wall_us"));
        one / num(e, "ingest_wall_us")
    };
    for (bent, cent) in be.iter().zip(&ce) {
        let shards = shard_of(bent) as u64;
        let mut ok = true;
        for key in ["packets", "traces", "peak_open_conns"] {
            if num(bent, key) != num(cent, key) {
                failures.push(format!(
                    "shards={shards}: {key} drifted (baseline {}, candidate {})",
                    num(bent, key),
                    num(cent, key)
                ));
                ok = false;
            }
        }
        let bsig = bent.get("signature").and_then(|v| v.as_str()).unwrap_or("");
        let csig = cent.get("signature").and_then(|v| v.as_str()).unwrap_or("");
        if bsig != csig {
            failures.push(format!(
                "shards={shards}: events signature drifted (baseline {bsig}, candidate {csig})"
            ));
            ok = false;
        }
        report.push_str(&format!(
            "{shards:<10} {:>14.1} {:>14.1} {:>8.2}x {:>8.2}x  {}\n",
            num(bent, "ingest_wall_us"),
            num(cent, "ingest_wall_us"),
            speedup(&be, bent),
            speedup(&ce, cent),
            if ok { "ok" } else { "DRIFTED" },
        ));
    }
    let floor = num(c, "floor");
    let cores = num(c, "cores");
    let cand_4 = ce.iter().find(|e| shard_of(e) == 4.0);
    match cand_4 {
        Some(e4) if check_wall && cores >= 4.0 => {
            let spd = speedup(&ce, e4);
            // NaN (no 1-shard entry to compare against) must also fail.
            if spd.is_nan() || spd < floor {
                failures.push(format!(
                    "scaling floor missed: 4-shard speedup {spd:.2}x < required {floor}x \
                     (ingest wall, candidate machine has {cores} cores)"
                ));
            } else {
                report.push_str(&format!(
                    "floor: 4-shard speedup {spd:.2}x >= {floor}x  ok\n"
                ));
            }
        }
        Some(_) => {
            report.push_str(&format!(
                "floor: waived (check_wall={check_wall}, candidate cores={cores} < 4 \
                 enforces determinism only)\n"
            ));
        }
        None => {
            report.push_str("floor: no 4-shard entry; determinism only\n");
        }
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(failures.join("\n"))
    }
}

/// Absolute tolerance for cross-document comparison of derived f64 fields
/// in pack documents (rates and entropies). Counts are integers and
/// compared exactly; the ratios and `log2` sums they derive into can
/// drift in the last few ulps across libm builds, and the emitter rounds
/// to 6–9 decimals — so near-exact, not bitwise.
const PACK_RATE_TOLERANCE: f64 = 1e-6;

/// Compare two scenario-pack documents: same pack roster, exact
/// per-pack integer counts (packets, truth totals, confusion matrix) and
/// near-exact rates/entropies. Pack runs carry no wall-time gate — the
/// document is a correctness record, so `check_wall` does not apply.
fn compare_packs_inner(b: &JsonValue, c: &JsonValue) -> Result<String, String> {
    let num = |doc: &JsonValue, key: &str| {
        doc.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
    };
    for key in ["scale", "seed", "threads", "shards", "precision_floor", "recall_floor"] {
        if num(b, key) != num(c, key) {
            return Err(format!(
                "runs are not comparable: {key:?} differs (baseline {}, candidate {})",
                num(b, key),
                num(c, key)
            ));
        }
    }
    fn entries(doc: &JsonValue) -> Result<Vec<&JsonValue>, String> {
        match doc.get("packs") {
            Some(JsonValue::Array(items)) => Ok(items.iter().collect()),
            _ => Err("missing \"packs\" array".into()),
        }
    }
    let bp = entries(b).map_err(|e| format!("baseline: {e}"))?;
    let cp = entries(c).map_err(|e| format!("candidate: {e}"))?;
    fn name_of(e: &JsonValue) -> &str {
        e.get("name").and_then(|v| v.as_str()).unwrap_or("")
    }
    if bp.iter().map(|e| name_of(e)).collect::<Vec<_>>()
        != cp.iter().map(|e| name_of(e)).collect::<Vec<_>>()
    {
        return Err("runs are not comparable: pack rosters differ".into());
    }
    let mut failures: Vec<String> = Vec::new();
    let mut report = format!(
        "{:<12} {:>9} {:>6} {:>6} {:>6} {:>8} {:>8}  determinism\n",
        "pack", "packets", "tp", "fp", "fn", "prec", "recall"
    );
    for (bent, cent) in bp.iter().zip(&cp) {
        let name = name_of(bent);
        let mut ok = true;
        for key in [
            "traces",
            "packets",
            "attack_packets",
            "scan_sources",
            "flagged",
            "true_pos",
            "false_pos",
            "false_neg",
        ] {
            if num(bent, key) != num(cent, key) {
                failures.push(format!(
                    "pack {name}: {key} drifted (baseline {}, candidate {})",
                    num(bent, key),
                    num(cent, key)
                ));
                ok = false;
            }
        }
        for key in ["precision", "recall", "f1", "entropy_nontemporal", "entropy_temporal"] {
            let (bv, cv) = (num(bent, key), num(cent, key));
            // NaN (a missing field slipping past validation) must fail too.
            let drifted = (bv - cv).abs() > PACK_RATE_TOLERANCE || (bv - cv).is_nan();
            if drifted {
                failures.push(format!(
                    "pack {name}: {key} drifted (baseline {bv}, candidate {cv})"
                ));
                ok = false;
            }
        }
        report.push_str(&format!(
            "{name:<12} {:>9} {:>6} {:>6} {:>6} {:>8.4} {:>8.4}  {}\n",
            num(cent, "packets"),
            num(cent, "true_pos"),
            num(cent, "false_pos"),
            num(cent, "false_neg"),
            num(cent, "precision"),
            num(cent, "recall"),
            if ok { "ok" } else { "DRIFTED" },
        ));
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(failures.join("\n"))
    }
}

/// Wall-time share (of the summed mandatory-stage wall) below which a
/// stage's wall comparison is skipped by [`compare_bench_json`]: sub-share
/// stages on a sub-second run are dominated by scheduler noise, and a
/// flaky gate is worse than a slightly blind one. Event/byte equality is
/// still enforced for every stage regardless of share.
pub const WALL_SHARE_FLOOR: f64 = 0.05;

/// Compare a candidate bench document against a committed baseline. Both
/// documents must share a schema: pipeline runs compare on
/// `scale`/`seed`/`threads` and study totals; monitor runs compare on
/// `epoch_secs`/`max_conns`/`max_pending` and the bounded-state outcome
/// counters (`epochs`, `checkpoints`, `peak_open_conns`, `evicted_conns`,
/// `pending_dropped`, `checkpoint_recoveries`) — the steady-state memory
/// gate. Scaling documents dispatch to the shard-determinism gate, pack
/// documents to the scoring-determinism gate (exact confusion-matrix
/// counts, near-exact rates and entropies, no wall half).
///
/// The gate contract has two halves:
///
/// * **Determinism** — the runs must share `scale`/`seed`/`threads`
///   (otherwise the comparison is meaningless and this errors out), and
///   every mandatory stage's `events`/`bytes` — plus study `packets`,
///   `traces`, and `peak_open_conns` — must match the baseline *exactly*.
///   Any drift means the pipeline's outputs changed, which a perf change
///   must never do.
/// * **Performance** — a one-sided wall check: a stage holding at least
///   [`WALL_SHARE_FLOOR`] of the summed mandatory-stage wall may not
///   exceed its baseline wall by more than `wall_tolerance` (0.25 =
///   +25%). Getting faster never fails. Pass `check_wall = false` (the
///   `ENT_BENCH_WAIVER=1` escape hatch in `scripts/check.sh`) to skip the
///   wall half on noisy hardware while keeping the determinism half.
///
/// Returns a human-readable comparison table on success, or a newline-
/// separated list of every unacceptable difference.
pub fn compare_bench_json(
    baseline: &str,
    candidate: &str,
    wall_tolerance: f64,
    check_wall: bool,
) -> Result<String, BenchJsonError> {
    compare_bench_json_inner(baseline, candidate, wall_tolerance, check_wall)
        .map_err(BenchJsonError::new)
}

fn compare_bench_json_inner(
    baseline: &str,
    candidate: &str,
    wall_tolerance: f64,
    check_wall: bool,
) -> Result<String, String> {
    validate_bench_json_inner(baseline).map_err(|e| format!("baseline: {e}"))?;
    validate_bench_json_inner(candidate).map_err(|e| format!("candidate: {e}"))?;
    let b = json_parse_inner(baseline).map_err(|e| format!("baseline: {e}"))?;
    let c = json_parse_inner(candidate).map_err(|e| format!("candidate: {e}"))?;
    let b_schema = bench_schema(&b).map_err(|e| format!("baseline: {e}"))?;
    let c_schema = bench_schema(&c).map_err(|e| format!("candidate: {e}"))?;
    if b_schema != c_schema {
        return Err(format!(
            "runs are not comparable: schema differs (baseline {b_schema:?}, candidate {c_schema:?})"
        ));
    }
    if b_schema == SCALING_SCHEMA {
        return compare_scaling_inner(&b, &c, check_wall);
    }
    if b_schema == PACKS_SCHEMA {
        return compare_packs_inner(&b, &c);
    }
    // Monitor documents compare on state budgets and degradation
    // counters; pipeline documents on study parameters and totals.
    let monitor = b_schema == MONITOR_SCHEMA;
    let comparability: &[&str] = if monitor {
        &["epoch_secs", "max_conns", "max_pending"]
    } else {
        &["scale", "seed", "threads", "shards"]
    };
    let exact: &[&str] = if monitor {
        &[
            "packets",
            "bytes",
            "epochs",
            "checkpoints",
            "peak_open_conns",
            "evicted_conns",
            "pending_dropped",
            "checkpoint_recoveries",
        ]
    } else {
        &["packets", "traces", "peak_open_conns"]
    };
    let mandatory: &[&str] = if monitor {
        &MONITOR_MANDATORY_STAGES
    } else {
        &MANDATORY_STAGES
    };
    let num = |doc: &JsonValue, key: &str| match doc.get(key).and_then(|v| v.as_f64()) {
        Some(v) => v,
        // Pre-sharding bench documents carry no "shards" key; every such
        // run was serial, so a missing key means the serial path (0).
        None if key == "shards" => 0.0,
        None => f64::NAN,
    };
    for &key in comparability {
        if num(&b, key) != num(&c, key) {
            return Err(format!(
                "runs are not comparable: {key:?} differs (baseline {}, candidate {})",
                num(&b, key),
                num(&c, key)
            ));
        }
    }
    let mut failures: Vec<String> = Vec::new();
    for &key in exact {
        if num(&b, key) != num(&c, key) {
            failures.push(format!(
                "{key} drifted: baseline {}, candidate {}",
                num(&b, key),
                num(&c, key)
            ));
        }
    }
    let b_stages = b.get("stages").ok_or("baseline: missing \"stages\"")?;
    let c_stages = c.get("stages").ok_or("candidate: missing \"stages\"")?;
    let mut total_wall = 0.0f64;
    for &name in mandatory {
        let stage = b_stages
            .get(name)
            .ok_or_else(|| format!("baseline: missing stage {name:?}"))?;
        total_wall += stat_fields(stage, name)?.0;
    }
    let mut report = format!(
        "{:<16} {:>12} {:>12} {:>7}  wall check\n",
        "stage", "base_us", "cand_us", "ratio"
    );
    for &name in mandatory {
        let bst = b_stages
            .get(name)
            .ok_or_else(|| format!("baseline: missing stage {name:?}"))?;
        let cst = c_stages
            .get(name)
            .ok_or_else(|| format!("candidate: missing stage {name:?}"))?;
        let (bw, be, bb) = stat_fields(bst, name)?;
        let (cw, ce, cb) = stat_fields(cst, name)?;
        if (be, bb) != (ce, cb) {
            failures.push(format!(
                "stage {name}: events/bytes drifted (baseline {be}/{bb}, candidate {ce}/{cb})"
            ));
        }
        let share = if total_wall > 0.0 { bw / total_wall } else { 0.0 };
        let ratio = if bw > 0.0 { cw / bw } else { f64::NAN };
        let verdict = if !check_wall {
            "waived"
        } else if share < WALL_SHARE_FLOOR {
            "below share floor"
        } else if ratio <= 1.0 + wall_tolerance {
            "ok"
        } else {
            failures.push(format!(
                "stage {name}: wall regressed {ratio:.2}x \
                 (baseline {bw:.0}us, candidate {cw:.0}us, tolerance +{:.0}%)",
                wall_tolerance * 100.0
            ));
            "REGRESSED"
        };
        report.push_str(&format!(
            "{name:<16} {bw:>12.1} {cw:>12.1} {ratio:>6.2}x  {verdict}\n"
        ));
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nonzero_metrics() -> PipelineMetrics {
        let mut m = PipelineMetrics {
            peak_open_conns: 5,
            trace_wall_ns: 7_000,
            traces: 1,
            ..Default::default()
        };
        m.generate.add(1_000, 10, 100);
        m.gen_synth.add(600, 12, 120);
        m.gen_sort.add(100, 10, 0);
        m.gen_tap.add(200, 10, 90);
        m.frame_parse.add(2_000, 10, 90);
        m.flow_ingest.add(3_000, 10, 100);
        m.tcp_deliver.add(500, 4, 40);
        m.udp_deliver.add(400, 3, 30);
        m.finalize.add(600, 2, 20);
        m.scanner_removal.add(100, 2, 0);
        m.analyzers.http.add(200, 2, 20);
        m
    }

    #[test]
    fn absorb_adds_counts_and_maxes_peak() {
        let mut a = nonzero_metrics();
        let mut b = nonzero_metrics();
        b.peak_open_conns = 3;
        b.flow_ingest.add(1_000, 5, 50);
        a.absorb(&b);
        assert_eq!(a.traces, 2);
        assert_eq!(a.flow_ingest.events, 25);
        assert_eq!(a.flow_ingest.bytes, 250);
        assert_eq!(a.peak_open_conns, 5); // max, not sum
        assert_eq!(a.trace_wall_ns, 14_000);
    }

    #[test]
    fn signature_ignores_wall_time() {
        let mut a = nonzero_metrics();
        let mut b = nonzero_metrics();
        b.flow_ingest.wall_ns += 999_999;
        b.trace_wall_ns += 123;
        assert_eq!(a.events_signature(), b.events_signature());
        a.flow_ingest.events += 1;
        assert_ne!(a.events_signature(), b.events_signature());
    }

    #[test]
    fn bench_json_roundtrips_and_validates() {
        let ctx = BenchContext {
            scale: 0.002,
            seed: 7,
            threads: 4,
            shards: 0,
            study_wall_ns: 5_000_000,
            datasets: vec![("D0".into(), 2, 3_000_000, 20, 2_000)],
        };
        let text = bench_json(&ctx, &nonzero_metrics());
        let summary = validate_bench_json(&text).expect("valid");
        assert_eq!(summary.packets, 10);
        assert_eq!(summary.traces, 1);
        assert_eq!(summary.stages.len(), MANDATORY_STAGES.len());
        // The parsed document agrees with the emitter field-for-field.
        let doc = json_parse(&text).expect("parse");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(BENCH_SCHEMA)
        );
        assert_eq!(
            doc.get("stages")
                .and_then(|s| s.get("tcp_deliver"))
                .and_then(|s| s.get("events"))
                .and_then(|v| v.as_f64()),
            Some(4.0)
        );
    }

    #[test]
    fn wall_and_rate_keys_agree_with_their_sources() {
        let ctx = BenchContext {
            scale: 0.002,
            seed: 7,
            threads: 4,
            shards: 0,
            study_wall_ns: 5_000_000,
            datasets: vec![("D0".into(), 2, 3_000_000, 20, 2_000)],
        };
        let m = nonzero_metrics();
        let doc = json_parse(&bench_json(&ctx, &m)).expect("parse");
        let num = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("missing numeric key {key:?}"))
        };
        // "study_wall_us" is the study's elapsed wall; "worker_wall_us"
        // the summed per-trace worker wall — emitted in microseconds.
        assert!((num("study_wall_us") - ctx.study_wall_ns as f64 / 1e3).abs() < 1e-6);
        assert!((num("worker_wall_us") - m.trace_wall_ns as f64 / 1e3).abs() < 1e-6);
        // "packets_per_sec" / "bytes_per_sec" are throughput over worker
        // wall time, consistent with the emitted packet and byte totals.
        let worker_secs = m.trace_wall_ns as f64 / 1e9;
        assert!((num("packets_per_sec") - m.packets() as f64 / worker_secs).abs() < 0.1);
        assert!((num("bytes_per_sec") - m.bytes() as f64 / worker_secs).abs() < 0.1);
    }

    #[test]
    fn validation_rejects_zeroed_mandatory_stage() {
        let ctx = BenchContext {
            scale: 0.002,
            seed: 7,
            threads: 1,
            shards: 0,
            study_wall_ns: 1_000,
            datasets: Vec::new(),
        };
        let mut m = nonzero_metrics();
        m.udp_deliver = StageStat::default();
        let text = bench_json(&ctx, &m);
        let err = validate_bench_json(&text).expect_err("zero stage must fail");
        assert!(err.message().contains("udp_deliver"), "{err}");
        // Wrong schema string also fails.
        let bad = text.replace(BENCH_SCHEMA, "something-else/9");
        assert!(validate_bench_json(&bad)
            .expect_err("schema mismatch")
            .message()
            .contains("schema mismatch"));
    }

    fn bench_doc(m: &PipelineMetrics) -> String {
        let ctx = BenchContext {
            scale: 0.01,
            seed: 2005,
            threads: 1,
            shards: 0,
            study_wall_ns: 9_000_000,
            datasets: vec![("D0".into(), 2, 3_000_000, 20, 2_000)],
        };
        bench_json(&ctx, m)
    }

    #[test]
    fn compare_accepts_identical_and_faster_runs() {
        let base = bench_doc(&nonzero_metrics());
        let report = compare_bench_json(&base, &base, 0.25, true).expect("identical run passes");
        assert!(report.contains("flow_ingest"), "{report}");
        // Faster is always fine (one-sided check).
        let mut fast = nonzero_metrics();
        fast.flow_ingest.wall_ns /= 2;
        compare_bench_json(&base, &bench_doc(&fast), 0.25, true).expect("faster run passes");
    }

    #[test]
    fn compare_rejects_event_drift_even_with_waiver() {
        let base = bench_doc(&nonzero_metrics());
        let mut drifted = nonzero_metrics();
        drifted.tcp_deliver.events += 1;
        let err = compare_bench_json(&base, &bench_doc(&drifted), 0.25, false)
            .expect_err("event drift must fail even when wall is waived");
        assert!(err.message().contains("tcp_deliver"), "{err}");
        assert!(err.message().contains("drifted"), "{err}");
    }

    #[test]
    fn compare_gates_wall_one_sided_with_share_floor_and_waiver() {
        let base = bench_doc(&nonzero_metrics());
        // A big stage regressing past tolerance fails...
        let mut slow = nonzero_metrics();
        slow.flow_ingest.wall_ns *= 2;
        let err = compare_bench_json(&base, &bench_doc(&slow), 0.25, true)
            .expect_err("2x regression on a dominant stage must fail");
        assert!(err.message().contains("flow_ingest") && err.message().contains("regressed"), "{err}");
        // ...unless the waiver is on (determinism half still enforced).
        compare_bench_json(&base, &bench_doc(&slow), 0.25, false).expect("waiver skips wall");
        // A stage below the share floor may regress wildly without failing.
        let mut noisy = nonzero_metrics();
        noisy.scanner_removal.wall_ns *= 20;
        let report = compare_bench_json(&base, &bench_doc(&noisy), 0.25, true)
            .expect("sub-floor stage noise is not a failure");
        assert!(report.contains("below share floor"), "{report}");
    }

    #[test]
    fn compare_refuses_mismatched_run_parameters() {
        let base = bench_doc(&nonzero_metrics());
        let other = base.replace("\"seed\": 2005", "\"seed\": 7");
        let err = compare_bench_json(&base, &other, 0.25, true).expect_err("seed mismatch");
        assert!(err.message().contains("not comparable"), "{err}");
    }

    fn monitor_doc(m: &PipelineMetrics, ctx: &MonitorBenchContext) -> String {
        monitor_bench_json(ctx, m)
    }

    fn monitor_metrics() -> PipelineMetrics {
        let mut m = nonzero_metrics();
        m.epoch_rotate.add(300, 4, 6);
        m.checkpoint.add(900, 3, 0);
        m.backpressure.add(50, 2, 0);
        m
    }

    fn monitor_ctx() -> MonitorBenchContext {
        MonitorBenchContext {
            epoch_secs: 300,
            max_conns: 4_096,
            max_pending: 8,
            epochs: 4,
            checkpoints: 3,
            evicted_conns: 1,
            pending_dropped: 1,
            checkpoint_recoveries: 0,
        }
    }

    #[test]
    fn monitor_bench_json_roundtrips_and_validates() {
        let text = monitor_doc(&monitor_metrics(), &monitor_ctx());
        let summary = validate_bench_json(&text).expect("valid monitor doc");
        assert_eq!(summary.packets, 10);
        assert_eq!(summary.traces, 4); // epochs echo through the traces slot
        assert_eq!(summary.stages.len(), MONITOR_MANDATORY_STAGES.len());
        // A monitor run without checkpoints fails the rot check.
        let mut no_ckpt = monitor_metrics();
        no_ckpt.checkpoint = StageStat::default();
        let err = validate_bench_json(&monitor_doc(&no_ckpt, &monitor_ctx()))
            .expect_err("zero checkpoint stage");
        assert!(err.message().contains("checkpoint"), "{err}");
    }

    #[test]
    fn idle_delivery_stages_pass_only_when_no_analyzer_ran() {
        // A header-only capture: no delivery, no analyzer events.
        let mut header_only = monitor_metrics();
        header_only.tcp_deliver = StageStat::default();
        header_only.udp_deliver = StageStat::default();
        header_only.analyzers = Default::default();
        validate_bench_json(&monitor_doc(&header_only, &monitor_ctx()))
            .expect("idle delivery on a header-only capture");
        validate_bench_json(&bench_doc(&header_only)).expect("same rule for study docs");
        // Idle delivery while an analyzer counted events is rot.
        let mut orphan = header_only;
        orphan.analyzers.http.add(200, 2, 20);
        let err = validate_bench_json(&monitor_doc(&orphan, &monitor_ctx())).expect_err("orphan");
        assert!(err.message().contains("tcp_deliver"), "{err}");
        // Events without wall time is rot, idle or not.
        let mut no_wall = header_only;
        no_wall.tcp_deliver.events = 4;
        let err = validate_bench_json(&monitor_doc(&no_wall, &monitor_ctx())).expect_err("no wall");
        assert!(err.message().contains("zero wall time"), "{err}");
        // Only delivery stages may idle.
        let mut idle_finalize = header_only;
        idle_finalize.finalize = StageStat::default();
        let err = validate_bench_json(&monitor_doc(&idle_finalize, &monitor_ctx()))
            .expect_err("idle finalize");
        assert!(err.message().contains("finalize"), "{err}");
    }

    #[test]
    fn monitor_compare_gates_state_budgets_and_degradation_counters() {
        let base = monitor_doc(&monitor_metrics(), &monitor_ctx());
        compare_bench_json(&base, &base, 0.25, true).expect("identical monitor runs pass");
        // A leak shows up as peak_open_conns drift — hard failure.
        let mut leaky = monitor_metrics();
        leaky.peak_open_conns += 100;
        let err = compare_bench_json(&base, &monitor_doc(&leaky, &monitor_ctx()), 0.25, false)
            .expect_err("peak drift must fail even with wall waived");
        assert!(err.message().contains("peak_open_conns"), "{err}");
        // Unaccounted drops drift the degradation counters — hard failure.
        let mut dropping = monitor_ctx();
        dropping.pending_dropped += 5;
        let err = compare_bench_json(&base, &monitor_doc(&monitor_metrics(), &dropping), 0.25, true)
            .expect_err("pending_dropped drift");
        assert!(err.message().contains("pending_dropped"), "{err}");
        // Different budgets are not comparable at all.
        let mut other_budget = monitor_ctx();
        other_budget.max_conns = 64;
        let err =
            compare_bench_json(&base, &monitor_doc(&monitor_metrics(), &other_budget), 0.25, true)
                .expect_err("budget mismatch");
        assert!(err.message().contains("not comparable"), "{err}");
        // And a monitor doc never compares against a pipeline doc.
        let pipeline = bench_doc(&nonzero_metrics());
        let err = compare_bench_json(&pipeline, &base, 0.25, true).expect_err("schema mix");
        assert!(err.message().contains("schema differs"), "{err}");
    }

    #[test]
    fn json_parser_handles_the_emitted_subset() {
        let v = json_parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true, "e": null}"#)
            .expect("parse");
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Array(vec![
                JsonValue::Number(1.0),
                JsonValue::Number(2.5),
                JsonValue::Number(-300.0)
            ]))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(|c| c.as_str()),
            Some("x\ny")
        );
        assert!(json_parse("{\"a\": 1,}").is_err());
        assert!(json_parse("{\"a\": 1} trailing").is_err());
        assert!(json_parse("").is_err());
    }

    #[test]
    fn stage_timer_laps_are_monotone() {
        let mut t = StageTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = t.lap();
        assert!(b >= 2_000_000, "lap under sleep duration: {b}");
    }

    #[test]
    fn signature_excludes_peak_but_hash_tracks_counters() {
        // peak_open_conns legitimately varies with shard count (sum of
        // per-shard peaks vs the serial peak), so it must not be part of
        // the events signature...
        let a = nonzero_metrics();
        let mut b = nonzero_metrics();
        b.peak_open_conns += 100;
        assert_eq!(a.events_signature(), b.events_signature());
        assert_eq!(a.events_signature_hash(), b.events_signature_hash());
        // ...while any real counter drift must move the hash.
        b.analyzers.http.events += 1;
        assert_ne!(a.events_signature_hash(), b.events_signature_hash());
    }

    fn scaling_ctx() -> ScalingContext {
        let entry = |shards: usize, wall: u64| ScalingEntry {
            shards,
            ingest_wall_ns: wall,
            frame_parse_wall_ns: wall / 3,
            flow_ingest_wall_ns: wall / 2,
            packets: 1_000,
            traces: 10,
            peak_open_conns: if shards <= 1 { 40 } else { 40 + shards as u64 },
            signature_hash: 0xABCD_EF01_2345_6789,
        };
        ScalingContext {
            scale: 0.01,
            seed: 2005,
            threads: 1,
            cores: 8,
            floor: 1.6,
            entries: vec![
                entry(0, 900_000),
                entry(1, 1_000_000),
                entry(2, 600_000),
                entry(4, 400_000),
                entry(8, 350_000),
            ],
        }
    }

    #[test]
    fn scaling_json_roundtrips_and_gates_determinism() {
        let ctx = scaling_ctx();
        let text = scaling_bench_json(&ctx);
        let summary = validate_bench_json(&text).expect("valid scaling doc");
        assert_eq!(summary.packets, 1_000);
        assert_eq!(summary.traces, 10);
        assert_eq!(summary.stages.len(), 5);
        // The emitted wall keys round-trip from their nanosecond source
        // counters (pins the µs conversion and the key names themselves).
        let doc = json_parse(&text).expect("well-formed JSON");
        let Some(JsonValue::Array(entries)) = doc.get("entries") else {
            panic!("entries array missing");
        };
        for (src, out) in ctx.entries.iter().zip(entries) {
            let us = |key: &str| out.get(key).and_then(JsonValue::as_f64).expect("wall key");
            assert!((us("ingest_wall_us") - src.ingest_wall_ns as f64 / 1_000.0).abs() < 1e-6);
            assert!(
                (us("frame_parse_wall_us") - src.frame_parse_wall_ns as f64 / 1_000.0).abs() < 1e-6
            );
            assert!(
                (us("flow_ingest_wall_us") - src.flow_ingest_wall_ns as f64 / 1_000.0).abs() < 1e-6
            );
        }
        // A signature differing between entries is a determinism failure.
        let mut bad = scaling_ctx();
        bad.entries[2].signature_hash ^= 1;
        let err = validate_bench_json(&scaling_bench_json(&bad)).expect_err("sig drift");
        assert!(err.message().contains("determinism violation"), "{err}");
        // So is a packet-count mismatch between shard counts.
        let mut bad = scaling_ctx();
        bad.entries[3].packets += 1;
        let err = validate_bench_json(&scaling_bench_json(&bad)).expect_err("packet drift");
        assert!(err.message().contains("determinism violation"), "{err}");
        // Duplicate shard counts are rejected.
        let mut bad = scaling_ctx();
        bad.entries[4].shards = 4;
        let err = validate_bench_json(&scaling_bench_json(&bad)).expect_err("dup shards");
        assert!(err.message().contains("duplicate"), "{err}");
    }

    #[test]
    fn scaling_compare_enforces_floor_on_capable_machines_only() {
        let base = scaling_bench_json(&scaling_ctx());
        let report = compare_bench_json(&base, &base, 0.25, true).expect("identical passes");
        assert!(report.contains("4-shard speedup 2.50x"), "{report}");
        // Candidate misses the floor on an 8-core machine: hard failure.
        let mut slow = scaling_ctx();
        slow.entries[3].ingest_wall_ns = 900_000; // 1.11x over 1-shard
        let err = compare_bench_json(&base, &scaling_bench_json(&slow), 0.25, true)
            .expect_err("floor miss on capable machine");
        assert!(err.message().contains("scaling floor missed"), "{err}");
        // The identical miss on a single-core machine only gates
        // determinism — walls are meaningless there.
        let mut single = slow.clone();
        single.cores = 1;
        let report = compare_bench_json(&base, &scaling_bench_json(&single), 0.25, true)
            .expect("single-core machine waives the floor");
        assert!(report.contains("determinism only"), "{report}");
        // The explicit waiver flag does the same on any machine.
        compare_bench_json(&base, &scaling_bench_json(&slow), 0.25, false)
            .expect("ENT_BENCH_WAIVER skips the floor");
        // Cross-document signature drift fails even with the waiver.
        let mut drift = scaling_ctx();
        for e in &mut drift.entries {
            e.signature_hash ^= 0xFF;
        }
        let err = compare_bench_json(&base, &scaling_bench_json(&drift), 0.25, false)
            .expect_err("signature drift");
        assert!(err.message().contains("signature drifted"), "{err}");
        // Per-entry peak drift is a hard failure too.
        let mut peaky = scaling_ctx();
        peaky.entries[4].peak_open_conns += 1;
        let err = compare_bench_json(&base, &scaling_bench_json(&peaky), 0.25, false)
            .expect_err("peak drift");
        assert!(err.message().contains("peak_open_conns"), "{err}");
        // Different shard lists are not comparable at all.
        let mut fewer = scaling_ctx();
        fewer.entries.pop();
        let err = compare_bench_json(&base, &scaling_bench_json(&fewer), 0.25, true)
            .expect_err("shard list mismatch");
        assert!(err.message().contains("shard-count lists"), "{err}");
    }

    fn packs_ctx() -> PacksBenchContext {
        let entry = |name: &str, scan_sources: u64, tp: u64, fp: u64, fnn: u64, nt: f64, t: f64| {
            let (precision, recall) = (
                if tp + fp == 0 { 1.0 } else { tp as f64 / (tp + fp) as f64 },
                if tp + fnn == 0 { 1.0 } else { tp as f64 / (tp + fnn) as f64 },
            );
            PackBenchEntry {
                name: name.into(),
                traces: 2,
                packets: 5_000,
                attack_packets: if scan_sources > 0 { 130 } else { 0 },
                scan_sources,
                flagged: tp + fp,
                true_pos: tp,
                false_pos: fp,
                false_neg: fnn,
                precision,
                recall,
                f1: 2.0 * precision * recall / (precision + recall),
                entropy_nontemporal: nt,
                entropy_temporal: t,
            }
        };
        PacksBenchContext {
            scale: 0.01,
            seed: 2005,
            threads: 1,
            shards: 0,
            precision_floor: 0.9,
            recall_floor: 0.9,
            packs: vec![
                entry("base", 4, 8, 0, 0, 9.1, 3.2),
                entry("sweep", 6, 12, 0, 1, 9.4, 3.5),
                entry("synflood", 4, 8, 0, 0, 9.2, 3.1),
            ],
        }
    }

    #[test]
    fn packs_json_roundtrips_and_gates_scoring() {
        let ctx = packs_ctx();
        let text = packs_bench_json(&ctx);
        let summary = validate_bench_json(&text).expect("valid packs doc");
        assert_eq!(summary.packets, 15_000);
        assert_eq!(summary.traces, 6);
        assert_eq!(summary.stages.len(), 3);
        // Every emitted key parses back numerically (pins the key names
        // and the confusion-matrix/entropy field layout).
        let doc = json_parse(&text).expect("well-formed JSON");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(PACKS_SCHEMA));
        for key in ["scale", "seed", "threads", "shards", "precision_floor", "recall_floor"] {
            assert!(doc.get(key).and_then(JsonValue::as_f64).is_some(), "{key}");
        }
        let Some(JsonValue::Array(packs)) = doc.get("packs") else {
            panic!("packs array missing");
        };
        let sweep = packs
            .iter()
            .find(|p| p.get("name").and_then(|v| v.as_str()) == Some("sweep"))
            .expect("sweep entry");
        let num = |key: &str| sweep.get(key).and_then(JsonValue::as_f64).expect("pack key");
        assert_eq!(num("traces"), 2.0);
        assert_eq!(num("packets"), 5_000.0);
        assert_eq!(num("attack_packets"), 130.0);
        assert_eq!(num("scan_sources"), 6.0);
        assert_eq!(num("flagged"), 12.0);
        assert_eq!(num("true_pos"), 12.0);
        assert_eq!(num("false_pos"), 0.0);
        assert_eq!(num("false_neg"), 1.0);
        assert_eq!(num("precision"), 1.0);
        assert!((num("recall") - 12.0 / 13.0).abs() < 1e-6);
        assert!(num("f1") > 0.9 && num("f1") < 1.0);
        assert!((num("entropy_nontemporal") - 9.4).abs() < 1e-9);
        assert!((num("entropy_temporal") - 3.5).abs() < 1e-9);
    }

    #[test]
    fn packs_validation_enforces_floors_base_and_entropy_separation() {
        // Recall below the floor on a pack with labeled scan sources.
        let mut low = packs_ctx();
        low.packs[1].recall = 0.5;
        let err = validate_bench_json(&packs_bench_json(&low)).expect_err("recall floor");
        assert!(err.message().contains("below floor"), "{err}");
        // Precision below the floor on a pack that flagged connections.
        let mut fp = packs_ctx();
        fp.packs[2].precision = 0.2;
        let err = validate_bench_json(&packs_bench_json(&fp)).expect_err("precision floor");
        assert!(err.message().contains("flagging benign"), "{err}");
        // A pack whose entropy pair equals base injected nothing.
        let mut flat = packs_ctx();
        flat.packs[2].entropy_nontemporal = flat.packs[0].entropy_nontemporal;
        flat.packs[2].entropy_temporal = flat.packs[0].entropy_temporal;
        let err = validate_bench_json(&packs_bench_json(&flat)).expect_err("entropy overlap");
        assert!(err.message().contains("indistinguishable"), "{err}");
        // No base entry, no anchor.
        let mut unanchored = packs_ctx();
        unanchored.packs.remove(0);
        let err = validate_bench_json(&packs_bench_json(&unanchored)).expect_err("no base");
        assert!(err.message().contains("\"base\""), "{err}");
        // Duplicate pack names are rejected.
        let mut dup = packs_ctx();
        dup.packs[2].name = "sweep".into();
        dup.packs[2].entropy_nontemporal = 9.4;
        dup.packs[2].entropy_temporal = 3.5;
        let err = validate_bench_json(&packs_bench_json(&dup)).expect_err("dup names");
        assert!(err.message().contains("duplicate"), "{err}");
        // Vacuous packs (nothing labeled, nothing flagged) pass floors.
        let mut quiet = packs_ctx();
        quiet.packs[2].scan_sources = 0;
        quiet.packs[2].flagged = 0;
        quiet.packs[2].true_pos = 0;
        quiet.packs[2].false_pos = 0;
        quiet.packs[2].false_neg = 0;
        quiet.packs[2].precision = 0.0;
        quiet.packs[2].recall = 0.0;
        quiet.packs[2].f1 = 0.0;
        validate_bench_json(&packs_bench_json(&quiet)).expect("vacuous pack passes");
    }

    #[test]
    fn packs_compare_gates_counts_exactly_and_rates_nearly() {
        let base = packs_bench_json(&packs_ctx());
        let report = compare_bench_json(&base, &base, 0.25, true).expect("identical passes");
        assert!(report.contains("sweep"), "{report}");
        assert!(report.contains("ok"), "{report}");
        // A one-count confusion-matrix drift is a hard failure.
        let mut drift = packs_ctx();
        drift.packs[1].true_pos += 1;
        drift.packs[1].false_neg -= 1;
        let err = compare_bench_json(&base, &packs_bench_json(&drift), 0.25, true)
            .expect_err("count drift");
        assert!(err.message().contains("true_pos drifted"), "{err}");
        // Entropy drift beyond the libm tolerance fails...
        let mut edrift = packs_ctx();
        edrift.packs[2].entropy_temporal += 1e-3;
        let err = compare_bench_json(&base, &packs_bench_json(&edrift), 0.25, true)
            .expect_err("entropy drift");
        assert!(err.message().contains("entropy_temporal drifted"), "{err}");
        // ...but a last-ulp wobble within the tolerance does not.
        let mut wobble = packs_ctx();
        wobble.packs[2].entropy_temporal += 1e-10;
        compare_bench_json(&base, &packs_bench_json(&wobble), 0.25, true)
            .expect("sub-tolerance wobble passes");
        // Different rosters are not comparable at all.
        let mut fewer = packs_ctx();
        fewer.packs.pop();
        let err = compare_bench_json(&base, &packs_bench_json(&fewer), 0.25, true)
            .expect_err("roster mismatch");
        assert!(err.message().contains("rosters differ"), "{err}");
        // Different floors are a different gate configuration.
        let mut floored = packs_ctx();
        floored.recall_floor = 0.5;
        let err = compare_bench_json(&base, &packs_bench_json(&floored), 0.25, true)
            .expect_err("floor mismatch");
        assert!(err.message().contains("recall_floor"), "{err}");
    }

    #[test]
    fn pipeline_compare_treats_missing_shards_as_serial() {
        let base = bench_doc(&nonzero_metrics());
        // A pre-sharding baseline has no "shards" key at all; it was a
        // serial run, so it stays comparable to a shards=0 candidate.
        let legacy = base.replace("  \"shards\": 0,\n", "");
        assert!(!legacy.contains("\"shards\""));
        compare_bench_json(&legacy, &base, 0.25, true).expect("legacy baseline comparable");
        // But a sharded candidate is a different configuration.
        let sharded = base.replace("\"shards\": 0", "\"shards\": 4");
        let err = compare_bench_json(&base, &sharded, 0.25, true).expect_err("shard mismatch");
        assert!(err.message().contains("not comparable"), "{err}");
    }
}
