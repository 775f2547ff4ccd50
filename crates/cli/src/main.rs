//! `entreport` — end-to-end reproduction driver.
//!
//! Subcommands:
//! * `study`     — generate all five datasets, run every analysis, print
//!   every table and figure of the paper (optionally export CSVs).
//! * `generate`  — write one synthetic trace as a pcap file.
//! * `analyze`   — analyze a pcap file (ours or any Ethernet capture).
//! * `monitor`   — resident monitor mode: stream a capture through the
//!   pipeline emitting rolling per-epoch reports, with optional
//!   crash-safe checkpoints and bounded-state budgets.
//! * `anonymize` — prefix-preserving anonymization of a pcap file.
//! * `packs`     — run the labeled scenario packs (base mix plus
//!   adversarial and modern-variant actors), score scanner removal
//!   against the ground-truth labels (precision/recall/F1), measure
//!   per-pack trace complexity (header-symbol entropy), and export the
//!   `ent-bench-packs/1` scoring document (`BENCH_packs.json`).
//! * `obs-check` — validate a bench export (pipeline, monitor or packs
//!   schema).
//! * `bench-compare` — gate a candidate bench export against a committed
//!   baseline (exact event/byte equality, one-sided wall tolerance).
//!
//! Every subcommand accepts a fixed set of flags: an unknown flag, a flag
//! missing its value, or a value that does not parse is a usage error
//! (exit 2), never a silent fall back to the default.
#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use ent_core::metrics::{
    bench_json, compare_bench_json, monitor_bench_json, packs_bench_json, validate_bench_json,
    BenchContext, MonitorBenchContext, PackBenchEntry, PacksBenchContext,
};
use ent_core::run::{run_datasets, StudyConfig};
use ent_core::{run_pack, PackStudyConfig};
use ent_core::study::build_report;
use ent_core::{
    capture_meta, drive_capture, Checkpoint, Monitor, MonitorConfig, PipelineConfig,
    PipelineMetrics,
};
use ent_gen::build::{build_site, generate_trace};
use ent_gen::dataset::{all_datasets, dataset};
use ent_gen::GenConfig;
use ent_pcap::{Trace, TraceMeta};
use ent_wire::Timestamp;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::str::FromStr;

/// Unwrap a CLI-level result or exit with a message. Failures here are
/// user-environment errors (bad path, full disk, truncated file), not bugs.
fn or_die<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("entreport: {what}: {e}");
        std::process::exit(1);
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  entreport study [--scale S] [--seed N] [--hosts N] [--threads N] [--datasets D0,D3] [--only 'table 9'] [--csv-dir DIR] [--keep-scanners] [--bench-json FILE.json]
  entreport packs [--scale S] [--seed N] [--hosts N] [--threads N] [--packs base,sweep] [--precision-floor 0.9] [--recall-floor 0.9] [--out FILE.json]
  entreport generate --dataset D0 --subnet 3 [--pass 1] [--scale S] [--seed N] [--hosts N] --out FILE.pcap
  entreport analyze FILE.pcap [--subnet N] [--name D0]
  entreport monitor FILE.pcap [--epoch-secs 300] [--checkpoint FILE.ckpt] [--max-conns N] [--max-pending N] [--stop-after-epochs N] [--name NAME] [--keep-scanners] [--bench-json FILE.json]
  entreport anonymize IN.pcap OUT.pcap --key SEED
  entreport obs-check FILE.json
  entreport bench-compare BASELINE.json CANDIDATE.json [--tolerance 0.25]"
    );
    ExitCode::from(2)
}

/// A command-line mistake: reported with the usage text, exit status 2.
#[derive(Debug)]
struct UsageError(String);

/// One subcommand: its handler and the flags it accepts (`flags` take a
/// value, `switches` stand alone).
struct Command {
    run: fn(&Args) -> Result<ExitCode, UsageError>,
    flags: &'static [&'static str],
    switches: &'static [&'static str],
}

/// The subcommand called `name`, or `None` for an unknown one.
fn command(name: &str) -> Option<Command> {
    type Entry = (
        fn(&Args) -> Result<ExitCode, UsageError>,
        &'static [&'static str],
        &'static [&'static str],
    );
    let (run, flags, switches): Entry = match name {
        "study" => (
            cmd_study,
            &["scale", "seed", "hosts", "threads", "datasets", "only", "csv-dir", "bench-json"],
            &["keep-scanners"],
        ),
        "packs" => (
            cmd_packs,
            &["scale", "seed", "hosts", "threads", "packs", "precision-floor", "recall-floor", "out"],
            &[],
        ),
        "generate" => (
            cmd_generate,
            &["scale", "seed", "hosts", "dataset", "subnet", "pass", "out"],
            &[],
        ),
        "analyze" => (cmd_analyze, &["subnet", "name"], &[]),
        "monitor" => (
            cmd_monitor,
            &[
                "epoch-secs", "checkpoint", "max-conns", "max-pending", "stop-after-epochs",
                "name", "bench-json",
            ],
            &["keep-scanners"],
        ),
        "anonymize" => (cmd_anonymize, &["key"], &[]),
        "obs-check" => (cmd_obs_check, &[], &[]),
        "bench-compare" => (cmd_bench_compare, &["tolerance"], &[]),
        _ => return None,
    };
    Some(Command { run, flags, switches })
}

#[derive(Debug)]
struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

impl Args {
    /// The value of `--name` parsed as `T`: `None` when the flag is absent,
    /// a usage error when its value does not parse.
    fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, UsageError> {
        self.flags
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| UsageError(format!("bad value {v:?} for --{name}")))
            })
            .transpose()
    }
}

/// Split `raw` into positionals, valued flags and switches, rejecting any
/// flag `command` does not list and any valued flag without a value.
fn parse_args(raw: &[String], command: &Command) -> Result<Args, UsageError> {
    let mut a = Args {
        positional: Vec::new(),
        flags: Default::default(),
        switches: Default::default(),
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            a.positional.push(arg.clone());
            continue;
        };
        if command.switches.contains(&name) {
            a.switches.insert(name.to_string());
        } else if command.flags.contains(&name) {
            let value = it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| UsageError(format!("--{name} needs a value")))?;
            a.flags.insert(name.to_string(), value.clone());
        } else {
            return Err(UsageError(format!("unknown flag --{name}")));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        return usage();
    };
    let Some(command) = command(cmd) else {
        return usage();
    };
    match parse_args(rest, &command).and_then(|args| (command.run)(&args)) {
        Ok(code) => code,
        Err(UsageError(msg)) => {
            eprintln!("entreport {cmd}: {msg}");
            usage()
        }
    }
}

fn gen_config(args: &Args) -> Result<GenConfig, UsageError> {
    Ok(GenConfig {
        scale: args.value("scale")?.unwrap_or(0.01),
        seed: args.value("seed")?.unwrap_or(1),
        hosts_per_subnet: args.value("hosts")?,
    })
}

fn cmd_study(args: &Args) -> Result<ExitCode, UsageError> {
    let config = StudyConfig {
        gen: gen_config(args)?,
        pipeline: PipelineConfig {
            keep_scanners: args.switches.contains("keep-scanners"),
            ..Default::default()
        },
        threads: args.value("threads")?.unwrap_or(0),
    };
    let wanted: Option<Vec<String>> = args
        .flags
        .get("datasets")
        .map(|s| s.split(',').map(|x| x.trim().to_string()).collect());
    let specs: Vec<_> = all_datasets()
        .into_iter()
        .filter(|d| {
            wanted
                .as_ref()
                .map(|w| w.iter().any(|x| x == d.name))
                .unwrap_or(true)
        })
        .collect();
    eprintln!(
        "running study: scale={} seed={} datasets={:?}",
        config.gen.scale,
        config.gen.seed,
        specs.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    // One global work queue across every dataset: no worker idles at a
    // dataset boundary waiting for the previous dataset's stragglers.
    let t0 = std::time::Instant::now();
    let studies = run_datasets(&specs, &config);
    let study_wall_ns = t0.elapsed().as_nanos() as u64;
    let mut total = PipelineMetrics::default();
    for da in &studies {
        let m = da.pipeline_metrics();
        eprintln!(
            "  {}: {} traces, {} packets, {:.1}s worker time",
            da.spec.name,
            da.traces.len(),
            m.packets(),
            m.trace_wall_ns as f64 / 1e9
        );
        total.absorb(&m);
    }
    eprintln!(
        "study wall {:.1}s ({:.0} packets/s worker throughput)",
        study_wall_ns as f64 / 1e9,
        total.packets_per_sec()
    );
    let mut report = build_report(&studies);
    if let Some(only) = args.flags.get("only") {
        let needle = only.to_ascii_lowercase();
        report
            .tables
            .retain(|t| t.title.to_ascii_lowercase().contains(&needle));
        report
            .figures
            .retain(|f| f.title.to_ascii_lowercase().contains(&needle));
        report
            .notes
            .retain(|n| n.to_ascii_lowercase().contains(&needle));
    }
    println!("{}", report.render());
    if !args.flags.contains_key("only") {
        println!("{}", total.stage_table("Pipeline stage metrics (study total)").render());
    }
    if let Some(path) = args.flags.get("bench-json") {
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            config.threads
        };
        let ctx = BenchContext {
            scale: config.gen.scale,
            seed: config.gen.seed,
            threads,
            study_wall_ns,
            datasets: studies
                .iter()
                .map(|da| {
                    let m = da.pipeline_metrics();
                    (
                        da.spec.name.to_string(),
                        da.traces.len() as u64,
                        m.trace_wall_ns,
                        m.packets(),
                        m.bytes(),
                    )
                })
                .collect(),
        };
        let doc = bench_json(&ctx, &total);
        or_die(validate_bench_json(&doc), "bench json self-check");
        or_die(std::fs::write(path, &doc), "write bench json");
        eprintln!("pipeline metrics written to {path}");
    }
    if let Some(dir) = args.flags.get("csv-dir") {
        or_die(std::fs::create_dir_all(dir), "create csv dir");
        for t in &report.tables {
            let fname = slug(&t.title);
            or_die(std::fs::write(format!("{dir}/{fname}.csv"), t.to_csv()), "write csv");
        }
        for f in &report.figures {
            let fname = slug(&f.title);
            or_die(std::fs::write(format!("{dir}/{fname}.csv"), f.to_csv(64)), "write csv");
        }
        eprintln!("CSV exports written to {dir}/");
    }
    Ok(ExitCode::SUCCESS)
}

fn slug(title: &str) -> String {
    title
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect::<String>()
        .trim_matches('_')
        .chars()
        .take(48)
        .collect()
}

/// Default precision floor for the pack scoring gate: of the connections
/// scanner removal flags, at least this share must belong to a labeled
/// scan source (attack actors built to *evade* the heuristic — floods,
/// brute force, exfiltration — must not be misflagged as scanners).
const PACK_PRECISION_FLOOR: f64 = 0.9;

/// Default recall floor for the pack scoring gate: at least this share of
/// a pack's labeled scan-source connections must be flagged.
const PACK_RECALL_FLOOR: f64 = 0.9;

/// Run every scenario pack (or a `--packs` subset; `base` is always
/// included — it is the scoring anchor), score scanner removal against
/// the generator's ground-truth labels, and export the scored document as
/// `ent-bench-packs/1`. The built-in self-check is the scoring gate:
/// precision/recall floors per pack, plus per-pack header entropy that
/// must be distinguishable from the base mix. Defaults are the gate
/// configuration: scale 0.01, seed 2005, 1 worker thread.
fn cmd_packs(args: &Args) -> Result<ExitCode, UsageError> {
    let mut gen = gen_config(args)?;
    if !args.flags.contains_key("seed") {
        gen.seed = 2005; // the pack gate's seed, not `study`'s default
    }
    let threads: usize = args.value("threads")?.unwrap_or(1);
    let precision_floor: f64 = args.value("precision-floor")?.unwrap_or(PACK_PRECISION_FLOOR);
    let recall_floor: f64 = args.value("recall-floor")?.unwrap_or(PACK_RECALL_FLOOR);
    let wanted: Option<Vec<String>> = args
        .flags
        .get("packs")
        .map(|s| s.split(',').map(|x| x.trim().to_string()).collect());
    let names: Vec<&str> = ent_gen::PACK_NAMES
        .iter()
        .copied()
        .filter(|n| {
            *n == "base"
                || wanted
                    .as_ref()
                    .map(|w| w.iter().any(|x| x == n))
                    .unwrap_or(true)
        })
        .collect();
    let config = PackStudyConfig {
        gen,
        pipeline: PipelineConfig::default(),
        threads,
    };
    eprintln!(
        "scenario packs: scale={} seed={} threads={threads} packs={names:?}",
        gen.scale, gen.seed
    );
    println!(
        "{:<10} {:>7} {:>9} {:>8} {:>8} {:>5} {:>5} {:>5} {:>7} {:>7} {:>7} {:>9} {:>9}",
        "pack", "traces", "packets", "attack", "sources", "tp", "fp", "fn", "prec",
        "recall", "f1", "H(sym)", "H(pair)"
    );
    let mut entries = Vec::new();
    for name in names {
        let Some(pack) = ent_gen::packs::pack(name) else {
            return Err(UsageError(format!(
                "unknown pack {name:?} (want one of {:?})",
                ent_gen::PACK_NAMES
            )));
        };
        let report = run_pack(&pack, &config);
        println!(
            "{:<10} {:>7} {:>9} {:>8} {:>8} {:>5} {:>5} {:>5} {:>7.4} {:>7.4} {:>7.4} {:>9.4} {:>9.4}",
            report.name,
            report.traces,
            report.packets,
            report.attack_packets,
            report.scan_sources,
            report.score.true_pos,
            report.score.false_pos,
            report.score.false_neg,
            report.score.precision(),
            report.score.recall(),
            report.score.f1(),
            report.entropy_nontemporal,
            report.entropy_temporal,
        );
        entries.push(PackBenchEntry {
            name: report.name.clone(),
            traces: report.traces,
            packets: report.packets,
            attack_packets: report.attack_packets,
            scan_sources: report.scan_sources,
            flagged: report.flagged,
            true_pos: report.score.true_pos,
            false_pos: report.score.false_pos,
            false_neg: report.score.false_neg,
            precision: report.score.precision(),
            recall: report.score.recall(),
            f1: report.score.f1(),
            entropy_nontemporal: report.entropy_nontemporal,
            entropy_temporal: report.entropy_temporal,
        });
    }
    let ctx = PacksBenchContext {
        scale: gen.scale,
        seed: gen.seed,
        threads,
        precision_floor,
        recall_floor,
        packs: entries,
    };
    let doc = packs_bench_json(&ctx);
    // The self-check is the scoring gate: it fails if any pack misses a
    // floor or an adversarial pack is indistinguishable from base.
    or_die(validate_bench_json(&doc), "pack scoring self-check");
    match args.flags.get("out") {
        Some(path) => {
            or_die(std::fs::write(path, &doc), "write packs json");
            eprintln!("pack scores written to {path}");
        }
        None => print!("{doc}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_generate(args: &Args) -> Result<ExitCode, UsageError> {
    let Some(name) = args.flags.get("dataset") else {
        return Err(UsageError("--dataset is required".into()));
    };
    let Some(spec) = dataset(name) else {
        return Err(UsageError(format!("unknown dataset {name} (use D0..D4)")));
    };
    let subnet: u16 = args.value("subnet")?.unwrap_or(spec.monitored.start);
    let pass: u8 = args.value("pass")?.unwrap_or(1);
    let Some(out) = args.flags.get("out") else {
        return Err(UsageError("--out is required".into()));
    };
    let config = gen_config(args)?;
    let (site, wan) = build_site(&spec, &config);
    let trace = generate_trace(&site, &wan, &spec, subnet, pass, &config);
    let f = or_die(File::create(out), "create output file");
    or_die(trace.write_pcap(BufWriter::new(f)), "write pcap");
    eprintln!(
        "wrote {}: {} packets, {} wire bytes, snaplen {}",
        out,
        trace.packets.len(),
        trace.wire_bytes(),
        trace.meta.snaplen
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_analyze(args: &Args) -> Result<ExitCode, UsageError> {
    let Some(path) = args.positional.first() else {
        return Err(UsageError("missing capture path".into()));
    };
    let subnet = args.value("subnet")?.unwrap_or(0);
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let meta = TraceMeta {
        dataset: args
            .flags
            .get("name")
            .map(|s| s.as_str().into())
            .unwrap_or_else(|| "pcap".into()),
        subnet,
        pass: 1,
        duration: Timestamp::from_secs(3_600),
        snaplen: 1500,
        link_capacity_bps: 100_000_000,
    };
    // Salvage everything readable from a possibly damaged capture; only an
    // unusable global header is fatal.
    let (mut trace, capture_stats) = match Trace::read_pcap_recovering(&data, meta) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {}", ent_core::AnalysisError::from(e));
            return Ok(ExitCode::FAILURE);
        }
    };
    // Size the utilization bins to the capture's actual span. Binning is
    // relative to the first packet wherever its clock starts (epoch or
    // zero), so timestamps themselves need no rewriting.
    if let (Some(first), Some(last)) = (
        trace.packets.first().map(|p| p.ts),
        trace.packets.last().map(|p| p.ts),
    ) {
        trace.meta.duration =
            Timestamp::from_micros(last.saturating_micros_since(first) + 1_000_000);
    }
    let mut a = ent_core::analyze_trace(&trace, &PipelineConfig::default());
    a.health.capture = capture_stats;
    println!(
        "trace: {} packets ({} IP, {} ARP, {} IPX, {} other)",
        a.packets, a.ip_packets, a.arp_packets, a.ipx_packets, a.other_l3_packets
    );
    println!("ingest health: {}", a.health);
    println!("connections: {}", a.conns.len());
    println!(
        "scanner sources removed: {:?} ({} conns)",
        a.scanners_removed, a.scanner_conns_removed
    );
    println!(
        "app records: http={} dns={} nbns={} cifs={} rpc={} nfs={} ncp={} tls={}",
        a.http.len(),
        a.dns.len(),
        a.nbns.len(),
        a.cifs.len(),
        a.rpc.len(),
        a.nfs.len(),
        a.ncp.len(),
        a.tls.len()
    );
    let mut by_cat: std::collections::HashMap<&str, (u64, u64)> = Default::default();
    for c in &a.conns {
        let e = by_cat.entry(c.category.label()).or_default();
        e.0 += 1;
        e.1 += c.payload_bytes();
    }
    let mut rows: Vec<_> = by_cat.into_iter().collect();
    rows.sort_by_key(|(_, (_, b))| std::cmp::Reverse(*b));
    println!("{:<14}{:>10}{:>14}", "category", "conns", "bytes");
    for (cat, (c, b)) in rows {
        println!("{cat:<14}{c:>10}{:>14}", ent_core::report::fmt_bytes(b));
    }
    println!();
    println!("{}", a.metrics.stage_table("Pipeline stage metrics").render());
    Ok(ExitCode::SUCCESS)
}

/// Validate a `BENCH_pipeline.json` export: schema identifier, required
/// fields, and nonzero wall time and events for every mandatory stage.
fn cmd_obs_check(args: &Args) -> Result<ExitCode, UsageError> {
    let Some(path) = args.positional.first() else {
        return Err(UsageError("missing bench document path".into()));
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    Ok(match validate_bench_json(&text) {
        Ok(s) => {
            println!(
                "{path}: ok — {} traces, {} packets, study wall {:.1}s",
                s.traces,
                s.packets,
                s.study_wall_us / 1e6
            );
            for (name, wall_us, events) in &s.stages {
                println!("  {name:<16}{:>12.1} ms{:>14} events", wall_us / 1e3, events);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: INVALID: {e}");
            ExitCode::FAILURE
        }
    })
}

/// Gate a candidate `BENCH_pipeline.json` against a committed baseline:
/// exact event/byte equality on every mandatory stage plus a one-sided
/// wall-time check (see `ent_core::metrics::compare_bench_json`).
/// `ENT_BENCH_WAIVER=1` waives the wall half for noisy hardware.
fn cmd_bench_compare(args: &Args) -> Result<ExitCode, UsageError> {
    let (Some(base_path), Some(cand_path)) =
        (args.positional.first(), args.positional.get(1))
    else {
        return Err(UsageError("need BASELINE.json and CANDIDATE.json".into()));
    };
    let tolerance: f64 = args.value("tolerance")?.unwrap_or(0.25);
    let waived = std::env::var("ENT_BENCH_WAIVER").is_ok_and(|v| !v.is_empty() && v != "0");
    let baseline = or_die(std::fs::read_to_string(base_path), "read baseline json");
    let candidate = or_die(std::fs::read_to_string(cand_path), "read candidate json");
    Ok(match compare_bench_json(&baseline, &candidate, tolerance, !waived) {
        Ok(report) => {
            print!("{report}");
            if waived {
                println!("note: wall-time checks waived via ENT_BENCH_WAIVER");
            }
            println!("bench-compare: ok ({cand_path} vs {base_path}, tolerance +{:.0}%)",
                tolerance * 100.0);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench-compare: FAILED ({cand_path} vs {base_path}):\n{e}");
            eprintln!(
                "hint: on noisy hardware, re-run with ENT_BENCH_WAIVER=1 to skip the \
                 wall-time half of the gate (event/byte determinism is always enforced); \
                 if the regression is real and intended, regenerate the committed baseline \
                 with `entreport study --bench-json BENCH_pipeline.json`"
            );
            ExitCode::FAILURE
        }
    })
}

/// Resident monitor mode: stream a capture through the pipeline, emitting
/// a full per-epoch report (plus cumulative totals) at every epoch
/// boundary. `--checkpoint` makes each boundary durable: the state file is
/// written atomically, and a later run with the same flag resumes
/// mid-stream, reproducing the remaining epochs exactly. A checkpoint that
/// fails to load degrades to a counted cold start, never an error exit.
fn cmd_monitor(args: &Args) -> Result<ExitCode, UsageError> {
    let Some(path) = args.positional.first() else {
        return Err(UsageError("missing capture path".into()));
    };
    let epoch_secs: u64 = args.value("epoch-secs")?.unwrap_or(300);
    if epoch_secs == 0 {
        return Err(UsageError("--epoch-secs must be nonzero".into()));
    }
    let stop_after: Option<u64> = args.value("stop-after-epochs")?;
    let data = or_die(std::fs::read(path), "read capture");
    let name = args.flags.get("name").map(String::as_str).unwrap_or("monitor");
    let ckpt_path = args.flags.get("checkpoint").map(std::path::PathBuf::from);
    let cfg = MonitorConfig {
        epoch_secs,
        checkpoints: ckpt_path.is_some(),
        pipeline: PipelineConfig {
            keep_scanners: args.switches.contains("keep-scanners"),
            max_conns: args.value("max-conns")?.unwrap_or(0),
            max_pending: args.value("max-pending")?.unwrap_or(0),
            ..Default::default()
        },
    };
    let meta = or_die(capture_meta(name, &data), "open capture");
    let hint = data.len() / 600;
    let mut resume = None;
    let mut monitor = None;
    if let Some(p) = &ckpt_path {
        if p.exists() {
            let loaded = Checkpoint::load(p).and_then(|ck| {
                let m = Monitor::from_checkpoint(meta.clone(), cfg.clone(), &ck, hint)?;
                Ok((m, ck.resume_offset, ck.reader_clock_us, ck.epoch_index))
            });
            match loaded {
                Ok((m, offset, clock, idx)) => {
                    eprintln!(
                        "resuming from {} at epoch {idx} (offset {offset})",
                        p.display()
                    );
                    resume = Some((offset, clock));
                    monitor = Some(m);
                }
                Err(e) => {
                    eprintln!("checkpoint {}: {e}; degrading to cold start", p.display());
                }
            }
        }
    }
    let recovered = monitor.is_none() && ckpt_path.as_ref().is_some_and(|p| p.exists());
    let mut monitor = monitor.unwrap_or_else(|| Monitor::new(meta, cfg.clone(), hint));
    if recovered {
        monitor.note_checkpoint_recovery();
    }
    let result = drive_capture(
        &data,
        &mut monitor,
        resume,
        stop_after,
        |rep| print!("{}", rep.render()),
        |ck| {
            if let Some(p) = &ckpt_path {
                or_die(ck.write_atomic(p), "write checkpoint");
            }
        },
    );
    let Some(summary) = or_die(result, "monitor run") else {
        eprintln!(
            "stopped after {} epochs (checkpoint retained for resume)",
            stop_after.unwrap_or(0)
        );
        return Ok(ExitCode::SUCCESS);
    };
    print!("{}", summary.render());
    if let Some(out) = args.flags.get("bench-json") {
        let ctx = MonitorBenchContext {
            epoch_secs,
            max_conns: cfg.pipeline.max_conns as u64,
            max_pending: cfg.pipeline.max_pending as u64,
            epochs: summary.totals.epochs,
            checkpoints: summary.metrics.checkpoint.events,
            evicted_conns: summary.health.evicted_conns,
            pending_dropped: summary.health.pending_dropped,
            checkpoint_recoveries: summary.health.checkpoint_recoveries,
        };
        let doc = monitor_bench_json(&ctx, &summary.metrics);
        or_die(validate_bench_json(&doc), "bench json self-check");
        or_die(std::fs::write(out, &doc), "write bench json");
        eprintln!("monitor metrics written to {out}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_anonymize(args: &Args) -> Result<ExitCode, UsageError> {
    let (Some(input), Some(output)) = (args.positional.first(), args.positional.get(1)) else {
        return Err(UsageError("need IN.pcap and OUT.pcap".into()));
    };
    let key = args
        .flags
        .get("key")
        .cloned()
        .unwrap_or_else(|| "default-key".into());
    let f = or_die(File::open(input), "open input pcap");
    let meta = TraceMeta {
        dataset: "anon".into(),
        subnet: 0,
        pass: 1,
        duration: Timestamp::from_secs(3_600),
        snaplen: 1500,
        link_capacity_bps: 100_000_000,
    };
    let trace = or_die(Trace::read_pcap(BufReader::new(f), meta), "read pcap");
    let anon = ent_anon::anonymize_trace(&trace, &key);
    let out = or_die(File::create(output), "create output pcap");
    let mut w = BufWriter::new(out);
    or_die(anon.write_pcap(&mut w), "write pcap");
    or_die(w.flush(), "flush output");
    eprintln!("anonymized {} packets -> {}", anon.packets.len(), output);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(cmd: &str, raw: &[&str]) -> Result<Args, UsageError> {
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        let command = command(cmd).expect("known subcommand");
        parse_args(&raw, &command)
    }

    #[test]
    fn unknown_flag_is_a_usage_error() {
        let err = args("study", &["--shards", "4"]).expect_err("unknown flag");
        assert!(err.0.contains("unknown flag --shards"), "{}", err.0);
        // A flag one subcommand accepts is still unknown to another.
        assert!(args("analyze", &["x.pcap", "--epoch-secs", "60"]).is_err());
        assert!(args("obs-check", &["x.json", "--keep-scanners"]).is_err());
        assert!(command("scaling").is_none(), "no such subcommand");
    }

    #[test]
    fn bad_number_is_a_usage_error() {
        let a = args("study", &["--seed", "2oo5"]).expect("flag is known");
        let err = gen_config(&a).expect_err("unparsable seed");
        assert!(err.0.contains("--seed"), "{}", err.0);
        let a = args("monitor", &["x.pcap", "--max-conns", "-1"]).expect("flag is known");
        assert!(a.value::<usize>("max-conns").is_err());
        // A valued flag with nothing after it is not silently a switch.
        let err = args("study", &["--threads"]).expect_err("missing value");
        assert!(err.0.contains("--threads needs a value"), "{}", err.0);
        assert!(args("study", &["--seed", "--keep-scanners"]).is_err());
    }

    #[test]
    fn valid_flags_parse() {
        let a = args(
            "study",
            &["--scale", "0.002", "--seed", "2005", "--hosts", "8", "--threads", "2",
              "--only", "table 3", "--keep-scanners"],
        )
        .expect("valid study flags");
        let gen = gen_config(&a).expect("numbers parse");
        assert_eq!((gen.scale, gen.seed, gen.hosts_per_subnet), (0.002, 2005, Some(8)));
        assert_eq!(a.value::<usize>("threads").expect("parses"), Some(2));
        assert_eq!(a.flags.get("only").map(String::as_str), Some("table 3"));
        assert!(a.switches.contains("keep-scanners"));
        // Absent flags fall back to their defaults.
        let gen = gen_config(&args("study", &[]).expect("no flags")).expect("defaults");
        assert_eq!((gen.scale, gen.seed, gen.hosts_per_subnet), (0.01, 1, None));
        let a = args("bench-compare", &["a.json", "b.json", "--tolerance", "0.5"]).expect("ok");
        assert_eq!(a.positional, ["a.json", "b.json"]);
        assert_eq!(a.value::<f64>("tolerance").expect("parses"), Some(0.5));
    }
}
