//! perfbench — times the enterprise-traffic pipeline from outside, through
//! each crate's public functions, over three workloads.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload study|replay_payload|monitor_headers \
//!     [--seed 2005] [--seconds 10] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! holding the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics of a separate traced run, and the spans are written to
//! `<target dir>/perfbench-out/`. See README.md for what each metric
//! means and which end-to-end metric each layer should move.

mod heap;
mod layers;
mod monitor;
mod replay;
mod study;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// What a benchmark does with one workload: build its inputs, hand them to
/// the measuring processes, run the timed operation with or without spans,
/// check the operation's output, and measure its heap.
pub trait Workload: Sized {
    type Output;
    /// Build the inputs from the seed. Returns the workload and the seconds
    /// spent on the part of set-up that `setup_s` reports.
    fn setup(seed: u64) -> (Self, f64);
    /// Write the inputs to `dir`.
    fn save(&self, dir: &Path) -> std::io::Result<()>;
    /// Read back what [`Workload::save`] wrote; `scratch` takes any files
    /// the runs write.
    fn load(dir: &Path, seed: u64, scratch: &Path) -> std::io::Result<Self>;
    /// One run of the workload's own calls, each timed unit of them inside
    /// a [`Laps::lap`].
    fn run(&mut self, laps: &mut Laps) -> Self::Output;
    /// The same work with spans around each layer's calls, then isolation
    /// passes for layers the program fuses.
    fn run_traced(&mut self, tr: &mut Tracer) -> Self::Output;
    /// Check one run's output, outside the timed region.
    fn check(&mut self, out: Self::Output) -> Checked;
    /// Peak heap (MiB) a run on the inputs in `dir` takes above what was
    /// live when it started, in a process that counts its heap: the inputs
    /// themselves are the benchmark's, not the program's. The first run is
    /// a warm-up; the second gives the figure. The timed process checks
    /// every run's output; these are not checked again.
    fn peak_heap(dir: &Path, seed: u64, scratch: &Path) -> std::io::Result<f64> {
        let mut w = Self::load(dir, seed, scratch)?;
        drop(w.run(&mut Laps::default()));
        heap::reset_peak();
        drop(w.run(&mut Laps::default()));
        Ok(heap::peak_mib())
    }
}

/// Outcome of checking one run.
#[derive(Default, Clone, Copy)]
pub struct Checked {
    /// Packets the run analyzed.
    pub pkts: u64,
    /// Operations attempted: traces, captures or epochs.
    pub ops: u64,
    /// Operations whose output check failed.
    pub failed: u64,
}

/// The timed units of one run, in the order the run made them. A unit is
/// the same work in every run, so its fastest time across runs is the
/// unit's cost with the least interference from the rest of the host.
#[derive(Default)]
pub struct Laps(Vec<f64>);

impl Laps {
    pub fn lap<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0.push(t.elapsed().as_secs_f64());
        out
    }
}

/// Set-up repeats until both bounds are met; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 0.5;
/// Fewest timed runs a measurement takes, however long they are.
const MIN_RUNS: usize = 5;

/// End-to-end metrics: (name, unit).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("pkts_per_s", "1/s"),
    ("peak_heap_mib", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics of the traced run: (name, unit).
const PER_LAYER: [(&str, &str); 37] = [
    ("gen.generate_s", "s"),
    ("gen.pkts", "count"),
    ("gen.synth_s", "s"),
    ("gen.sort_s", "s"),
    ("gen.tap_s", "s"),
    ("pcap.read_s", "s"),
    ("pcap.records", "count"),
    ("pcap.damage_events", "count"),
    ("wire.parse_s", "s"),
    ("wire.parse_errors", "count"),
    ("flow.ingest_s", "s"),
    ("flow.conns", "count"),
    ("flow.peak_open_conns", "count"),
    ("flow.evicted_conns", "count"),
    ("proto.http.events", "count"),
    ("proto.smtp.events", "count"),
    ("proto.imap.events", "count"),
    ("proto.tls.events", "count"),
    ("proto.cifs.events", "count"),
    ("proto.dcerpc.events", "count"),
    ("proto.nfs_tcp.events", "count"),
    ("proto.nfs_udp.events", "count"),
    ("proto.ncp.events", "count"),
    ("proto.dns.events", "count"),
    ("proto.nbns.events", "count"),
    ("proto.bytes", "B"),
    ("core.analyze_s", "s"),
    ("core.report_s", "s"),
    ("core.observe_s", "s"),
    ("core.epoch_close_us_p50", "us"),
    ("core.epochs", "count"),
    ("core.checkpoint_encode_s", "s"),
    ("core.checkpoint_write_s", "s"),
    ("core.checkpoint_bytes", "B"),
    ("trace.total_s", "s"),
    ("trace.overhead_s", "s"),
    ("check.failed_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set only in the child processes: where the inputs are, the set-up
    /// time the parent measured, and whether this child measures memory.
    inputs: Option<PathBuf>,
    setup_s: f64,
    memory: bool,
}

const USAGE: &str = "usage: perfbench --workload study|replay_payload|monitor_headers \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2005,
        seconds: 10.0,
        trace: false,
        inputs: None,
        setup_s: 0.0,
        memory: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--inputs" => args.inputs = Some(PathBuf::from(&value)),
            "--setup-s" => args.setup_s = value.parse().map_err(|_| bad())?,
            "--memory" => args.memory = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Sub-seed `i` of `n` drawn from one run seed: distinct for every
/// (seed, i), so inputs built from several independent generator runs
/// still come from the one `--seed`.
pub fn sub_seed(seed: u64, i: usize, n: usize) -> u64 {
    seed.wrapping_mul(n as u64).wrapping_add(i as u64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile (0 for an empty series).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// nproc, CPU model and compiler, so a number from another host reads as
/// context rather than as a gate.
fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']));
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"rustc\":{}}}",
        json_str(model),
        json_str(&rustc)
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where the benchmark writes: beside its own build, inside the checkout.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new("."));
    target.join("perfbench-out")
}

/// A scratch directory removed when the benchmark ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Totals {
    attempted: u64,
    failed: u64,
}

impl Totals {
    fn add(&mut self, c: Checked) -> Checked {
        self.attempted += c.ops;
        self.failed += c.failed;
        c
    }
}

/// Time runs until `budget` has passed and at least [`MIN_RUNS`] are done.
/// Returns each run's wall time, the fastest time of each of a run's units,
/// and the packets a run analyzes.
fn time_runs<W: Workload>(
    w: &mut W,
    budget: Duration,
    totals: &mut Totals,
) -> (Vec<f64>, Vec<f64>, u64) {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut fastest: Vec<f64> = Vec::new();
    let mut pkts = 0;
    while walls.len() < MIN_RUNS || start.elapsed() < budget {
        let mut laps = Laps::default();
        let t = Instant::now();
        let out = w.run(&mut laps);
        walls.push(t.elapsed().as_secs_f64());
        if fastest.is_empty() {
            fastest = laps.0;
        } else {
            for (best, lap) in fastest.iter_mut().zip(laps.0) {
                *best = best.min(lap);
            }
        }
        pkts = totals.add(w.check(out)).pkts;
    }
    (walls, fastest, pkts)
}

/// The memory process: [`Workload::peak_heap`] on the inputs, written to
/// `memory.tsv` beside them.
fn measure_memory<W: Workload>(args: &Args, inputs: &Path) -> Result<(), String> {
    let work = inputs.with_file_name("work");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let peak =
        W::peak_heap(inputs, args.seed, &work).map_err(|e| format!("loading inputs: {e}"))?;
    let file = inputs.with_file_name("memory.tsv");
    std::fs::write(&file, format!("{peak}\n")).map_err(|e| format!("{}: {e}", file.display()))
}

/// The peak heap (MiB) [`measure_memory`] wrote.
fn read_memory(inputs: &Path) -> Result<f64, String> {
    let file = inputs.with_file_name("memory.tsv");
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    text.trim()
        .parse()
        .map_err(|_| format!("{}: bad line {text:?}", file.display()))
}

/// Set up the workload (several times; `setup_s` is the median), write its
/// inputs to a scratch directory and measure them in two child processes,
/// one after the other: one for memory, then one for time. Each holds only
/// the inputs, read back whole, so its heap is the inputs plus what the
/// runs use, not what set-up left behind.
fn set_up_and_measure<W: Workload>(args: &Args) -> Result<i32, String> {
    let scratch = Scratch(out_dir().join(format!("tmp-{}", std::process::id())));
    let inputs = scratch.0.join("inputs");
    std::fs::create_dir_all(&inputs).map_err(|e| format!("{}: {e}", inputs.display()))?;
    let mut setups = Vec::new();
    let started = Instant::now();
    let mut workload = None;
    while setups.len() < SETUP_MIN_REPS || started.elapsed().as_secs_f64() < SETUP_MIN_SECS {
        drop(workload.take());
        let (w, secs) = W::setup(args.seed);
        setups.push(secs);
        workload = Some(w);
    }
    let setup_s = median(&setups);
    eprintln!(
        "perfbench: {} set-ups, setup_s median {setup_s:.6}",
        setups.len()
    );
    workload
        .expect("set-up ran at least once")
        .save(&inputs)
        .map_err(|e| format!("saving inputs: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = |memory: &str| {
        std::process::Command::new(&exe)
            .args(std::env::args().skip(1))
            .arg("--inputs")
            .arg(&inputs)
            .arg("--setup-s")
            .arg(setup_s.to_string())
            .args(["--memory", memory])
            .status()
            .map_err(|e| format!("starting a measuring process: {e}"))
    };
    let status = child("1")?;
    if !status.success() {
        return Err(format!("the memory process failed: {status}"));
    }
    Ok(child("0")?.code().unwrap_or(1))
}

/// The measuring process: load the inputs, run once untimed, time runs for
/// the budget, then (with `--trace 1`) the traced runs. Returns the result
/// line.
fn measure<W: Workload>(args: &Args, inputs: &Path, host: &str) -> Result<String, String> {
    let work = inputs.with_file_name("work");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut w = W::load(inputs, args.seed, &work).map_err(|e| format!("loading inputs: {e}"))?;
    let peak_heap = read_memory(inputs)?;
    let mut totals = Totals {
        attempted: 0,
        failed: 0,
    };
    // One untimed run lets caches fill and sets the cross-run references.
    let warm = w.run(&mut Laps::default());
    totals.add(w.check(warm));

    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let (walls, fastest, pkts) = time_runs(&mut w, budget, &mut totals);
    let wall_s: f64 = fastest.iter().sum();
    println!(
        "{}: {} timed runs of {} units, wall_s (sum of unit bests) {:.6} s; whole runs: fastest {:.6}, median {:.6}, p90 {:.6}; {} pkts/run, setup_s {:.6}",
        args.workload,
        walls.len(),
        fastest.len(),
        wall_s,
        quantile(&walls, 0.0),
        median(&walls),
        quantile(&walls, 0.9),
        pkts,
        args.setup_s
    );

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let mut tr = Tracer::new();
        let start = Instant::now();
        let mut runs = 0;
        while runs < MIN_RUNS || start.elapsed() < budget {
            let out = w.run_traced(&mut tr);
            totals.add(w.check(out));
            tr.end_iteration();
            runs += 1;
        }
        let traced = tr.own_total_median();
        let spans = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let header = format!(
            "{{\"workload\":{},\"seed\":{},\"host\":{host}}}",
            json_str(&args.workload),
            args.seed
        );
        std::fs::write(&spans, tr.to_jsonl(&header))
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        for (name, unit) in PER_LAYER {
            let value = match name {
                "trace.total_s" => traced,
                "trace.overhead_s" => traced - median(&walls),
                "core.epoch_close_us_p50" => median(&tr.durations_us("core.epoch_close")),
                "check.failed_ratio" => totals.failed as f64 / totals.attempted.max(1) as f64,
                _ => tr.median_of(name),
            };
            metrics.push((name, unit, value));
        }
        println!("spans: {}", spans.display());
        println!(
            "{:<28} {:>18}  unit   ({runs} traced runs, medians)",
            "per-layer metric", "value"
        );
        for (name, unit, value) in &metrics {
            println!("{name:<28} {value:>18.6}  {unit}");
        }
    } else {
        let ok = 1.0 - totals.failed as f64 / totals.attempted.max(1) as f64;
        let values = [args.setup_s, wall_s, pkts as f64 / wall_s, peak_heap, ok];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, unit, value));
        }
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        totals.failed == 0,
        totals.attempted.max(1),
        totals.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    Ok(json)
}

fn run<W: Workload>(args: &Args) -> Result<i32, String> {
    let Some(inputs) = &args.inputs else {
        return set_up_and_measure::<W>(args);
    };
    if args.memory {
        measure_memory::<W>(args, inputs)?;
        return Ok(0);
    }
    let host = host_fingerprint();
    println!("host: {host}");
    println!("{}", measure::<W>(args, inputs, &host)?);
    Ok(0)
}

fn main() {
    let memory = (std::env::args().collect::<Vec<_>>())
        .windows(2)
        .any(|w| w[0] == "--memory" && w[1] == "1");
    if memory {
        heap::start();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "study" => run::<study::Study>(&args),
        "replay_payload" => run::<replay::Replay>(&args),
        "monitor_headers" => run::<monitor::MonitorBench>(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
