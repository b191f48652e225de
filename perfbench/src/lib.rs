//! The LogGrep benchmark: three closed-loop workloads with one client
//! thread, run against the library's public API.
//!
//! * `ingest` compresses a stream of 1 MiB blocks from the log mix with
//!   [`LogGrep::compress`] and serializes each with
//!   [`loggrep::CapsuleBox::to_bytes`].
//! * `grep-selective` queries pre-built archives of the mix with catalog
//!   queries, seeded variable probes and aggregates, clearing the result
//!   cache before every operation.
//! * `grep-scan` queries the same archives, cold, with wildcard and
//!   common-token queries that each return thousands of lines.
//!
//! Every distinct operation is checked once against an independent answer
//! before timing (module `oracle`); the timed loop then compares each result
//! with the checked one. With tracing on, module `layers` replays the calls
//! into each layer under the span recorder of module `trace` and reports
//! per-layer metrics.

#![forbid(unsafe_code)]

mod layers;
mod mix;
mod oracle;
mod trace;

use loggrep::{AggResult, Archive, CapsuleBox, LogGrep, LogGrepConfig};
use mix::{Cycle, Log, Op, Request};
use oracle::{Answer, NaiveLog};
use std::time::{Duration, Instant};
use trace::Recorder;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Compress and serialize 1 MiB blocks.
    Ingest,
    /// Selective line queries and aggregates on cold archives.
    GrepSelective,
    /// Wildcard and common-token queries on cold archives.
    GrepScan,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Ingest,
        Workload::GrepSelective,
        Workload::GrepScan,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::GrepSelective => "grep-selective",
            Workload::GrepScan => "grep-scan",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of a run.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Bytes of each log archive the grep workloads query.
    pub log_bytes: usize,
    /// Bytes of each ingest block.
    pub block_bytes: usize,
    /// Distinct ingest blocks per log of the mix.
    pub blocks_per_log: usize,
    /// Variable-probing queries per log (`grep-selective`).
    pub probes_per_log: usize,
    /// Frequent-token queries per log (`grep-scan`).
    pub frequent_per_log: usize,
    /// How many times set-up runs; `setup_s` is the median.
    pub setup_repeats: usize,
}

impl Size {
    /// The sizes the benchmark is defined with.
    pub const FULL: Size = Size {
        log_bytes: 4 << 20,
        block_bytes: 1 << 20,
        blocks_per_log: 2,
        probes_per_log: 6,
        frequent_per_log: 2,
        setup_repeats: 3,
    };

    /// Small sizes for the benchmark's own tests.
    pub const TINY: Size = Size {
        log_bytes: 48 << 10,
        block_bytes: 32 << 10,
        blocks_per_log: 1,
        probes_per_log: 2,
        frequent_per_log: 1,
        setup_repeats: 2,
    };
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measurement lasts, in seconds.
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Fault injection for the benchmark's own tests: drop one line from
    /// the engine's answer to the first operation before it is checked.
    pub drop_line: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric with its value and unit.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Where a run happened, so runs from different hosts are never compared.
#[derive(Debug, Clone)]
pub struct Identity {
    /// Workload seed.
    pub seed: u64,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The engine's default pool size.
    pub pool_threads: usize,
    /// The commit `HEAD` names, or `none` outside a git checkout.
    pub git_rev: String,
    /// FNV-1a hash of the engine's sources, which identifies the code
    /// where there is no git metadata.
    pub source_hash: String,
}

impl Identity {
    fn probe(seed: u64) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let git_rev = git_head(&repo.join(".git")).unwrap_or_else(|| "none".to_string());
        Self {
            seed,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            pool_threads: pool::default_threads(),
            git_rev,
            source_hash: source_hash(),
        }
    }

    /// The identity as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seed\": {}, \"nproc\": {}, \"cpu_model\": \"{}\", \"pool_threads\": {}, \"git_rev\": \"{}\", \"source_hash\": \"{}\"}}",
            self.seed,
            self.nproc,
            self.cpu_model.replace(['"', '\\'], ""),
            self.pool_threads,
            self.git_rev,
            self.source_hash
        )
    }
}

/// The commit `HEAD` names, read from the repository's own `.git` (a
/// detached hash, a loose ref or a packed ref) without running git.
fn git_head(git: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

/// FNV-1a over the engine crates' sources, in path order.
fn source_hash() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut files = Vec::new();
    walk(&root, &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        for b in std::fs::read(&file).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every answer matched its independent check.
    pub correct: bool,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that errored or returned a wrong answer.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Where the run happened.
    pub identity: Identity,
    /// The traced run's spans and self times, as JSON.
    pub trace_json: Option<String>,
    /// Human-readable lines about the run (operations, mismatches).
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A number in JSON syntax, with every digit Rust prints; a non-finite
/// value (a metric without a denominator) prints as `null`, so it cannot
/// pass for a measurement.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Runs one workload and reports its metrics.
pub fn run(opts: &Options) -> Report {
    let identity = Identity::probe(opts.seed);
    let mut setup_secs = Vec::new();
    let mut prepared = None;
    for _ in 0..opts.size.setup_repeats.max(1) {
        drop(prepared.take()); // free the previous set-up before building the next
        let t = Instant::now();
        prepared = Some(Prepared::new(opts));
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("set-up ran at least once");
    let budget = Duration::from_secs_f64(opts.seconds.max(0.001));

    if opts.trace {
        let traced = layers::traced_run(&mut prepared, opts, budget);
        return Report {
            correct: traced.failed == 0 && prepared.bad.iter().all(|b| !b),
            attempted: traced.attempted,
            failed: traced.failed,
            metrics: traced.metrics,
            identity,
            trace_json: Some(traced.trace_json),
            notes: prepared.notes.clone(),
        };
    }

    let mut cycle = Cycle::new(opts.seed, prepared.ops_len());
    let stats = prepared
        .timed_loop(budget, &mut cycle, &[Pass::Plain], &mut Recorder::new())
        .remove(0);
    let primary: Vec<f64> = stats
        .samples
        .iter()
        .filter(|s| !prepared.is_agg(s.op))
        .map(|s| s.secs * 1e3)
        .collect();
    let total_secs: f64 = stats.samples.iter().map(|s| s.secs).sum();
    let raw_bytes: f64 = stats
        .samples
        .iter()
        .map(|s| prepared.raw_len(s.op) as f64)
        .sum();
    let metrics = vec![
        Metric::new("setup_s", median(&setup_secs), "s"),
        Metric::new("op_ms_p50", percentile(&primary, 0.5), "ms"),
        Metric::new("op_ms_p90", percentile(&primary, 0.9), "ms"),
        Metric::new("ops_per_s", stats.samples.len() as f64 / total_secs, "1/s"),
        Metric::new("raw_mb_s", raw_bytes / 1e6 / total_secs, "MB/s"),
        Metric::new("compression_ratio", prepared.compression_ratio(), "x"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let mut notes = prepared.notes.clone();
    for (op, ms) in stats.per_op_median(prepared.ops_len()).iter().enumerate() {
        notes.push(format!(
            "op {op}: {} -> {} in {:.3} ms (median)",
            prepared.describe(op),
            prepared.answer_size(op),
            ms.unwrap_or(f64::NAN) * 1e3
        ));
    }
    notes.push(format!(
        "{} timed operations over {} distinct, {} primary samples",
        stats.samples.len(),
        prepared.ops_len(),
        primary.len()
    ));
    Report {
        correct: stats.failed == 0 && prepared.bad.iter().all(|b| !b),
        attempted: stats.samples.len() as u64,
        failed: stats.failed,
        metrics,
        identity,
        trace_json: None,
        notes,
    }
}

/// The median of a sample (0 when empty).
pub(crate) fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `p` in `[0, 1]` of a sample (0 when empty).
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sample {
    /// Index of the distinct operation.
    pub op: usize,
    /// Wall time of the call, in seconds.
    pub secs: f64,
}

/// What a timed loop measured.
#[derive(Debug, Default)]
pub(crate) struct LoopStats {
    /// Every operation, in order.
    pub samples: Vec<Sample>,
    /// Operations that errored, answered differently from the checked
    /// answer, or failed their check during set-up.
    pub failed: u64,
}

impl LoopStats {
    /// Median wall time per distinct operation (`None` where the loop did
    /// not reach the operation).
    pub fn per_op_median(&self, ops: usize) -> Vec<Option<f64>> {
        let mut per_op = vec![Vec::new(); ops];
        for s in &self.samples {
            per_op[s.op].push(s.secs);
        }
        per_op
            .iter()
            .map(|v| (!v.is_empty()).then(|| median(v)))
            .collect()
    }
}

/// How the calls of one pass of the timed loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pass {
    /// Untraced, on the engine's default pool.
    Plain,
    /// Each call inside a span.
    Traced,
    /// Untraced, with the engine's pool at one thread.
    Serial,
}

/// The checked answer a timed result is compared with.
#[derive(Debug, Clone)]
enum Expected {
    /// Line numbers of a line query.
    Lines(Vec<u32>),
    /// An aggregate.
    Agg(AggResult),
    /// The serialized archive of an ingest block.
    Bytes(Vec<u8>),
}

/// A workload's inputs after set-up.
pub(crate) struct Prepared {
    /// Which workload this is.
    pub workload: Workload,
    /// Ingest blocks, or the logs behind the archives.
    pub logs: Vec<Log>,
    /// The opened archives (grep workloads; empty for `ingest`).
    pub archives: Vec<Archive>,
    /// Distinct operations of the query stream (grep workloads).
    pub ops: Vec<Op>,
    /// Serialized size of each log's archive.
    pub stored: Vec<usize>,
    expected: Vec<Option<Expected>>,
    /// Distinct operations that failed their check.
    pub bad: Vec<bool>,
    /// Human-readable notes.
    pub notes: Vec<String>,
}

impl Prepared {
    /// Generates the inputs, builds the archives and checks every distinct
    /// operation once.
    pub fn new(opts: &Options) -> Self {
        let size = opts.size;
        let engine = LogGrep::new(LogGrepConfig::default());
        let logs = match opts.workload {
            Workload::Ingest => mix::blocks(opts.seed, size.block_bytes, size.blocks_per_log),
            _ => mix::logs(opts.seed, size.log_bytes),
        };
        let mut stored = Vec::new();
        let mut archives = Vec::new();
        let mut expected = Vec::new();
        let mut bad = Vec::new();
        let mut notes = Vec::new();
        for (i, log) in logs.iter().enumerate() {
            let bytes = engine
                .compress(&log.raw)
                .expect("generated logs compress")
                .to_bytes();
            stored.push(bytes.len());
            if opts.workload == Workload::Ingest {
                let ok = roundtrip_ok(&bytes, log, opts.drop_line && i == 0);
                if !ok {
                    notes.push(format!("block {i} ({}) does not round-trip", log.name));
                }
                bad.push(!ok);
                expected.push(Some(Expected::Bytes(bytes)));
            } else {
                archives.push(Archive::from_bytes(&bytes).expect("fresh archive opens"));
            }
        }
        let ops = match opts.workload {
            Workload::Ingest => Vec::new(),
            Workload::GrepSelective => {
                let mut ops = mix::catalog_ops(&logs);
                ops.extend(mix::probe_ops(opts.seed, &logs, size.probes_per_log));
                ops.extend(mix::agg_ops(opts.seed, &logs, &archives));
                ops
            }
            Workload::GrepScan => mix::scan_ops(&logs, size.frequent_per_log),
        };
        if !ops.is_empty() {
            let naive: Vec<NaiveLog> = logs.iter().map(|l| NaiveLog::new(l.lines())).collect();
            for (i, op) in ops.iter().enumerate() {
                let archive = &archives[op.log];
                let (answer, exp) = match execute(archive, &op.request) {
                    Ok(pair) => pair,
                    Err(e) => {
                        notes.push(format!("op {i} `{}` errored: {e}", op.request.describe()));
                        bad.push(true);
                        expected.push(None);
                        continue;
                    }
                };
                let answer = match answer {
                    Answer::Lines(mut lines) if opts.drop_line && i == 0 => {
                        lines.pop();
                        Answer::Lines(lines)
                    }
                    other => other,
                };
                let ok = naive[op.log]
                    .answer(&op.request)
                    .is_some_and(|n| n == answer);
                if !ok {
                    notes.push(format!(
                        "op {i} `{}` on {} differs from the oracle",
                        op.request.describe(),
                        logs[op.log].name
                    ));
                }
                bad.push(!ok);
                expected.push(Some(exp));
            }
        }
        Self {
            workload: opts.workload,
            logs,
            archives,
            ops,
            stored,
            expected,
            bad,
            notes,
        }
    }

    /// Number of distinct operations.
    pub fn ops_len(&self) -> usize {
        match self.workload {
            Workload::Ingest => self.logs.len(),
            _ => self.ops.len(),
        }
    }

    /// Operation `op` for reports: the block, or the log and request.
    pub fn describe(&self, op: usize) -> String {
        match self.workload {
            Workload::Ingest => format!("compress {} block {op}", self.logs[op].name),
            _ => format!(
                "{}: {}",
                self.logs[self.ops[op].log].name,
                self.ops[op].request.describe()
            ),
        }
    }

    /// Size of the checked answer to `op`: lines, aggregate entries, or
    /// serialized bytes.
    pub fn answer_size(&self, op: usize) -> String {
        match &self.expected[op] {
            Some(Expected::Lines(l)) => format!("{} lines", l.len()),
            Some(Expected::Agg(a)) => format!("{} entries", agg_entries(a)),
            Some(Expected::Bytes(b)) => format!("{} bytes", b.len()),
            None => "error".to_string(),
        }
    }

    /// Whether operation `op` is an aggregate.
    pub fn is_agg(&self, op: usize) -> bool {
        self.ops.get(op).is_some_and(|o| o.request.is_agg())
    }

    /// Raw bytes behind operation `op`: the block, or the queried log.
    pub fn raw_len(&self, op: usize) -> usize {
        match self.workload {
            Workload::Ingest => self.logs[op].raw.len(),
            _ => self.logs[self.ops[op].log].raw.len(),
        }
    }

    /// Raw bytes over stored bytes, over every distinct input.
    pub fn compression_ratio(&self) -> f64 {
        let raw: usize = self.logs.iter().map(|l| l.raw.len()).sum();
        raw as f64 / self.stored.iter().sum::<usize>() as f64
    }

    /// Runs operations from `cycle` until `budget` has passed and every
    /// pass has run, timing each call and comparing its result with the
    /// checked answer. Whole rounds of the cycle take turns between the
    /// `passes`, so slow drift of the host lands on all of them alike.
    /// Returns one [`LoopStats`] per pass.
    pub fn timed_loop(
        &mut self,
        budget: Duration,
        cycle: &mut Cycle,
        passes: &[Pass],
        rec: &mut Recorder,
    ) -> Vec<LoopStats> {
        let engine = |threads| {
            LogGrep::new(LogGrepConfig {
                threads,
                ..LogGrepConfig::default()
            })
        };
        let (default_engine, serial_engine) = (engine(0), engine(1));
        let mut stats: Vec<LoopStats> = passes.iter().map(|_| LoopStats::default()).collect();
        let mut serial = false;
        let start = Instant::now();
        while start.elapsed() < budget || stats.iter().any(|s| s.samples.is_empty()) {
            let (round, op) = cycle.next_op();
            let k = round % passes.len();
            if serial != (passes[k] == Pass::Serial) {
                serial = !serial;
                for archive in &mut self.archives {
                    archive.set_threads(usize::from(serial));
                }
            }
            let engine = if serial {
                &serial_engine
            } else {
                &default_engine
            };
            let (secs, ok) = if passes[k] == Pass::Traced {
                let id = rec.next_op();
                rec.span(self.span_name(op), id, |_| self.call(engine, op))
            } else {
                self.call(engine, op)
            };
            // An operation that failed its check fails every time it runs.
            stats[k].failed += u64::from(!ok || self.bad[op]);
            stats[k].samples.push(Sample { op, secs });
        }
        for archive in &mut self.archives {
            archive.set_threads(0);
        }
        stats
    }

    fn span_name(&self, op: usize) -> &'static str {
        match self.workload {
            Workload::Ingest => "op.ingest",
            _ if self.is_agg(op) => "op.agg",
            _ => "op.query",
        }
    }

    /// One timed call: its wall time, and whether its answer matched.
    fn call(&self, engine: &LogGrep, op: usize) -> (f64, bool) {
        match self.workload {
            Workload::Ingest => {
                let raw = &self.logs[op].raw;
                let t = Instant::now();
                let bytes = engine.compress(raw).map(|b| b.to_bytes());
                let secs = t.elapsed().as_secs_f64();
                let ok = matches!((&bytes, &self.expected[op]), (Ok(b), Some(Expected::Bytes(e))) if b == e);
                (secs, ok)
            }
            _ => {
                let o = &self.ops[op];
                let archive = &self.archives[o.log];
                archive.clear_caches();
                let t = Instant::now();
                let result = match &o.request {
                    Request::Lines(q) => archive.query(q).map(|r| Expected::Lines(r.line_numbers)),
                    Request::Agg { filter, spec } => archive
                        .query_agg(filter.as_deref(), spec)
                        .map(|r| Expected::Agg(r.agg)),
                };
                let secs = t.elapsed().as_secs_f64();
                let ok = match (&result, &self.expected[op]) {
                    (Ok(Expected::Lines(a)), Some(Expected::Lines(b))) => a == b,
                    (Ok(Expected::Agg(a)), Some(Expected::Agg(b))) => a == b,
                    _ => false,
                };
                (secs, ok)
            }
        }
    }
}

/// Runs `request` once, returning the answer to check and the part kept for
/// comparing timed results.
fn execute(archive: &Archive, request: &Request) -> loggrep::Result<(Answer, Expected)> {
    archive.clear_caches();
    Ok(match request {
        Request::Lines(q) => {
            let r = archive.query(q)?;
            (Answer::Lines(r.lines), Expected::Lines(r.line_numbers))
        }
        Request::Agg { filter, spec } => {
            let r = archive.query_agg(filter.as_deref(), spec)?;
            (Answer::Agg(r.agg.clone()), Expected::Agg(r.agg))
        }
    })
}

fn agg_entries(agg: &AggResult) -> usize {
    match agg {
        AggResult::Count(_) => 1,
        AggResult::CountByTemplate(v) => v.len(),
        AggResult::TopK { values, .. } => values.len(),
        AggResult::Histogram { buckets, .. } => buckets.len(),
    }
}

/// Whether a serialized block decodes back to exactly its input lines.
fn roundtrip_ok(bytes: &[u8], log: &Log, drop_line: bool) -> bool {
    let Ok(boxed) = CapsuleBox::from_bytes(bytes) else {
        return false;
    };
    let Ok(mut lines) = Archive::from_box(boxed).reconstruct_all() else {
        return false;
    };
    if drop_line {
        lines.pop();
    }
    lines == log.lines()
}
