//! The traced run: per-layer metrics from spans recorded around the calls
//! into each layer.
//!
//! Every workload's traced run replays both sides of the engine on its own
//! inputs, so each per-layer metric is measured on every workload:
//!
//! 1. the compress side, call by call, over each distinct input (the ingest
//!    blocks, or the logs behind the grep archives): `logparse`,
//!    `loggrep::extract`, `codec` through `loggrep::capsule`, and
//!    `loggrep::boxfile`, next to one whole `LogGrep::compress` at one
//!    thread;
//! 2. the query side over the workload's line queries (`ingest` uses the
//!    catalog queries of its blocks): `Archive::explain`, `Archive::query`
//!    and its `QueryStats`, and a `strsearch` scan of the decoded payloads;
//! 3. the aggregates of the mix (`grep-selective` uses its own);
//! 4. the workload's own timed loop for the whole measuring time, whole
//!    rounds of it taking turns between three passes: untraced, traced, and
//!    with the engine's pool at one thread.

use crate::mix::{self, Log, Op, Request};
use crate::trace::Recorder;
use crate::{median, LoopStats, Metric, Options, Pass, Prepared, Workload};
use loggrep::capsule::{codec_by_id, Layout};
use loggrep::extract::extract_vector;
use loggrep::{AggLayer, Archive, LogGrep, LogGrepConfig, PAD};
use logparse::{Parser, CATCH_ALL};
use std::hint::black_box;
use std::time::Duration;
use strsearch::fixed::Mode;
use strsearch::FixedRows;

/// Lines per parse chunk, as the engine splits a block.
const PARSE_CHUNK_LINES: usize = 2048;

/// What the traced run produced.
#[derive(Debug)]
pub struct Traced {
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Every span and the per-name self times, as JSON.
    pub trace_json: String,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that errored or answered wrongly.
    pub failed: u64,
}

/// One decoded capsule payload of an input.
struct Payload {
    layout: Layout,
    bytes: Vec<u8>,
}

/// Totals of the compress-side replay.
#[derive(Default)]
struct CompressSide {
    raw_bytes: f64,
    lines: u64,
    catch_all_lines: u64,
    real: usize,
    nominal: usize,
    plain: usize,
    payload_bytes: f64,
    stored_bytes: f64,
    /// Per input: the archive opened from the serialized box, and its
    /// decoded payloads.
    archives: Vec<Archive>,
    payloads: Vec<Vec<Payload>>,
}

fn replay_compress(rec: &mut Recorder, logs: &[Log]) -> CompressSide {
    let cfg = LogGrepConfig::default();
    let serial = LogGrep::new(LogGrepConfig {
        threads: 1,
        ..LogGrepConfig::default()
    });
    let mut side = CompressSide::default();
    for log in logs {
        let op = rec.next_op();
        rec.span("replay.compress", op, |rec| {
            let lines = loggrep::engine::split_lines(&log.raw);
            let parser = rec.span("logparse.train", op, |_| {
                Parser::train(&cfg.parser, lines.iter().copied())
            });
            let parts: Vec<_> = lines
                .chunks(PARSE_CHUNK_LINES)
                .enumerate()
                .map(|(k, chunk)| {
                    rec.span("logparse.parse_chunk", op, |_| {
                        parser.parse_chunk(chunk.iter().copied(), (k * PARSE_CHUNK_LINES) as u32)
                    })
                })
                .collect();
            let parsed = rec.span("logparse.merge", op, |_| parser.merge_chunks(parts));
            side.lines += u64::from(parsed.total_lines);
            side.catch_all_lines += parsed.groups[CATCH_ALL as usize].rows() as u64;

            let mut vector_id = 0u64;
            for group in parsed.groups.iter().filter(|g| g.rows() > 0) {
                for column in &group.vars {
                    vector_id += 1;
                    rec.span("extract.vector", op, |_| {
                        black_box(extract_vector(column, &cfg, vector_id));
                    });
                }
            }

            let (boxed, stats) = rec
                .span("engine.compress", op, |_| {
                    serial.compress_with_stats(&log.raw)
                })
                .expect("generated logs compress");
            side.raw_bytes += log.raw.len() as f64;
            side.real += stats.real_vectors;
            side.nominal += stats.nominal_vectors;
            side.plain += stats.plain_vectors;

            let mut payloads = Vec::with_capacity(boxed.capsules.len());
            for (id, meta) in boxed.capsules.iter().enumerate() {
                let bytes = rec
                    .span("codec.decode", op, |_| boxed.decompress_capsule(id as u32))
                    .expect("fresh capsules decode");
                let codec = codec_by_id(meta.codec).expect("known codec id");
                rec.span("codec.encode", op, |_| black_box(codec.compress(&bytes)));
                side.payload_bytes += bytes.len() as f64;
                side.stored_bytes += meta.clen as f64;
                payloads.push(Payload {
                    layout: meta.layout,
                    bytes,
                });
            }
            let serialized = rec.span("boxfile.serialize", op, |_| boxed.to_bytes());
            let archive = rec
                .span("boxfile.open", op, |_| Archive::from_bytes(&serialized))
                .expect("fresh archive opens");
            side.archives.push(archive);
            side.payloads.push(payloads);
        });
    }
    side
}

/// Occurrences of `needle` in every payload, with the fixed-width row
/// search where the layout allows it; returns the bytes scanned.
fn scan_payloads(payloads: &[Payload], needle: &[u8]) -> usize {
    let mut hits = 0usize;
    let mut scanned = 0usize;
    for p in payloads {
        scanned += p.bytes.len();
        match p.layout {
            Layout::Padded { width } => {
                hits += FixedRows::new(&p.bytes, width as usize, PAD)
                    .find(needle, Mode::Contains)
                    .len();
            }
            Layout::Delimited | Layout::Raw => {
                let mut at = 0;
                while let Some(pos) = strsearch::find(&p.bytes[at..], needle) {
                    hits += 1;
                    at += pos + 1;
                }
            }
        }
    }
    black_box(hits);
    scanned
}

/// Totals of the query-side replay.
#[derive(Default)]
struct QuerySide {
    plan_ms: Vec<f64>,
    exec_secs: f64,
    ops: usize,
    capsules: usize,
    bytes_decompressed: f64,
    stamp_rejections: usize,
    groups_skipped: usize,
    group_checks: usize,
    rows_verified: usize,
    hits: usize,
    scan_bytes: f64,
}

fn replay_queries(rec: &mut Recorder, side: &CompressSide, ops: &[Op]) -> QuerySide {
    let mut q = QuerySide::default();
    for op in ops {
        let Request::Lines(query) = &op.request else {
            continue;
        };
        let id = rec.next_op();
        let archive = &side.archives[op.log];
        rec.span("replay.query", id, |rec| {
            archive.clear_caches();
            rec.span("query.plan", id, |_| {
                black_box(archive.explain(query).is_ok())
            });
            q.plan_ms.push(rec.last_secs() * 1e3);
            let Ok(result) = rec.span("query.exec", id, |_| archive.query(query)) else {
                return;
            };
            q.exec_secs += rec.last_secs();
            let s = &result.stats;
            q.ops += 1;
            q.capsules += s.capsules_decompressed;
            q.bytes_decompressed += s.bytes_decompressed as f64;
            q.stamp_rejections += s.stamp_rejections;
            q.groups_skipped += s.groups_skipped;
            let searches =
                loggrep::Query::parse(query).map_or(1, |p| p.expr.search_strings().len());
            q.group_checks += archive.capsule_box().groups.len() * searches;
            q.rows_verified += s.rows_verified;
            q.hits += result.line_numbers.len();
            if let Some(literal) = mix::longest_literal(query) {
                let scanned = rec.span("strsearch.scan", id, |_| {
                    scan_payloads(&side.payloads[op.log], &literal)
                });
                q.scan_bytes += scanned as f64;
            }
        });
    }
    q
}

/// Runs each aggregate once, cold; returns (latency ms, answered from
/// metadata or a dictionary) per aggregate.
fn replay_aggs(rec: &mut Recorder, archives: &[Archive], ops: &[Op]) -> Vec<(f64, bool)> {
    let mut out = Vec::new();
    for op in ops {
        let Request::Agg { filter, spec } = &op.request else {
            continue;
        };
        let id = rec.next_op();
        let archive = &archives[op.log];
        archive.clear_caches();
        if let Ok(r) = rec.span("query.agg", id, |_| {
            archive.query_agg(filter.as_deref(), spec)
        }) {
            let pushed = matches!(
                r.stats.agg_layer,
                Some(AggLayer::Metadata | AggLayer::Dictionary)
            );
            out.push((rec.last_secs() * 1e3, pushed));
        }
    }
    out
}

/// Geometric mean over operations timed in both loops of
/// `median(a) / median(b)`.
fn paired_ratio(a: &LoopStats, b: &LoopStats, ops: usize) -> f64 {
    let (a, b) = (a.per_op_median(ops), b.per_op_median(ops));
    let logs: Vec<f64> = a
        .iter()
        .zip(&b)
        .filter_map(|(x, y)| Some((x.as_ref()? / y.as_ref()?).ln()))
        .collect();
    if logs.is_empty() {
        return 1.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Runs the traced run of `opts.workload` on `p`.
pub fn traced_run(p: &mut Prepared, opts: &Options, budget: Duration) -> Traced {
    let mut rec = Recorder::new();

    let compress = replay_compress(&mut rec, &p.logs);
    let secs = |name: &str| rec.self_secs(name);
    let parse = secs("logparse.train") + secs("logparse.parse_chunk") + secs("logparse.merge");
    let extract = secs("extract.vector");
    let encode = secs("codec.encode");
    let decode_rate = compress.payload_bytes / secs("codec.decode");
    let unattributed_compress = 1.0 - (parse + extract + encode) / secs("engine.compress");
    let raw_mb = compress.raw_bytes / 1e6;
    let serialize = secs("boxfile.serialize");
    let open = secs("boxfile.open");

    let line_ops: Vec<Op> = match p.workload {
        Workload::Ingest => mix::catalog_ops(&p.logs),
        _ => p
            .ops
            .iter()
            .filter(|o| !o.request.is_agg())
            .cloned()
            .collect(),
    };
    let agg_ops: Vec<Op> = match p.workload {
        Workload::GrepSelective => p
            .ops
            .iter()
            .filter(|o| o.request.is_agg())
            .cloned()
            .collect(),
        _ => mix::agg_ops(opts.seed, &p.logs, &compress.archives),
    };
    let q = replay_queries(&mut rec, &compress, &line_ops);
    let scan_rate = q.scan_bytes / rec.self_secs("strsearch.scan");
    let plan_secs: f64 = q.plan_ms.iter().sum::<f64>() / 1e3;
    let modelled =
        plan_secs + q.bytes_decompressed / decode_rate + q.bytes_decompressed / scan_rate;
    let aggs = replay_aggs(&mut rec, &compress.archives, &agg_ops);
    let agg_ms: Vec<f64> = aggs.iter().map(|a| a.0).collect();

    let ops = p.ops_len();
    let mut cycle = mix::Cycle::new(opts.seed, ops);
    let passes = [Pass::Plain, Pass::Traced, Pass::Serial];
    let [plain, traced, serial]: [LoopStats; 3] = p
        .timed_loop(budget, &mut cycle, &passes, &mut rec)
        .try_into()
        .expect("one result per pass");

    let per_op = |total: f64| total / q.ops.max(1) as f64;
    let metric = Metric::new;
    let metrics = vec![
        metric("logparse.parse_ms_per_mb", parse * 1e3 / raw_mb, "ms/MB"),
        metric(
            "logparse.catch_all_frac",
            compress.catch_all_lines as f64 / compress.lines.max(1) as f64,
            "fraction",
        ),
        metric("extract.ms_per_mb", extract * 1e3 / raw_mb, "ms/MB"),
        metric("extract.real_vectors", compress.real as f64, "count"),
        metric("extract.nominal_vectors", compress.nominal as f64, "count"),
        metric("extract.plain_vectors", compress.plain as f64, "count"),
        metric(
            "codec.encode_mb_s",
            compress.payload_bytes / 1e6 / encode,
            "MB/s",
        ),
        metric(
            "codec.stored_per_payload_byte",
            compress.stored_bytes / compress.payload_bytes,
            "fraction",
        ),
        metric("codec.decode_mb_s", decode_rate / 1e6, "MB/s"),
        metric(
            "boxfile.serialize_ms_per_mb",
            serialize * 1e3 / raw_mb,
            "ms/MB",
        ),
        metric("boxfile.open_ms_per_mb", open * 1e3 / raw_mb, "ms/MB"),
        metric(
            "engine.compress_unattributed_frac",
            unattributed_compress,
            "fraction",
        ),
        metric("query.plan_ms", median(&q.plan_ms), "ms"),
        metric(
            "query.capsules_decompressed_per_op",
            per_op(q.capsules as f64),
            "count",
        ),
        metric(
            "query.bytes_decompressed_per_op",
            per_op(q.bytes_decompressed),
            "bytes",
        ),
        metric(
            "query.stamp_rejections_per_op",
            per_op(q.stamp_rejections as f64),
            "count",
        ),
        metric(
            "query.groups_skipped_frac",
            q.groups_skipped as f64 / q.group_checks.max(1) as f64,
            "fraction",
        ),
        metric(
            "query.rows_verified_per_hit",
            q.rows_verified as f64 / q.hits.max(1) as f64,
            "count",
        ),
        metric("strsearch.scan_mb_s", scan_rate / 1e6, "MB/s"),
        metric(
            "query.unattributed_frac",
            1.0 - modelled / q.exec_secs,
            "fraction",
        ),
        metric("pool.threads", pool::default_threads() as f64, "count"),
        metric("pool.scan_speedup", paired_ratio(&serial, &plain, ops), "x"),
        metric(
            "agg.pushdown_frac",
            aggs.iter().filter(|a| a.1).count() as f64 / aggs.len().max(1) as f64,
            "fraction",
        ),
        metric("agg.ms_p50", median(&agg_ms), "ms"),
        metric(
            "trace.overhead_frac",
            paired_ratio(&traced, &plain, ops) - 1.0,
            "fraction",
        ),
    ];

    let loops = [&plain, &traced, &serial];
    Traced {
        metrics,
        trace_json: rec.to_json(),
        attempted: loops.iter().map(|s| s.samples.len() as u64).sum(),
        failed: loops.iter().map(|s| s.failed).sum(),
    }
}
