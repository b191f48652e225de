//! Parallelism must be invisible in the output: compressing with N worker
//! threads yields the byte-identical CapsuleBox a serial run produces, and a
//! parallel query returns the same lines — and does the same amount of
//! selective-decompression work — as a serial one.
//!
//! Both properties hold by construction (capsule ids are assigned at
//! submission and committed in submission order; query workers share the
//! per-Capsule payload caches, decompressing each Capsule exactly once);
//! these tests pin the construction down across the full workloads catalog.

use loggrep::{LogGrep, LogGrepConfig};
use logparse::DEFAULT_DELIMS;
use std::collections::{HashMap, HashSet};

/// Per-log raw size for the catalog sweeps: big enough to exercise the
/// parallel paths (several groups, thousands of rows), small enough that a
/// 37-log sweep stays fast.
const LOG_BYTES: usize = 48 * 1024;

fn engine(threads: usize) -> LogGrep {
    LogGrep::new(LogGrepConfig {
        threads,
        ..LogGrepConfig::default()
    })
}

#[test]
fn parallel_compression_is_byte_identical_to_serial() {
    for spec in workloads::all_logs() {
        let raw = spec.generate(11, LOG_BYTES);
        let serial = engine(1).compress(&raw).unwrap().to_bytes();
        for threads in [2, 4] {
            let parallel = engine(threads).compress(&raw).unwrap().to_bytes();
            assert_eq!(
                serial, parallel,
                "{}: {threads}-thread archive differs from serial",
                spec.name
            );
        }
    }
}

#[test]
fn parallel_query_matches_serial_results_and_work() {
    for spec in workloads::all_logs() {
        let raw = spec.generate(23, LOG_BYTES);
        let serial_engine = engine(1);
        let serial = serial_engine.open(serial_engine.compress(&raw).unwrap());
        let parallel_engine = engine(4);
        let parallel = parallel_engine.open(parallel_engine.compress(&raw).unwrap());
        for command in &spec.queries {
            let s = serial.query(command).unwrap();
            let p = parallel.query(command).unwrap();
            assert_eq!(
                s.line_numbers, p.line_numbers,
                "{}: `{command}` line numbers differ",
                spec.name
            );
            assert_eq!(s.lines, p.lines, "{}: `{command}` lines differ", spec.name);
            assert_eq!(
                s.stats.capsules_decompressed, p.stats.capsules_decompressed,
                "{}: `{command}` did different decompression work",
                spec.name
            );
        }
    }
}

#[test]
fn wildcard_scan_is_deterministic_across_thread_counts() {
    // A wildcard search verifies candidate rows by reconstruction, so this
    // drives the heaviest parallel path: chunked row verification plus
    // chunked reconstruct. `wor*er` matches (nearly) every Log C line.
    let spec = workloads::by_name("Log C").unwrap();
    let raw = spec.generate(7, 96 * 1024);
    let serial_engine = engine(1);
    let serial = serial_engine.open(serial_engine.compress(&raw).unwrap());
    let s = serial.query("wor*er").unwrap();
    assert!(!s.lines.is_empty());
    for threads in [2, 4, 8] {
        let e = engine(threads);
        let a = e.open(e.compress(&raw).unwrap());
        let p = a.query("wor*er").unwrap();
        assert_eq!(s.line_numbers, p.line_numbers, "{threads} threads");
        assert_eq!(s.lines, p.lines, "{threads} threads");
        assert_eq!(
            s.stats.capsules_decompressed, p.stats.capsules_decompressed,
            "{threads} threads"
        );
    }
}

/// Per-log raw size for the scan sweep: enough lines that scan queries
/// cross the parallel verify/reconstruct thresholds on short-line logs.
const SCAN_LOG_BYTES: usize = 320 * 1024;

/// A plain alphanumeric token on at least a quarter of the lines of `raw`,
/// the one whose line share is nearest one half (ties: smallest token).
/// `None` when no token is that common.
fn common_token(raw: &[u8]) -> Option<String> {
    let lines = loggrep::engine::split_lines(raw);
    let mut on_lines: HashMap<&[u8], usize> = HashMap::new();
    for line in &lines {
        let tokens: HashSet<&[u8]> = line
            .split(|b| DEFAULT_DELIMS.contains(b))
            .filter(|t| t.len() >= 3 && t.iter().all(u8::is_ascii_alphanumeric))
            .collect();
        for t in tokens {
            *on_lines.entry(t).or_insert(0) += 1;
        }
    }
    let half = lines.len() / 2;
    on_lines
        .into_iter()
        .filter(|&(t, n)| 4 * n >= lines.len() && !matches!(t, b"and" | b"or" | b"not"))
        .min_by_key(|&(t, n)| (n.abs_diff(half), t))
        .map(|(t, _)| String::from_utf8_lossy(t).into_owned())
}

#[test]
fn scan_queries_match_serial_results_and_work() {
    // Scan queries return a large share of the log, so they drive row
    // rendering through wildcard verification and chunked reconstruction:
    // every thread count must render the same lines from the same
    // decompressed Capsules.
    let mut scanned = 0;
    for spec in workloads::all_logs() {
        let raw = spec.generate(31, SCAN_LOG_BYTES);
        let boxed = engine(1).compress(&raw).unwrap();
        let mut commands = vec!["wor*er".to_string()];
        commands.extend(common_token(&raw));
        let serial = engine(1).open(boxed.clone());
        for command in &commands {
            let s = serial.query(command).unwrap();
            if command != "wor*er" {
                assert!(
                    !s.lines.is_empty(),
                    "{}: `{command}` found nothing",
                    spec.name
                );
            }
            scanned += s.lines.len();
            for threads in [2, 4] {
                let p = engine(threads).open(boxed.clone()).query(command).unwrap();
                let what = format!("{}: `{command}` at {threads} threads", spec.name);
                assert_eq!(
                    s.line_numbers, p.line_numbers,
                    "{what}: line numbers differ"
                );
                assert_eq!(s.lines, p.lines, "{what}: lines differ");
                assert_eq!(
                    s.stats.capsules_decompressed, p.stats.capsules_decompressed,
                    "{what}: decompressed different Capsules"
                );
                assert_eq!(
                    s.stats.bytes_decompressed, p.stats.bytes_decompressed,
                    "{what}: decompressed different bytes"
                );
            }
        }
    }
    assert!(scanned > 0);
}
