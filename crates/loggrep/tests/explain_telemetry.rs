//! `Archive::explain` is a probe run of the executor's filter stage, and a
//! traced `loggrep query` calls it after the query but before exporting
//! telemetry: the probe must record no counters and no spans.
//!
//! This is its own test binary because telemetry's enable flag is
//! process-wide: a concurrently running query elsewhere in the same
//! process would move the counters under test.

use loggrep::{LogGrep, LogGrepConfig};

const COUNTERS: [&str; 3] = [
    "query.capsules_decompressed",
    "query.stamp_rejections",
    "query.groups_skipped",
];

/// Between them these move every counter above when executed: a Capsule
/// scan, a stamp rejection, and a planner skip.
const QUERIES: [&str; 4] = ["0040", "004000", "zzz-never", "jo*b or crash"];

#[test]
fn explain_records_no_query_telemetry() {
    let mut raw = Vec::new();
    for i in 0..200 {
        raw.extend_from_slice(format!("alpha job {i:04} fine\n").as_bytes());
        if i % 20 == 0 {
            raw.extend_from_slice(format!("beta crash {i:04} bad\n").as_bytes());
        }
        if i % 50 == 0 {
            // No variable at all: any keyword not in it is a planner skip.
            raw.extend_from_slice(b"gamma restart done\n");
        }
    }
    let archive = LogGrep::new(LogGrepConfig::default())
        .compress_to_archive(&raw)
        .unwrap();

    telemetry::set_enabled(true);
    let before = telemetry::snapshot();
    for q in QUERIES {
        archive.explain(q).unwrap();
    }
    let explained = telemetry::snapshot();
    for q in QUERIES {
        archive.query(q).unwrap();
    }
    let executed = telemetry::snapshot();
    telemetry::set_enabled(false);

    for c in COUNTERS {
        assert_eq!(explained.counter(c), before.counter(c), "explain moved `{c}`");
        assert!(
            executed.counter(c) > explained.counter(c),
            "executing the queries never moved `{c}`"
        );
    }
    assert!(
        explained.histogram("literal").is_none(),
        "explain recorded filter-stage spans"
    );
}
