//! The benchmark's own contract: every metric named in `BENCHMARK.json` is
//! printed with its unit, metric names do not depend on the seed, and a
//! wrong answer is counted as failed.

use perfbench::{run, Options, Report, Size, Workload};
use telemetry::json::{self, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let src = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&src).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            (
                m.str("name").unwrap().to_string(),
                m.str("unit").unwrap().to_string(),
            )
        })
        .collect()
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.2,
        trace,
        size: Size::TINY,
        drop_line: false,
    }
}

/// The result line parsed back, with its `(name, unit)` pairs.
fn printed(report: &Report) -> (Value, Vec<(String, String)>) {
    let line = json::parse(&report.json_line()).expect("the result line is JSON");
    let Some(Value::Obj(top)) = Some(&line) else {
        panic!("result line is not an object");
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let Some(Value::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics is not an object");
    };
    let pairs = metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.num("value").is_some(), "{name} has no numeric value");
            (name.clone(), m.str("unit").expect("unit").to_string())
        })
        .collect();
    (line, pairs)
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn benchmark_json_names_every_workload() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.str("name").unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn tiny_runs_print_every_declared_metric_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&tiny(workload, 7, trace));
            let (line, pairs) = printed(&report);
            assert_eq!(
                sorted(pairs),
                sorted(declared(section)),
                "{} trace={trace}",
                workload.name()
            );
            assert_eq!(
                line.get("correct"),
                Some(&Value::Bool(true)),
                "{}",
                workload.name()
            );
            assert_eq!(line.num("failed"), Some(0.0));
            assert!(line.num("attempted").unwrap() >= 1.0);
        }
    }
}

#[test]
fn another_seed_yields_the_same_metric_names() {
    for workload in Workload::ALL {
        let a = printed(&run(&tiny(workload, 1, false))).1;
        let b = printed(&run(&tiny(workload, 2, false))).1;
        assert_eq!(a, b, "{}", workload.name());
    }
}

#[test]
fn a_dropped_line_counts_as_failed() {
    for workload in Workload::ALL {
        let report = run(&Options {
            drop_line: true,
            ..tiny(workload, 3, false)
        });
        assert!(!report.correct, "{}", workload.name());
        assert!(report.failed > 0, "{}", workload.name());
        assert!(report.failed_frac() > 0.0 && report.failed_frac() <= 1.0);
    }
}
