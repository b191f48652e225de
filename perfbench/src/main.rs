//! Command-line entry point of the LogGrep benchmark.
//!
//! ```text
//! perfbench --workload <ingest|grep-selective|grep-scan> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's identity and notes, then, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. The traced run
//! also writes its spans to `out/trace-<workload>-<seed>.json` in the
//! benchmark's directory.

#![forbid(unsafe_code)]

use perfbench::{run, Options, Size, Workload};
use std::process::ExitCode;

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::GrepSelective,
        seed: 42,
        seconds: 10.0,
        trace: false,
        size: Size::FULL,
        drop_line: false,
    };
    let mut workload = None;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
        i += 2;
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&argv) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    println!("identity: {}", report.identity.to_json());
    for note in &report.notes {
        println!("note: {note}");
    }
    for m in &report.metrics {
        println!(
            "{} {}: {} {}",
            opts.workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    println!(
        "failed_frac: {} ({} of {})",
        report.failed_frac(),
        report.failed,
        report.attempted
    );
    if let Some(trace) = &report.trace_json {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", opts.workload.name(), opts.seed));
        let body = format!(
            "{{\"identity\": {}, \"trace\": {trace}}}\n",
            report.identity.to_json()
        );
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
