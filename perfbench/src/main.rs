//! End-to-end and per-layer benchmark of the MATE engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot_opendata|lake_opendata_paged|ingest_webtables|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--workload all` runs the three workloads one after the
//! other in this process and prints one such line per workload, each with
//! a leading `"workload"` key. Scratch files go to `.bench_work/` under the
//! current directory and are removed before exit. Diagnostics go to
//! standard error.

mod gen;
mod measure;
mod trace;
mod vfs;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Report, Settings};

type Workload = fn(&Settings) -> Result<Report, String>;

const WORKLOADS: [(&str, Workload); 3] = [
    ("hot_opendata", workloads::hot_opendata),
    ("lake_opendata_paged", workloads::lake_opendata_paged),
    ("ingest_webtables", workloads::ingest_webtables),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
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
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|(n, _)| *n == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Formats a metric value with every digit Rust's shortest round-trip
/// representation has; non-finite values (which JSON cannot carry) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn json_line(workload: Option<&str>, rep: &Report) -> String {
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    let prefix = workload.map_or(String::new(), |w| format!("\"workload\": \"{w}\", "));
    format!(
        "{{{prefix}\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failed == 0 && !rep.mismatch,
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let mut status = ExitCode::SUCCESS;
    for (name, run) in WORKLOADS {
        if args.workload != "all" && args.workload != name {
            continue;
        }
        let settings = Settings {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            work: root.join(format!("{name}-{}", std::process::id())),
        };
        let result = run(&settings);
        let _ = std::fs::remove_dir_all(&settings.work);
        match result {
            Ok(rep) => {
                let tag = (args.workload == "all").then_some(name);
                println!("{}", json_line(tag, &rep));
            }
            Err(e) => {
                eprintln!("[perfbench] {name}: {e}");
                status = ExitCode::FAILURE;
            }
        }
    }
    let _ = std::fs::remove_dir(&root);
    status
}
