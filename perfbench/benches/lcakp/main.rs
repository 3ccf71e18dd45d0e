//! LCA-KP benchmark: three workloads through the public API of the
//! `oracle`, `reproducible`, `knapsack`, `core`, `service` and
//! `service::cluster` layers.
//!
//! ```text
//! lcakp --workload <e14-core|large-n-batch|cluster-hot-shard> --seed <n>
//!       --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! Every input derives from `--seed`. The untraced run (`--trace 0`)
//! prints the end-to-end metrics; the traced run (`--trace 1`) records
//! spans around each layer call, writes them to `--trace-dir`, and
//! prints the per-layer metrics. Both check the answers outside the
//! timed region and print, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod batch;
mod cluster;
mod common;
mod e14;
mod schema;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use lcakp_oracle::Seed;

use crate::common::Report;

#[global_allocator]
static COUNTER: alloc::CountingAlloc = alloc::CountingAlloc;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    pub trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut trace_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        // `cargo bench` appends `--bench`; nothing else is expected.
        if flag == "--bench" {
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let secs = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {secs}"));
                }
                seconds = Some(Duration::from_secs_f64(secs));
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        traced: traced.unwrap_or(false),
        trace_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("lcakp: {message}");
            std::process::exit(2);
        }
    };
    // Every stream of every workload derives from this one root.
    let root = Seed::from_entropy_u64(args.seed);
    let report: Report = match args.workload.as_str() {
        "e14-core" => e14::run(&root, &args),
        "large-n-batch" => batch::run(&root, &args),
        "cluster-hot-shard" => cluster::run(&root, &args),
        other => {
            eprintln!("lcakp: unknown workload {other}");
            std::process::exit(2);
        }
    };

    let a = report.accounting;
    println!(
        "workload={} seed={} trace={} attempted={} answered={} degraded={} late={} shed={} \
         errored={}",
        args.workload,
        args.seed,
        u8::from(args.traced),
        a.attempted,
        a.answered,
        a.degraded,
        a.late,
        a.shed,
        a.errored
    );
    for note in &report.notes {
        println!("{note}");
    }
    for (name, passed) in &report.checks {
        println!("check {name}: {}", if *passed { "pass" } else { "FAIL" });
    }
    println!("{}", report.json());
}

/// Writes the traced run's spans to `--trace-dir`, when given.
pub fn save_trace(args: &Args, recorder: &trace::Recorder, report: &mut Report) {
    let Some(dir) = &args.trace_dir else {
        return;
    };
    let path = dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
    match recorder.write(&path) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(error) => report.check(format!("spans-written ({error})"), false),
    }
}
