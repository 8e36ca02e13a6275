//! The benchmark command.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cnn_cifar --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the run's metrics as one JSON object on the last line of
//! standard output. Invoked with `--connect`, the binary is instead a
//! shard worker of `mixed_process` (see `onesa_core::net::worker_main`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use onesa_perfbench::{run, Options, Workload};

const USAGE: &str =
    "usage: perfbench --workload <cnn_cifar|lm_decode|mixed_process> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Workload, u64, f64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("missing --workload")?,
        seed.ok_or("missing --seed")?,
        seconds.ok_or("missing --seconds")?,
        trace.unwrap_or(false),
    ))
}

/// `perfbench/out`, relative to the working directory when it lies
/// below it: the workers' Unix sockets live there, and a relative path
/// keeps them within the socket-path length limit.
fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(dir)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--connect") {
        return match onesa_core::net::worker_main(args.into_iter()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("perfbench worker: {msg}");
                ExitCode::from(2)
            }
        };
    }
    let (workload, seed, seconds, trace) = match parse(&args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = out_dir();
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        worker: std::env::current_exe().expect("own executable path"),
        out_dir,
        corrupt_one_output: false,
    };
    match run(&opts) {
        Ok(report) => {
            if let Some(o) = report.trace_overhead {
                println!(
                    "tracing overhead: {:.2}% of untraced throughput_rps",
                    o * 100.0
                );
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
