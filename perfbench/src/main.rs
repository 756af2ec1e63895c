//! The TPUPoint end-to-end ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <characterize|fleet|optimize> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs passes of one workload for the given time and prints, as its
//! last stdout line, one JSON object: whether every output check held,
//! the operations attempted and failed, and the end-to-end metrics
//! (`--trace 0`) or the traced per-layer split (`--trace 1`). The line
//! before it records the run's provenance. See `perfbench/README.md`.

mod characterize;
mod digest;
mod fleet;
mod heap;
mod ledger;
mod obsload;
mod optimize;
mod scrape;
mod stats;
mod timing;

use std::path::PathBuf;
use std::process::ExitCode;

use ledger::{Ctx, Ledger};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str =
    "usage: perfbench --workload <characterize|fleet|optimize> --seed <n> --seconds <s> --trace <0|1>";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => match value.as_str() {
                "characterize" | "fleet" | "optimize" => workload = Some(value.clone()),
                other => return Err(format!("unknown workload {other:?}")),
            },
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            },
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The git revision of the working directory, when it is a repository.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unavailable".to_owned(), |rev| rev.trim().to_owned())
}

fn provenance(args: &Args, ledger: &Ledger) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let (p99, beyond) = ledger.scrape_p99_ms();
    let digest = ledger
        .digest
        .as_ref()
        .map_or_else(|| "null".to_owned(), |d| format!("\"{d}\""));
    format!(
        concat!(
            "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, ",
            "\"seconds\": {}, \"host_cores\": {}, \"par_workers\": {}, \"git_rev\": \"{}\", ",
            "\"untraced_passes\": {}, \"traced_passes\": {}, \"scrapes\": {}, ",
            "\"scrape_p99_ms\": {}, \"samples_beyond_p99\": {}, ",
            "\"peak_rss_mib\": {}, \"digest\": {}, \"digest_recorded\": {}}}}}"
        ),
        args.workload,
        args.seed,
        args.trace,
        args.seconds,
        cores,
        tpupoint_par::current_threads(),
        git_revision(),
        ledger.wall_s.len(),
        ledger.traced_wall_s.len(),
        ledger.scrapes.latency_ms.len(),
        p99,
        beyond,
        stats::median(&ledger.rss_mib),
        digest,
        digest::recorded(&args.workload, args.seed).is_some(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every file the benchmark writes stays under the working directory.
    let base = PathBuf::from(".perfbench-work");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: base.join(format!("{}-{}", args.workload, std::process::id())),
    };
    let mut ledger = Ledger::default();
    let outcome = std::fs::create_dir_all(&ctx.work).and_then(|()| match args.workload.as_str() {
        "characterize" => characterize::run(&ctx, &mut ledger),
        "fleet" => fleet::run(&ctx, &mut ledger),
        _ => optimize::run(&ctx, &mut ledger),
    });
    let cleanup = std::fs::remove_dir_all(&ctx.work);
    // Leaves the base directory if another run still uses it.
    let _ = std::fs::remove_dir(&base);
    if let Err(err) = outcome.and(cleanup) {
        eprintln!("error: {err}");
        return ExitCode::FAILURE;
    }
    println!("{}", provenance(&args, &ledger));
    println!("{}", ledger.result_json(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let args =
            parse_args(&argv("--workload fleet --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            args,
            Args {
                workload: "fleet".to_owned(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fleet --seed x --seconds 1 --trace 0",
            "--workload fleet --seed 1 --seconds 1 --trace 2",
            "--workload fleet --seed 1 --seconds 1",
            "--workload fleet --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
