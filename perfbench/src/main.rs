//! `cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints one `name value unit` line per metric, an envelope line, and as
//! the last line the JSON result object.

use std::process::ExitCode;

fn main() -> ExitCode {
    let outcome = perfbench::Args::parse(std::env::args().skip(1))
        .and_then(|args| perfbench::run(&args))
        .and_then(|outcome| Ok((outcome.result_line()?, outcome)));
    match outcome {
        Ok((line, outcome)) => {
            for l in outcome.report_lines() {
                println!("{l}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
