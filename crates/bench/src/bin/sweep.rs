//! Runs one row of the experiment table (`dibs_bench::sweep`): Figs 1–16,
//! the §5.5–§5.6 tables and the §6/§7 ablations.
//!
//! ```text
//! cargo run -p dibs-bench --release --bin sweep -- fig09_query_rate
//! cargo run -p dibs-bench --release --bin sweep -- fig13_ttl --quick --seed 7 --jobs 4
//! cargo run -p dibs-bench --release --bin sweep -- fig01_detour_path --trace all
//! ```
//!
//! The id comes first, then `--quick`/`--full`, `--jobs N`, `--seed N` and
//! `--trace SPEC` (which replaces the Fig 1–2 capture and writes it as
//! Chrome JSON). A missing or unknown id exits 2 listing the valid ids; a
//! row whose runs make no figure (Figs 1–2 without a detoured delivery)
//! exits 1 and writes no record.

use dibs_bench::{sweep, Harness};
use std::process::ExitCode;

const USAGE: &str =
    "Usage: sweep <id> [--quick|--default|--full] [--jobs N] [--seed N] [--trace SPEC]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let found = match args.first() {
        Some(id) => sweep::find(id),
        None => Err(format!(
            "missing sweep id; valid ids: {}",
            sweep::ids().join(", ")
        )),
    };
    let row = match found {
        Ok(row) => row,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let h = Harness::from_args(&args[1..]);
    match sweep::run(&row, &h) {
        Ok((record, text)) => {
            print!("{text}");
            h.finish(&record);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
