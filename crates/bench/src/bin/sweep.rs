//! Runs one row of the sweep table (`dibs_bench::sweep`): Figs 7–16, the
//! §5.5–§5.6 tables and the §6/§7 ablations.
//!
//! ```text
//! cargo run -p dibs-bench --release --bin sweep -- fig09_query_rate
//! cargo run -p dibs-bench --release --bin sweep -- fig13_ttl --quick --seed 7 --jobs 4
//! ```
//!
//! The id comes first; the flags after it are the ones every figure binary
//! takes (`--quick`/`--full`, `--jobs N`, `--seed N`). A missing or unknown
//! id exits 2 with the list of valid ids.

use dibs_bench::{sweep, Harness};
use std::process::ExitCode;

const USAGE: &str = "Usage: sweep <id> [--quick|--default|--full] [--jobs N] [--seed N]";

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
    h.finish(&sweep::run(&row, &h));
    ExitCode::SUCCESS
}
