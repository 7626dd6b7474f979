//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its result as the last line of standard
//! output. Progress and failures go to standard error.

use perfbench::{execute, Options};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <expander10k_sim|expander10k_sharded|dblp_smallworld16> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match execute(&opts) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
