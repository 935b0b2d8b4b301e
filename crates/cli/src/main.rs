//! `transn` — command-line front end for the TransN reproduction.
//!
//! The subcommands and their flags are listed once, in `commands::USAGE`
//! (printed when `transn` runs without arguments). Each command accepts
//! exactly the flags its entry lists; any other flag exits 2.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
