//! `teemon-e2e` — the end-to-end benchmark of the TEEMon reproduction.
//!
//! ```text
//! teemon-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! teemon-e2e all [--seed <n>] [--seconds <s>] [--repeat <k>] [--smoke] [--label <tag>]
//! teemon-e2e compare <A.json> <B.json>
//! ```
//!
//! The first form runs one workload in this process (fresh `teemon_obs`
//! statics, fresh `VmHWM`) and prints every metric by name and unit, then one
//! JSON result object as the last line.  `all` runs every workload, untraced
//! and traced, each in its own child process, and writes a result file;
//! `compare` judges two result files with the bounds in `BENCHMARK.json`.
//! See `README.md` beside this package.

mod client;
mod compare;
mod gen;
mod report;
mod rig;
mod stats;
mod suite;
mod trace;
mod traced;
mod untraced;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

/// `--flag value` pairs after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().position(|a| a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(text) => text.parse().map_err(|_| format!("{flag} {text:?} is not a number")),
        }
    }
}

/// Where WAL directories, traces and result files go: `benchmark/out` when
/// run from the repository root (as the driver does), else `out`.
fn out_dir(args: &Args) -> PathBuf {
    match args.value("--out") {
        Some(dir) => PathBuf::from(dir),
        None if PathBuf::from("benchmark/Cargo.toml").is_file() => PathBuf::from("benchmark/out"),
        None => PathBuf::from("out"),
    }
}

fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").ok_or("missing --workload")?;
    let spec = rig::spec(name).ok_or_else(|| {
        let names: Vec<&str> = rig::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seed: u64 = args.number("--seed", 1)?;
    let seconds: f64 = args.number("--seconds", 10.0)?;
    let traced: u8 = args.number("--trace", 0)?;
    let out = out_dir(args);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    if args.has("--setup-only") {
        // Child of a `--trace 0` run: see `untraced::set_up_repeatedly`.
        return untraced::set_up_only(spec, seed, &out)
            .map(|()| true)
            .map_err(|e| format!("{name}: {e}"));
    }
    let outcome = match traced {
        0 => untraced::run(spec, seed, seconds, &out),
        _ => traced::run(spec, seed, seconds, &out),
    }
    .map_err(|e| format!("{name}: {e}"))?;
    outcome.print(name);
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("all") => suite::run_all(&Args(argv.split_off(1))),
        Some("compare") => compare::run(&argv.split_off(1)),
        Some(_) => run_one(&Args(argv)),
        None => Err("usage: teemon-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     | all [...] | compare <A.json> <B.json>"
            .to_string()),
    };
    match result {
        // Failed operations and checks are reported in the result object
        // (`correct`, `failed`); the exit code says the run itself completed.
        Ok(_) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("teemon-e2e: {why}");
            ExitCode::FAILURE
        }
    }
}
