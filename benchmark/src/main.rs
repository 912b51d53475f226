//! The benchmark's command line. See `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use zygos_benchmark::compare::compare;
use zygos_benchmark::orchestrate::{self, RunArgs};
use zygos_benchmark::single::{self, default_out_dir, SingleArgs};

const USAGE: &str = "\
usage: benchmark [run] [--seed N] [--quick] [--out DIR]
           the whole benchmark: timed pass, traced pass, out/results.json
       benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
           one run of one workload; its result is the last line of stdout
       benchmark compare A.json B.json
           two results of `run`, row by row";

/// `--flag value` pairs and bare flags, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn take_value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.take_value(flag)?
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")))
            .transpose()
    }

    fn take_bare(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

fn dispatch(mut args: Vec<String>) -> Result<bool, String> {
    if args.first().is_some_and(|a| a == "compare") {
        let [_, a, b] = args.as_slice() else {
            return Err("compare takes two result files".to_string());
        };
        return compare(&PathBuf::from(a), &PathBuf::from(b));
    }
    if args.first().is_some_and(|a| a == "run") {
        args.remove(0);
    }
    let mut flags = Flags(args);
    let seed = flags.take_parsed("--seed")?.unwrap_or(1);
    let quick = flags.take_bare("--quick");
    let out = flags
        .take_value("--out")?
        .map_or_else(default_out_dir, PathBuf::from);
    let Some(workload) = flags.take_value("--workload")? else {
        flags.finish()?;
        return orchestrate::run(&RunArgs { seed, quick, out });
    };
    let seconds: f64 = flags.take_parsed("--seconds")?.unwrap_or(10.0);
    let trace = match flags.take_value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    flags.finish()?;
    if !(0.0..=3_600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let result = single::run(&SingleArgs {
        workload,
        seed,
        seconds,
        trace,
        quick,
        out,
    })?;
    println!("{}", result.line.to_line());
    Ok(result.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match dispatch(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
