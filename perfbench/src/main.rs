//! The repository benchmark: one command that runs a named workload from a
//! seed, checks the program's outputs, and prints every metric by name
//! with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ecg-merge|ecg-batch64|rram-paper|stream-fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Load comes from one thread of this process against a 2-worker serve
//! pool. All inputs are generated from the seed before timing starts.
//! With `--trace 0` the run measures for `--seconds` and reports the
//! end-to-end metrics; with `--trace 1` it measures half the time
//! untraced and half traced, then reports the per-layer ledger (see
//! [`layers`]). The last line of standard output is the result object;
//! the lines before it are the human-readable ledger and the run's stamp.

mod adapter;
mod fleet;
mod layers;
mod replay;
mod report;
mod serve_load;
mod stats;
mod trace;

/// Environment variables that change which code is measured.
const REFUSED_ENV: [&str; 2] = ["RBNN_EXECUTOR", "RBNN_KERNELS"];

const USAGE: &str = "usage: perfbench --workload <ecg-merge|ecg-batch64|rram-paper|stream-fleet> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-sample requests merged by the batcher (serve path dominates).
    EcgMerge,
    /// 64-sample zero-copy windows (fused kernel dominates).
    EcgBatch64,
    /// Paper-scale model on the RRAM backend (sense sweeps dominate).
    RramPaper,
    /// 64 streamed patients (segmentation and router dominate).
    StreamFleet,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::EcgMerge,
        Workload::EcgBatch64,
        Workload::RramPaper,
        Workload::StreamFleet,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EcgMerge => "ecg-merge",
            Workload::EcgBatch64 => "ecg-batch64",
            Workload::RramPaper => "rram-paper",
            Workload::StreamFleet => "stream-fleet",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured time.
    pub seconds: u64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                    workload = Some(w.ok_or(format!("unknown workload {value}"))?);
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(1..=600).contains(&s) {
                        return Err(format!("seconds {s} out of 1..=600"));
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
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("refusing to run: {var} is set, and it changes which code is measured");
            std::process::exit(2);
        }
    }
    let outcome = match args.workload {
        Workload::EcgMerge => serve_load::run(&serve_load::ECG_MERGE, &args),
        Workload::EcgBatch64 => serve_load::run(&serve_load::ECG_BATCH64, &args),
        Workload::RramPaper => serve_load::run(&serve_load::RRAM_PAPER, &args),
        Workload::StreamFleet => fleet::run(&args),
    };
    report::print_result(args.trace, &outcome);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload rram-paper --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::RramPaper);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload ecg-merge --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload ecg-merge --seed 1 --seconds 1").is_err());
        assert!(parse("--workload ecg-merge --seed 1 --seconds 0 --trace 0").is_err());
    }
}
