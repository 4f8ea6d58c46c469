//! The repository's benchmark. See `bench/README.md`.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1   one run of one workload
//! bench [--seed N] [--seconds S] [--trace 0|1]             every workload, each in a child process
//! bench compare A.json B.json                              apply the bounds to two result files
//! ```

mod compare;
mod drive;
mod layers;
mod metrics;
mod micro;
mod process;
mod report;
mod run;
#[cfg(test)]
mod smoke;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use run::{RunArgs, RunOutput, Sizes};
use workloads::{Workload, WORKLOADS};

/// Where every file the benchmark writes goes, relative to the repository
/// root (`bench/run.sh` changes into it).
const OUT_DIR: &str = "bench/out";

struct Cli {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    /// `None`: both passes (only meaningful without `--workload`).
    trace: Option<bool>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: 12,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(workloads::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(1..=60).contains(&cli.seconds) {
                    return Err("--seconds must be within 1..=60".into());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(cli)
}

/// Where one run's record is written (and where `run_all` collects it).
fn run_file(w: &Workload, seed: u64, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "run-{}-{seed}-trace{}.json",
        w.name,
        u8::from(trace)
    ))
}

/// One run of one workload in this process. Prints every metric, then the
/// result object as the last line of standard output.
fn run_one(w: &'static Workload, cli: &Cli, trace: bool) -> ExitCode {
    let args = RunArgs {
        workload: w,
        seed: cli.seed,
        sizes: Sizes::for_seconds(w, cli.seconds),
        out_dir: Path::new(OUT_DIR),
    };
    // Before any thread is spawned: they inherit the mask.
    let cpu = process::pin_to_one_cpu();
    println!(
        "{} | seed {} | {} s | {} | {} clients | {}",
        w.name,
        cli.seed,
        cli.seconds,
        if trace { "traced pass" } else { "plain pass" },
        workloads::CLIENTS,
        cpu.map_or("NOT pinned (the kernel refused)".to_string(), |c| format!(
            "pinned to cpu {c}"
        )),
    );
    println!("  why: {}", w.why);
    let out: RunOutput = if trace {
        run::run_traced(&args)
    } else {
        run::run_plain(&args)
    };
    report::print_metrics(&out.metrics);
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
    if out.unstable() {
        println!(
            "  unstable: the reference kernel's timings spread by more than 10 % during this run"
        );
    }
    if let Some(p) = &out.spans_file {
        println!("  spans: {}", p.display());
    }
    let record = report::run_record(w.name, cli.seed, cli.seconds, trace, &out);
    let path = run_file(w, cli.seed, trace);
    if let Err(e) = report::write_json(&path, &record) {
        eprintln!("bench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", report::result_line(&out));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each pass in its own child process (so `peak_rss_mb`
/// is per workload and pass), merged into `bench/out/result-<seed>.json`.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let passes: &[bool] = match cli.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let out_dir = Path::new(OUT_DIR);
    let mut runs = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        for &trace in passes {
            let status = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .status();
            ok &= matches!(&status, Ok(s) if s.success());
            if let Err(e) = status {
                eprintln!("bench: cannot run {}: {e}", w.name);
                continue;
            }
            let path = run_file(w, cli.seed, trace);
            match report::read_json(&path) {
                Ok(record) => runs.push(record),
                Err(e) => {
                    eprintln!("bench: {e}");
                    ok = false;
                }
            }
        }
    }
    let path = out_dir.join(format!("result-{}.json", cli.seed));
    match report::write_json(&path, &report::result_file(cli.seed, runs)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("bench: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: at least one run was incorrect or did not finish");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("usage: bench compare A.json B.json");
            return ExitCode::from(2);
        };
        return match (
            report::read_json(Path::new(a)),
            report::read_json(Path::new(b)),
        ) {
            (Ok(a), Ok(b)) => match compare::compare(&a, &b) {
                0 => ExitCode::SUCCESS,
                n => {
                    println!("{n} row(s) worse");
                    ExitCode::FAILURE
                }
            },
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    match cli.workload {
        Some(w) => run_one(w, &cli, cli.trace.unwrap_or(false)),
        None => run_all(&cli),
    }
}
