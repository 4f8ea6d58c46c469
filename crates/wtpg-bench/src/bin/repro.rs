//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [OPTIONS] <ARTEFACT>...
//!
//! ARTEFACT:  table1 | fig6 | fig7 | fig8 | fig9 | fig10 | all
//!
//! OPTIONS:
//!   --quick         300k-ms runs, 1 replication (default)
//!   --full          paper-scale: 2,000,000-ms runs, 3 replications
//!   --sim-ms N      override simulated milliseconds per run
//!   --seeds N       override replication count
//!   --seed N        override base RNG seed
//!   --json FILE     also dump the structured results as JSON
//! ```

#![forbid(unsafe_code)]
#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::panic,
    clippy::disallowed_methods,
    reason = "a measurement driver: it times its runs on the wall clock and fails loudly by design"
)]

use std::collections::BTreeMap;

use wtpg_bench::ablations::{self, render_ablation};
use wtpg_bench::drivers::{self, render_fig10, render_fig6, render_fig7, render_fig8, render_fig9};
use wtpg_bench::mixed_ext;
use wtpg_bench::waits;
use wtpg_bench::replicate::RunOptions;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = RunOptions::quick();
    let mut artefacts: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts = RunOptions::quick(),
            "--full" => opts = RunOptions::full(),
            "--sim-ms" => {
                i += 1;
                opts.sim_length_ms = args[i].parse().expect("--sim-ms takes a number");
            }
            "--seeds" => {
                i += 1;
                opts.replications = args[i].parse().expect("--seeds takes a number");
            }
            "--seed" => {
                i += 1;
                opts.seed = args[i].parse().expect("--seed takes a number");
            }
            "--json" => {
                i += 1;
                json_path = Some(args[i].clone());
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            a if a.starts_with('-') => {
                eprintln!("unknown option {a}");
                print_help();
                std::process::exit(2);
            }
            a => artefacts.push(a.to_string()),
        }
        i += 1;
    }
    if artefacts.is_empty() {
        print_help();
        std::process::exit(2);
    }
    if artefacts.iter().any(|a| a == "ablations") {
        artefacts.retain(|a| a != "ablations");
        artefacts.extend(
            [
                "ablate-k",
                "ablate-keeptime",
                "ablate-retry",
                "ablate-placement",
                "ablate-gwtpg",
                "ext-mixed",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
    }
    if artefacts.iter().any(|a| a == "all") {
        artefacts = ["table1", "fig6", "fig7", "fig8", "fig9", "fig10"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    }
    eprintln!(
        "# runs: {} ms simulated per point, {} replication(s), seed {}",
        opts.sim_length_ms, opts.replications, opts.seed
    );
    let mut json: BTreeMap<String, serde_json::Value> = BTreeMap::new();
    for artefact in &artefacts {
        let t0 = std::time::Instant::now();
        match artefact.as_str() {
            "table1" => {
                println!("{}", drivers::table1(&opts));
            }
            "fig6" => {
                let f = drivers::fig6(&opts);
                println!("{}", render_fig6(&f));
                json.insert("fig6".into(), serde_json::to_value(&f).unwrap());
            }
            "fig7" => {
                let f = drivers::fig7(&opts);
                println!("{}", render_fig7(&f));
                json.insert("fig7".into(), serde_json::to_value(&f).unwrap());
            }
            "fig8" => {
                let rows = drivers::fig8(&opts);
                println!("{}", render_fig8(&rows));
                json.insert("fig8".into(), serde_json::to_value(&rows).unwrap());
            }
            "fig9" => {
                let f = drivers::fig9(&opts);
                println!("{}", render_fig9(&f));
                json.insert("fig9".into(), serde_json::to_value(&f).unwrap());
            }
            "fig10" => {
                let rows = drivers::fig10(&opts);
                println!("{}", render_fig10(&rows));
                json.insert("fig10".into(), serde_json::to_value(&rows).unwrap());
            }
            "ablate-k" => {
                let cells = ablations::ablate_k(&opts);
                println!(
                    "{}",
                    render_ablation(
                        "Ablation: K-conflict bound (Pattern 2, NumHots = 8)",
                        &cells
                    )
                );
                json.insert("ablate-k".into(), serde_json::to_value(&cells).unwrap());
            }
            "ablate-keeptime" => {
                let cells = ablations::ablate_keeptime(&opts);
                println!(
                    "{}",
                    render_ablation("Ablation: control-saving period (Experiment 1)", &cells)
                );
                json.insert(
                    "ablate-keeptime".into(),
                    serde_json::to_value(&cells).unwrap(),
                );
            }
            "ablate-retry" => {
                let cells = ablations::ablate_retry(&opts);
                println!(
                    "{}",
                    render_ablation("Ablation: resubmission delay (Experiment 1)", &cells)
                );
                json.insert("ablate-retry".into(), serde_json::to_value(&cells).unwrap());
            }
            "ablate-gwtpg" => {
                let cells = ablations::ablate_gwtpg(&opts);
                println!(
                    "{}",
                    render_ablation(
                        "Extension: G-WTPG (global strategy, no chain constraint) on the hot set",
                        &cells
                    )
                );
                json.insert("ablate-gwtpg".into(), serde_json::to_value(&cells).unwrap());
            }
            "waits" => {
                let cells = waits::run_waits(&opts, 0.5);
                println!("{}", waits::render_waits(&cells, 0.5));
                json.insert("waits".into(), serde_json::to_value(&cells).unwrap());
            }
            "ext-mixed" => {
                let cells = mixed_ext::run_mixed(&opts, 0.8);
                println!("{}", mixed_ext::render_mixed(&cells, 0.8));
                json.insert("ext-mixed".into(), serde_json::to_value(&cells).unwrap());
            }
            "ablate-placement" => {
                let cells = ablations::ablate_placement(&opts);
                println!(
                    "{}",
                    render_ablation(
                        "Extension: modulo vs declustered placement (Pattern 1)",
                        &cells
                    )
                );
                json.insert(
                    "ablate-placement".into(),
                    serde_json::to_value(&cells).unwrap(),
                );
            }
            other => {
                eprintln!("unknown artefact {other}");
                std::process::exit(2);
            }
        }
        eprintln!("# {artefact} done in {:.1?}", t0.elapsed());
    }
    if let Some(path) = json_path {
        std::fs::write(&path, serde_json::to_string_pretty(&json).unwrap())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("# structured results written to {path}");
    }
}

fn print_help() {
    eprintln!(
        "repro — regenerate the paper's tables and figures\n\
         usage: repro [--quick|--full] [--sim-ms N] [--seeds N] [--seed N] [--json FILE] \
         <table1|fig6|fig7|fig8|fig9|fig10|all|ablate-k|ablate-keeptime|ablate-retry|ablate-placement|ablate-gwtpg|ext-mixed|waits|ablations>"
    );
}
