//! One driver per paper artefact (Table 1, Figures 6–10).
//!
//! Each driver runs the experiment at the requested scale, returns the
//! structured series (so tests can assert the paper's qualitative claims),
//! and can render itself as a plain-text table.

use serde::{Deserialize, Serialize};
use wtpg_sim::runner::{max_tps, tps_at_rt, SweepResult};
use wtpg_workload::Experiment;

use crate::format::{render_keyed_table, render_lambda_table};
use crate::replicate::{averaged_sweep, RunOptions};

/// A figure built from λ sweeps (Figures 6, 7, 9).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FigureSeries {
    /// Figure title.
    pub title: String,
    /// One sweep per scheduler.
    pub sweeps: Vec<SweepResult>,
    /// TPS @ RT = 70 s per scheduler (the paper's comparison metric),
    /// `None` when a scheduler never reaches that response time in-sweep.
    pub tps_at_rt70: Vec<(String, Option<f64>)>,
}

fn run_figure(title: &str, exp: &Experiment, opts: &RunOptions) -> FigureSeries {
    let sweeps: Vec<SweepResult> = exp
        .schedulers
        .iter()
        .map(|&kind| averaged_sweep(opts, kind, &|s| exp.workload(s), &exp.lambdas))
        .collect();
    let tps_at_rt70 = sweeps
        .iter()
        .map(|s| (s.scheduler.clone(), tps_at_rt(s, exp.rt_target_ms)))
        .collect();
    FigureSeries {
        title: title.to_string(),
        sweeps,
        tps_at_rt70,
    }
}

/// Table 1: the simulation parameters (recovered from prose + assumptions).
pub fn table1(opts: &RunOptions) -> String {
    let p = opts.params();
    let rows = [
        ("NumNodes", format!("{}", p.num_nodes), "stated in §4.1"),
        ("NumParts (Exp1/4)", "16".into(), "stated in §4.2"),
        (
            "partition size (Exp1/4)",
            "5 objects".into(),
            "stated in §4.2",
        ),
        (
            "read-only parts (Exp2/3)",
            "8 × 5 objects".into(),
            "stated in §4.3",
        ),
        (
            "hot parts (Exp2/3)",
            "NumHots × 1 object".into(),
            "stated in §4.3",
        ),
        (
            "ObjTime",
            format!("{} ms", p.obj_time_ms),
            "stated in §4.1 (≈60 tracks / 2.5 MB in FDS-R)",
        ),
        ("clock", "1 ms".into(), "stated in §4.1"),
        (
            "simulation length",
            format!("{} clocks", p.sim_length_ms),
            "paper: 2,000,000",
        ),
        ("multiprogramming level", "∞".into(), "stated in §4.1"),
        (
            "keeptime (control saving)",
            format!("{} ms", p.keeptime_ms),
            "Table 1 fragment: 5000 ms",
        ),
        (
            "startuptime",
            format!("{} ms", p.startup_time_ms),
            "assumed (2PC coordinator, DESIGN.md §5)",
        ),
        (
            "committime",
            format!("{} ms", p.commit_time_ms),
            "assumed (2PC coordinator, DESIGN.md §5)",
        ),
        (
            "ddtime",
            format!("{} ms", p.dd_time_ms),
            "assumed (instruction counts, DESIGN.md §5)",
        ),
        (
            "chaintime",
            format!("{} ms", p.chain_time_ms),
            "assumed (O(N²) DP, DESIGN.md §5)",
        ),
        (
            "kwtpgtime",
            format!("{} ms", p.kwtpg_time_ms),
            "assumed (O(K·max(n,e)), DESIGN.md §5)",
        ),
        (
            "lock-op time",
            format!("{} ms", p.lockop_time_ms),
            "assumed (request-handling floor)",
        ),
        (
            "retry delay",
            format!("{} ms", p.retry_delay_ms),
            "paper: \"a fixed delay\"",
        ),
        ("K (K-WTPG)", format!("{}", p.k), "stated in §4.1 (K2)"),
        (
            "replications",
            format!("{}", opts.replications),
            "ours (seed-averaged)",
        ),
    ];
    let mut out = String::from("Table 1: simulation parameters\n------------------------------\n");
    for (name, value, src) in rows {
        out.push_str(&format!("{name:>28}  {value:<18} {src}\n"));
    }
    out
}

/// Figure 6 — Experiment 1, arrival rate vs mean response time.
pub fn fig6(opts: &RunOptions) -> FigureSeries {
    run_figure(
        "Figure 6. Experiment 1: Arrival Rate vs. Response Time",
        &Experiment::exp1(),
        opts,
    )
}

/// Figure 7 — Experiment 1, arrival rate vs throughput.
/// (Same sweeps as Figure 6; rendered as TPS, with useful utilisation =
/// TPS ratio to NODC.)
pub fn fig7(opts: &RunOptions) -> FigureSeries {
    run_figure(
        "Figure 7. Experiment 1: Arrival Rate vs. Throughput",
        &Experiment::exp1(),
        opts,
    )
}

/// One row of Figure 8: hot-set size vs TPS @ RT = 70 s per scheduler.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig8Row {
    /// Hot-set size.
    pub num_hots: u32,
    /// (scheduler label, TPS @ RT = 70 s or max-TPS lower bound).
    pub tps: Vec<(String, f64)>,
}

/// Figure 8 — Experiment 2: NumHots vs throughput at RT = 70 s.
pub fn fig8(opts: &RunOptions) -> Vec<Fig8Row> {
    Experiment::EXP2_NUM_HOTS
        .iter()
        .map(|&num_hots| {
            let exp = Experiment::exp2(num_hots);
            let tps = exp
                .schedulers
                .iter()
                .map(|&kind| {
                    let sw = averaged_sweep(opts, kind, &|s| exp.workload(s), &exp.lambdas);
                    let v = tps_at_rt(&sw, exp.rt_target_ms).unwrap_or_else(|| max_tps(&sw));
                    (sw.scheduler, v)
                })
                .collect();
            Fig8Row { num_hots, tps }
        })
        .collect()
}

/// Figure 9 — Experiment 3: arrival rate vs response time (longer blocking).
pub fn fig9(opts: &RunOptions) -> FigureSeries {
    run_figure(
        "Figure 9. Experiment 3: Arrival Rate vs. Response Time",
        &Experiment::exp3(),
        opts,
    )
}

/// One row of Figure 10: error ratio σ vs TPS @ RT = 70 s per scheduler.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig10Row {
    /// Error ratio σ.
    pub sigma: f64,
    /// (scheduler label, TPS @ RT = 70 s or max-TPS lower bound).
    pub tps: Vec<(String, f64)>,
}

/// Figure 10 — Experiment 4: error ratio vs throughput at RT = 70 s.
pub fn fig10(opts: &RunOptions) -> Vec<Fig10Row> {
    Experiment::EXP4_SIGMAS
        .iter()
        .map(|&sigma| {
            let exp = Experiment::exp4(sigma);
            let tps = exp
                .schedulers
                .iter()
                .map(|&kind| {
                    let sw = averaged_sweep(opts, kind, &|s| exp.workload(s), &exp.lambdas);
                    let v = tps_at_rt(&sw, exp.rt_target_ms).unwrap_or_else(|| max_tps(&sw));
                    (sw.scheduler, v)
                })
                .collect();
            Fig10Row { sigma, tps }
        })
        .collect()
}

/// Renders Figure 6 (RT in seconds).
pub fn render_fig6(f: &FigureSeries) -> String {
    render_lambda_table(&f.title, "mean RT, seconds", &f.sweeps, |r| {
        r.mean_rt_ms / 1000.0
    })
}

/// Renders Figure 7 (TPS) plus the useful-utilisation footnote the paper
/// discusses (throughput ratio to NODC).
pub fn render_fig7(f: &FigureSeries) -> String {
    let mut out = render_lambda_table(&f.title, "throughput, TPS", &f.sweeps, |r| r.throughput_tps);
    if let Some(nodc) = f.sweeps.iter().find(|s| s.scheduler == "NODC") {
        out.push_str("\nTPS @ RT = 70 s (useful utilisation = ratio to NODC):\n");
        let nodc70 = tps_at_rt(nodc, 70_000.0).unwrap_or_else(|| max_tps(nodc));
        for s in &f.sweeps {
            let v = tps_at_rt(s, 70_000.0).unwrap_or_else(|| max_tps(s));
            out.push_str(&format!(
                "  {:>10}: {:.3} TPS  (utilisation {:.0} %)\n",
                s.scheduler,
                v,
                100.0 * v / nodc70
            ));
        }
    }
    out
}

/// Renders Figure 8.
pub fn render_fig8(rows: &[Fig8Row]) -> String {
    let labels: Vec<String> = rows
        .first()
        .map(|r| r.tps.iter().map(|(l, _)| l.clone()).collect())
        .unwrap_or_default();
    let table_rows: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|r| {
            (
                r.num_hots.to_string(),
                r.tps.iter().map(|&(_, v)| v).collect(),
            )
        })
        .collect();
    render_keyed_table(
        "Figure 8. Experiment 2: Num. of Hot Partitions vs. Throughput at Resp.Time = 70 sec [TPS]",
        "NumHots",
        &labels,
        &table_rows,
    )
}

/// Renders Figure 9 (RT table plus the TPS @ 70 s summary).
pub fn render_fig9(f: &FigureSeries) -> String {
    let mut out = render_lambda_table(&f.title, "mean RT, seconds", &f.sweeps, |r| {
        r.mean_rt_ms / 1000.0
    });
    out.push_str("\nTPS @ RT = 70 s:\n");
    for (label, tps) in &f.tps_at_rt70 {
        match tps {
            Some(v) => out.push_str(&format!("  {label:>10}: {v:.3} TPS\n")),
            None => out.push_str(&format!("  {label:>10}: not reached in sweep\n")),
        }
    }
    out
}

/// Renders Figure 10.
pub fn render_fig10(rows: &[Fig10Row]) -> String {
    let labels: Vec<String> = rows
        .first()
        .map(|r| r.tps.iter().map(|(l, _)| l.clone()).collect())
        .unwrap_or_default();
    let table_rows: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|r| {
            (
                format!("{:.2}", r.sigma),
                r.tps.iter().map(|&(_, v)| v).collect(),
            )
        })
        .collect();
    render_keyed_table(
        "Figure 10. Experiment 4: Error Ratio vs. Throughput at Resp.Time = 70 sec [TPS]",
        "σ",
        &labels,
        &table_rows,
    )
}
