//! One run of one workload: the plain run that produces the end-to-end
//! metrics, and the traced run that produces the per-layer ones.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use wtpg_core::partition::Catalog;
use wtpg_core::txn::TxnSpec;

use crate::layers::{self, OpsPerCommit, Values};
use crate::metrics::{EndToEnd, END_TO_END, LADDER, PER_LAYER};
use crate::micro;
use crate::process;
use crate::spans::Tracer;
use crate::stats::{median, Summary};
use crate::workloads::{
    check_recovery, fresh_wal_dir, run_trial, Loop, Trial, Workload,
};

/// How much work a run does. `for_seconds` is what the command line uses;
/// tests shrink every field.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub trial_txns: usize,
    /// Repetitions of the whole set-up (`setup_s` is the best of them).
    pub setup_reps: usize,
    /// Measured trials of a plain run.
    pub trials: usize,
    /// (plain, telemetry-on) trial pairs of a traced run.
    pub traced_pairs: usize,
    /// Seconds of arrivals per rung of the rate ladder.
    pub ladder_secs: f64,
    /// Divisor of every micro-benchmark loop count.
    pub micro_div: u64,
}

impl Sizes {
    /// Trials are fixed in size, so a run measures the same work on every
    /// machine, and short (about half a second on the reference box):
    /// what disturbs the machine comes and goes by the second, and of many
    /// short trials some run undisturbed where of three long ones none
    /// may. `seconds` chooses how many there are — five per two
    /// seconds, which with their wiring, checks and the set-ups fills not
    /// quite twice `seconds` of wall clock.
    pub fn for_seconds(w: &Workload, seconds: u64) -> Sizes {
        Sizes {
            trial_txns: w.trial_txns,
            setup_reps: 5,
            trials: (seconds * 5 / 2).max(1) as usize,
            traced_pairs: seconds as usize,
            ladder_secs: (seconds as f64 / 2.0).min(5.0),
            micro_div: 1,
        }
    }
}

pub struct RunArgs<'a> {
    pub workload: &'static Workload,
    pub seed: u64,
    pub sizes: Sizes,
    /// `bench/out`: span files, result files, per-trial WAL directories.
    pub out_dir: &'a Path,
}

/// One reported metric: the run's value, and the repeated measurements it
/// was taken from (a single reading where `summary.n == 1`).
pub struct MetricValue {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
    /// What `summary` summarises, in the order measured.
    pub values: Vec<f64>,
}

impl MetricValue {
    /// `values` with their median as the run's value.
    pub fn of(name: &'static str, unit: &'static str, values: Vec<f64>) -> MetricValue {
        let summary = Summary::of(&values);
        MetricValue {
            name,
            unit,
            value: summary.median,
            summary,
            values,
        }
    }

    /// `values` with the run's value chosen the metric's own way.
    pub fn end_to_end(m: &EndToEnd, values: Vec<f64>) -> MetricValue {
        let mut v = MetricValue::of(m.name, m.unit, values);
        v.value = m.value_of(&v.summary);
        v
    }
}

impl RunOutput {
    /// The reference kernel's quartile range exceeded 10 % of its median:
    /// something else was using the machine, and the run's timings say as
    /// much about that as about the program.
    pub fn unstable(&self) -> bool {
        self.ref_kernel_ms.spread() > 0.10
    }
}

pub struct RunOutput {
    /// Every trial certified, conserved, snapshot-certified and (with a
    /// WAL) recovered; every micro-benchmark's own check held.
    pub correct: bool,
    /// Transactions offered over the measured trials.
    pub attempted: u64,
    /// Of those, the ones that did not commit — plus every transaction of
    /// a trial that failed a check.
    pub failed: u64,
    pub metrics: Vec<MetricValue>,
    /// The reference kernel's timings over the run.
    pub ref_kernel_ms: Summary,
    pub errors: Vec<String>,
    pub spans_file: Option<PathBuf>,
}

/// A fixed kernel that touches no code of the repository, timed on either
/// side of every measured trial; its spread says whether the machine itself
/// held still. Four independent xorshift streams, each step one load from
/// a 16 KiB table, keep a core's execution ports and first-level cache
/// busy — resources a core shares with whatever else the host runs on it.
/// On the reference VM this kernel's timings scatter during the stretches
/// in which the workloads commit at two thirds of their rate; a dependent
/// multiply chain (all latency, no port pressure) reads the same throughout.
fn ref_kernel_ms() -> f64 {
    const TABLE_WORDS: usize = 2048;
    let mut table = [0u64; TABLE_WORDS];
    for (i, slot) in table.iter_mut().enumerate() {
        *slot = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    let table = black_box(table);
    let started = Instant::now();
    let mut streams = [1u64, 2, 3, 4];
    let mut sums = [0u64; 4];
    for _ in 0..1_000_000 {
        for (x, sum) in streams.iter_mut().zip(&mut sums) {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *sum = sum.wrapping_add(table[*x as usize % TABLE_WORDS]);
        }
    }
    black_box(sums);
    started.elapsed().as_secs_f64() * 1e3
}

/// Shared state of a run in progress.
struct Runner<'a> {
    args: &'a RunArgs<'a>,
    tracer: Tracer,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    ref_ms: Vec<f64>,
    /// Trials started so far, of any kind.
    trials_run: u64,
}

impl<'a> Runner<'a> {
    fn new(args: &'a RunArgs<'a>) -> Runner<'a> {
        Runner {
            args,
            tracer: Tracer::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            ref_ms: Vec::new(),
            trials_run: 0,
        }
    }

    /// One checked trial over `specs`, in a fresh WAL directory when the
    /// workload logs (recovered under `dur.replay` / `recover_span`); the
    /// directory is removed afterwards. On the open loop every trial of a
    /// run draws its own Poisson schedule (seed + trial number): a trial is
    /// one sample of the arrival process, and the median over a run's
    /// trials does not hang on what one 2 000-arrival schedule happens to
    /// add up to. A failure is recorded in `errors` and yields `None`.
    fn trial(
        &mut self,
        catalog: &Catalog,
        specs: &[TxnSpec],
        lambda_tps: Option<f64>,
        telemetry: bool,
        recover_span: &'static str,
    ) -> Option<Trial> {
        let w = self.args.workload;
        let wal_dir = if w.wal {
            match fresh_wal_dir(self.args.out_dir, w.name) {
                Ok(d) => Some(d),
                Err(e) => {
                    self.errors.push(format!("{}: wal dir: {e}", w.name));
                    return None;
                }
            }
        } else {
            None
        };
        let arrival_seed = self.args.seed.wrapping_add(self.trials_run);
        self.trials_run += 1;
        let cfg = w.config(arrival_seed, wal_dir.as_deref(), lambda_tps);
        let id = self.tracer.enter("bench", "trial");
        let mut result = run_trial(w, &cfg, catalog, specs, telemetry, &mut self.tracer);
        if let (Ok(t), Some(dir)) = (&result, &wal_dir) {
            let checked = check_recovery(catalog, &t.report, dir, recover_span, &mut self.tracer);
            if let Err(e) = checked {
                result = Err(e);
            }
        }
        self.tracer.exit(id, specs.len() as u64);
        if let Some(dir) = wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        result
            .map_err(|e| self.errors.push(format!("{}: {e}", w.name)))
            .ok()
    }

    /// A trial that counts: its transactions enter `attempted`/`failed`
    /// (all of them, if it fails a check), and the reference kernel is
    /// timed on either side of it.
    fn measured_trial(
        &mut self,
        catalog: &Catalog,
        specs: &[TxnSpec],
        telemetry: bool,
    ) -> Option<Trial> {
        self.ref_ms.push(ref_kernel_ms());
        let trial = self.trial(catalog, specs, None, telemetry, "recover");
        self.ref_ms.push(ref_kernel_ms());
        let (offered, committed) = trial.as_ref().map_or((specs.len() as u64, 0), |t| {
            (t.report.offered, t.report.committed)
        });
        self.attempted += offered;
        self.failed += offered.saturating_sub(committed);
        trial
    }

    /// The set-up a user pays before the first measured transaction:
    /// generate the spec stream, then run (and discard) one trial over it
    /// as the warm-up. Returns the stream and the seconds it took.
    fn setup(&mut self) -> (Catalog, Vec<TxnSpec>, f64) {
        let started = Instant::now();
        let id = self.tracer.enter("bench", "setup");
        let (catalog, specs) = self
            .args
            .workload
            .specs(self.args.sizes.trial_txns, self.args.seed);
        self.trial(&catalog, &specs, None, false, "recover_warmup");
        self.tracer.exit(id, 1);
        (catalog, specs, started.elapsed().as_secs_f64())
    }

    fn finish(mut self, metrics: Vec<MetricValue>, root: u32, write_spans: bool) -> RunOutput {
        let args = self.args;
        self.tracer.exit(root, 1);
        let spans_file = if write_spans {
            let path = args
                .out_dir
                .join(format!("spans-{}-{}.jsonl", args.workload.name, args.seed));
            match self.tracer.write_jsonl(&path) {
                Ok(()) => Some(path),
                Err(e) => {
                    self.errors.push(format!("span file: {e}"));
                    None
                }
            }
        } else {
            None
        };
        let _ = std::fs::remove_dir(args.out_dir.join("tmp"));
        RunOutput {
            correct: self.errors.is_empty(),
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
            ref_kernel_ms: Summary::of(&self.ref_ms),
            errors: self.errors,
            spans_file,
        }
    }
}

/// The plain run: telemetry and micro-benchmarks off. The measured trials
/// come in as many blocks as there are set-up repetitions, each block behind
/// a set-up of its own, so the set-ups sample the whole run's length and
/// not only its first seconds.
pub fn run_plain(args: &RunArgs<'_>) -> RunOutput {
    let mut run = Runner::new(args);
    let root = run.tracer.enter("bench", args.workload.name);
    let blocks = args.sizes.setup_reps.max(1);
    let mut setup_s = Vec::new();
    let mut trials: Vec<Trial> = Vec::new();
    for block in 0..blocks {
        let (catalog, specs, secs) = run.setup();
        setup_s.push(secs);
        let upto = args.sizes.trials * (block + 1) / blocks;
        while trials.len() < upto {
            match run.measured_trial(&catalog, &specs, false) {
                Some(t) => trials.push(t),
                None => break,
            }
        }
    }

    let per_trial = |f: fn(&Trial) -> f64| trials.iter().map(f).collect::<Vec<_>>();
    let mut metrics = Vec::new();
    for m in END_TO_END {
        let values = match m.name {
            "setup_s" => setup_s.clone(),
            "tps" => per_trial(|t| t.report.throughput_tps),
            "msgs_per_commit" => per_trial(|t| t.report.msgs_per_commit()),
            "peak_rss_mb" => vec![process::peak_rss_mb()],
            other => unreachable!("{other} has no measurement"),
        };
        metrics.push(MetricValue::end_to_end(m, values));
    }
    run.finish(metrics, root, false)
}

/// The traced run: one set-up, plain and telemetry-on trials in
/// alternation, every micro-benchmark, the rate ladder; spans written out
/// at the end.
pub fn run_traced(args: &RunArgs<'_>) -> RunOutput {
    let w = args.workload;
    let sizes = args.sizes;
    let mut run = Runner::new(args);
    let root = run.tracer.enter("bench", w.name);
    let (catalog, specs, _) = run.setup();

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..sizes.traced_pairs.max(1) {
        plain.extend(run.measured_trial(&catalog, &specs, false));
        traced.extend(run.measured_trial(&catalog, &specs, true));
    }
    let tps = |trials: &[Trial]| {
        median(&trials.iter().map(|t| t.report.throughput_tps).collect::<Vec<_>>())
    };
    let mut values: Values = layers::group_a(w, &plain, specs.len());
    let plain_tps = tps(&plain);
    let overhead = if plain_tps > 0.0 && !traced.is_empty() {
        (plain_tps - tps(&traced)) / plain_tps * 100.0
    } else {
        0.0
    };
    values.insert("trace.overhead_pct", overhead);

    if let Some(last) = plain.last() {
        let ops = OpsPerCommit::of(&last.report, &specs);
        let cpu_us_per_commit = values["cpu_us_per_commit"];
        match micro_benchmarks(&mut run, &catalog, &specs, last, &ops, cpu_us_per_commit) {
            Ok(b) => values.extend(b),
            Err(e) => run.errors.push(format!("micro-benchmarks: {e}")),
        }
    } else {
        run.errors
            .push("no plain trial completed; per-layer costs not measured".into());
    }
    if matches!(w.load, Loop::Open { .. }) {
        values.extend(ladder(&mut run, sizes.ladder_secs));
    }
    values.insert("env.ref_kernel_ms", median(&run.ref_ms));

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = values.get(m.name).copied().unwrap_or(0.0);
            MetricValue::of(m.name, m.unit, vec![value])
        })
        .collect();
    run.finish(metrics, root, true)
}

fn micro_benchmarks(
    run: &mut Runner<'_>,
    catalog: &Catalog,
    specs: &[TxnSpec],
    last: &Trial,
    ops: &OpsPerCommit,
    cpu_us_per_commit: f64,
) -> Result<Values, String> {
    let w = run.args.workload;
    let div = run.args.sizes.micro_div.max(1);
    let report = &last.report;
    let tracer = &mut run.tracer;
    let id = tracer.enter("bench", "micro");
    let result = (|| {
        let mut drives = Vec::new();
        for family in [&micro::CHAIN, &micro::KWTPG] {
            let (result, audit, mode) = micro::control_drives(w, specs, family, div, tracer)?;
            if family.sched == w.sched {
                micro::certifiers(&audit, mode, result.counts.commits, tracer)?;
            }
            drives.push(result);
        }
        let own = if w.sched == micro::KWTPG.sched {
            &micro::KWTPG
        } else {
            &micro::CHAIN
        };
        micro::queue_handoff(div, tracer);
        // Group-commit at the size the live run flushed at; 3 records (the
        // logging workload's observed 2.55, rounded up) where none ran.
        let per_flush = if report.wal_flushes == 0 {
            3
        } else {
            (report.wal_records as f64 / report.wal_flushes as f64).ceil() as u64
        };
        let dir = fresh_wal_dir(run.args.out_dir, "node0").map_err(|e| e.to_string())?;
        let emulated = micro::store_wal_replay(catalog, specs, per_flush, div, &dir, tracer);
        let _ = std::fs::remove_dir_all(&dir);
        emulated?;
        let mix = micro::message_mix(report, specs, 1000);
        micro::codec_and_coalescer(&mix, micro::batch_fill(report), specs, div, tracer);
        micro::transports(&mix, div, tracer)?;
        micro::mvcc(catalog, div, tracer);
        micro::sim_cell(div, tracer);
        Ok(layers::group_b(
            tracer,
            w,
            own,
            &drives[0],
            &drives[1],
            ops,
            cpu_us_per_commit,
        ))
    })();
    tracer.exit(id, 1);
    result
}

/// The rate ladder (open-loop workload only): its cell offered Poisson
/// arrivals at each fixed rate, shedding at 256 in flight per client. Reports p50/p99/shed per rung and the highest rate
/// whose p99 stayed under 50 ms with under 1 % shed.
fn ladder(run: &mut Runner<'_>, secs: f64) -> Values {
    const P99_LIMIT_MS: f64 = 50.0;
    const SHED_LIMIT: f64 = 0.01;
    let id = run.tracer.enter("bench", "ladder");
    let mut values = Values::new();
    let mut max_ok = 0.0;
    for (rate, [p50, p99, shed]) in LADDER {
        let txns = ((f64::from(rate) * secs) as usize).max(1);
        let (catalog, specs) = run.args.workload.specs(txns, run.args.seed);
        let rung = run.trial(&catalog, &specs, Some(f64::from(rate)), false, "recover");
        let Some(t) = rung else {
            continue;
        };
        let r = &t.report;
        values.insert(p50, r.latency.p50_ms);
        values.insert(p99, r.latency.p99_ms);
        values.insert(shed, r.shed_rate());
        if r.latency.p99_ms < P99_LIMIT_MS && r.shed_rate() < SHED_LIMIT {
            max_ok = f64::from(rate);
        }
    }
    run.tracer.exit(id, LADDER.len() as u64);
    values.insert("net.client.open.max_ok_rate_tps", max_ok);
    values
}
