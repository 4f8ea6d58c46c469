//! `wtpg simulate`: run the timed shared-nothing machine on one of the
//! paper's patterns and print the run report.

use wtpg_sim::config::SimParams;
use wtpg_sim::machine::Machine;
use wtpg_workload::{ErrorModel, Pattern, PatternWorkload};

pub(crate) fn run(args: &[String]) -> Result<(), String> {
    let mut pattern = 1u32;
    let mut sched = "k2".to_string();
    let mut lambda = 0.5f64;
    let mut sim_ms = 300_000u64;
    let mut hots = 8u32;
    let mut sigma = 0.0f64;
    let mut seed = 42u64;
    let mut certify = false;
    let mut trace: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| "missing option value".to_string())
        };
        match args[i].as_str() {
            "--pattern" => pattern = take(&mut i)?.parse().map_err(|_| "bad --pattern")?,
            "--scheduler" => sched = take(&mut i)?,
            "--lambda" => lambda = take(&mut i)?.parse().map_err(|_| "bad --lambda")?,
            "--sim-ms" => sim_ms = take(&mut i)?.parse().map_err(|_| "bad --sim-ms")?,
            "--hots" => hots = take(&mut i)?.parse().map_err(|_| "bad --hots")?,
            "--sigma" => sigma = take(&mut i)?.parse().map_err(|_| "bad --sigma")?,
            "--seed" => seed = take(&mut i)?.parse().map_err(|_| "bad --seed")?,
            "--certify" => certify = true,
            "--trace" => trace = Some(take(&mut i)?),
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    let pattern = match pattern {
        1 => Pattern::One,
        2 => Pattern::Two { num_hots: hots },
        3 => Pattern::Three { num_hots: hots },
        other => return Err(format!("--pattern must be 1, 2 or 3, got {other}")),
    };
    let params = SimParams {
        sim_length_ms: sim_ms,
        seed,
        certify,
        ..SimParams::paper_defaults()
    };
    let sched = wtpg_rt::sched_by_name(&sched, params.k, params.keeptime_ms)
        .ok_or_else(|| format!("unknown scheduler {sched:?}"))?;
    let label = sched.name().to_string();
    let workload = PatternWorkload::with_error(pattern, seed, ErrorModel::new(sigma));
    let mut machine = Machine::new(params, sched, workload);
    let sink = trace.as_ref().map(|_| std::rc::Rc::new(wtpg_obs::MemorySink::new()));
    if let Some(s) = &sink {
        machine.set_observer(s.clone());
    }
    let r = machine.run(lambda);
    if let (Some(path), Some(s)) = (&trace, &sink) {
        // Simulator events are ms ticks; Chrome wants µs.
        crate::obs::write_trace(path, &s.snapshot(), 1000)?;
        println!("wrote trace {path}");
    }
    println!(
        "pattern {} | scheduler {} | λ = {lambda} TPS | {} s simulated | σ = {sigma}",
        pattern.label(),
        label,
        sim_ms / 1000
    );
    println!("  completed     : {}", r.completed);
    println!(
        "  mean RT       : {:.2} s  (p50 {:.2}, p95 {:.2})",
        r.mean_rt_ms / 1000.0,
        r.p50_rt_ms / 1000.0,
        r.p95_rt_ms / 1000.0
    );
    println!("  throughput    : {:.3} TPS", r.throughput_tps);
    println!(
        "  DN utilisation: {:.0} %  CN: {:.1} %",
        r.dn_utilization * 100.0,
        r.cn_utilization * 100.0
    );
    println!(
        "  arrivals {} | rejects {} | blocks {} | delays {} | grants {}",
        r.arrivals, r.rejections, r.blocks, r.delays, r.grants
    );
    println!(
        "  control: {} deadlock tests, {} W optimisations, {} E(q) evals",
        r.deadlock_tests, r.chain_opts, r.eq_evals
    );
    if certify {
        // run() already certified (it panics on a violation) and kept the
        // report.
        let cert = machine
            .certify_report()
            .ok_or_else(|| "certification report missing after run".to_string())?;
        println!(
            "  certified: {} events replayed ({} grants, {} commits, {} E(q) checks)",
            cert.events, cert.grants, cert.commits, cert.eq_checks
        );
    }
    Ok(())
}
