//! `wtpg trace`: drive a declared workload through a scheduler, one step
//! completing per grant, and narrate every decision.

use wtpg_core::sched::{Admission, LockOutcome};
use wtpg_core::time::Tick;
use wtpg_core::txn::TxnSpec;

pub(crate) fn run(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut sched_name = "chain".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scheduler" => {
                i += 1;
                sched_name = args.get(i).ok_or("--scheduler needs a value")?.clone();
            }
            a if !a.starts_with('-') || a == "-" => path = Some(args[i].clone()),
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    let specs = crate::read_workload(path.as_ref())?;
    let mut sched = wtpg_rt::sched_by_name(&sched_name, 2, 5000)
        .ok_or_else(|| format!("unknown scheduler {sched_name:?}"))?;
    println!("scheduler: {}", sched.name());

    #[derive(Clone)]
    enum St {
        Pending(TxnSpec),
        Running(TxnSpec, usize),
    }
    let total = specs.len();
    let mut states: Vec<St> = specs.into_iter().map(St::Pending).collect();
    let mut done = 0usize;
    let mut now = Tick(0);
    let mut rounds = 0usize;
    while done < total {
        rounds += 1;
        if rounds > 300 * total + 300 {
            return Err(format!("workload did not converge under {}", sched.name()));
        }
        let mut next = Vec::new();
        for st in states {
            now += 1;
            match st {
                St::Pending(spec) => {
                    let (adm, _) = sched.on_arrive(&spec, now).map_err(|e| e.to_string())?;
                    match adm {
                        Admission::Admitted => {
                            println!("t={now}: {} admitted", spec.id);
                            next.push(St::Running(spec, 0));
                        }
                        Admission::Rejected => {
                            println!("t={now}: {} REJECTED (will retry)", spec.id);
                            next.push(St::Pending(spec));
                        }
                    }
                }
                St::Running(spec, step) => {
                    let id = spec.id;
                    let s = spec.steps()[step];
                    let (out, ops) = sched.on_request(id, step, now).map_err(|e| e.to_string())?;
                    match out {
                        LockOutcome::Granted => {
                            println!("t={now}: {id} step {step} {s} GRANTED");
                            sched
                                .on_progress(id, s.actual_cost)
                                .map_err(|e| e.to_string())?;
                            sched
                                .on_step_complete(id, step)
                                .map_err(|e| e.to_string())?;
                            if step + 1 == spec.len() {
                                sched.on_commit(id, now).map_err(|e| e.to_string())?;
                                println!("t={now}: {id} COMMITTED");
                                done += 1;
                            } else {
                                next.push(St::Running(spec, step + 1));
                            }
                        }
                        LockOutcome::Blocked => {
                            println!("t={now}: {id} step {step} {s} blocked (held lock)");
                            next.push(St::Running(spec, step));
                        }
                        LockOutcome::Delayed => {
                            let why = if ops.eq_evals > 0 {
                                "lost E(q) comparison or deadlock"
                            } else if ops.chain_opts > 0
                                || sched.name().contains("WTPG")
                                || sched.name() == "CHAIN"
                            {
                                "inconsistent with W"
                            } else {
                                "deadlock predicted"
                            };
                            println!("t={now}: {id} step {step} {s} delayed ({why})");
                            next.push(St::Running(spec, step));
                        }
                    }
                }
            }
        }
        states = next;
    }
    println!("all {total} transactions committed in {rounds} round(s)");
    Ok(())
}
