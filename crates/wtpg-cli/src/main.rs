//! `wtpg` — command-line companion to the reproduction.
//!
//! ```text
//! wtpg plan     <workload.txt | ->      analyse a workload: WTPG, chain
//!                                       components, optimal/heuristic W
//! wtpg dot      <workload.txt | ->      emit the WTPG as Graphviz DOT
//! wtpg trace    <workload.txt | ->      drive the workload through a
//!               [--scheduler NAME]      scheduler and print every decision
//! wtpg simulate [--pattern 1|2|3]       run the timed machine and print
//!               [--scheduler NAME]      the run report
//!               [--lambda F] [--sim-ms N] [--hots N] [--sigma F] [--seed N]
//!               [--certify]               record the history and certify it
//!               [--trace FILE]            record a structured trace
//! wtpg net      [--sched NAME]          execute a batch on the shared-
//!               [--transport inproc|tcp]  nothing message-passing runtime
//!               [--fault none|fault|crash|kill] with injected link faults
//!               [--durability none|buffered|sync] or a mid-run node kill
//!               [--wal-dir DIR]         restarted from its write-ahead log
//!               [--clients N] [--txns N] [--pattern 1|2|3|4] [--hots N]
//!               [--seed N] [--chunk N] [--k N] [--keeptime MS]
//!               [--no-certify] [--out FILE]
//! wtpg load     [--lambda TPS] [--secs F] open-loop Poisson load with
//!               [--slo SPEC] [--jsonl F]  windowed SLO verdicts; takes the
//!               [--out FILE]              cell flags of `wtpg net` too
//! wtpg top      <trace.jsonl> [--once]    live windowed-telemetry view
//! wtpg obs      summary <trace.jsonl>   percentiles, abort causes, cache
//!               diff <a.jsonl> <b.jsonl>  hit ratios; counter/span deltas
//!               chrome <trace.jsonl>    convert to Chrome trace_event JSON
//! wtpg help                             the usage; so do `-h`, and `--help`
//!                                       anywhere on a command line
//! ```
//!
//! Workloads use the paper's notation, one transaction per line:
//!
//! ```text
//! T1: r(A:1) -> r(B:3) -> w(A:1)
//! T2: r(C:1) -> w(A:1)
//! ```

#![forbid(unsafe_code)]
#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "panic safety covers the runtime and the scheduler hot path; the driver fails loudly by design"
)]

use std::io::Read as _;

mod cell;
mod load;
mod net;
mod obs;
mod plan;
mod simulate;
mod top;
mod trace;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `wtpg <cmd> --help` is a request for the usage, not an unknown option.
    let command = if args.iter().any(|a| a == "--help") {
        Some("help")
    } else {
        args.first().map(String::as_str)
    };
    let code = match command {
        Some("plan") => plan::run(&args[1..], false),
        Some("dot") => plan::run(&args[1..], true),
        Some("trace") => trace::run(&args[1..]),
        Some("simulate") => simulate::run(&args[1..]),
        Some("net") => net::run(&args[1..]),
        Some("load") => load::run(&args[1..]),
        Some("top") => top::run(&args[1..]),
        Some("obs") => obs::run(&args[1..]),
        Some("help") | Some("-h") | None => {
            print_help();
            Ok(())
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n");
            print_help();
            std::process::exit(2);
        }
    };
    if let Err(e) = code {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn print_help() {
    eprintln!(
        "wtpg — bulk-access-transaction scheduling (ICDE 1990 reproduction)\n\
         \n\
         usage:\n\
           wtpg plan     <workload.txt | ->                analyse + optimise\n\
           wtpg dot      <workload.txt | ->                Graphviz output\n\
           wtpg trace    <workload.txt | -> [--scheduler chain|k2|gwtpg|asl|c2pl]\n\
           wtpg simulate [--pattern 1|2|3] [--scheduler S] [--lambda F]\n\
                         [--sim-ms N] [--hots N] [--sigma F] [--seed N] [--certify]\n\
                         [--trace FILE]\n\
           wtpg net      [--sched S] [--transport inproc|tcp] [--fault none|fault|crash|kill]\n\
                         [--durability none|buffered|sync] [--wal-dir DIR]\n\
                         [--clients N] [--txns N] [--pattern 1|2|3|4] [--hots N] [--groups N]\n\
                         [--seed N] [--chunk N] [--k N] [--keeptime MS] [--shards N]\n\
                         [--batch-max N] [--batch-window USEC] [--pipeline N]\n\
                         [--admit-window N] [--read-mix F] [--read-theta F] [--mvcc]\n\
                         [--no-certify] [--out FILE]\n\
           wtpg load     [--lambda TPS] [--secs F] [--inflight N] [--slo SPEC]\n\
                         [--window MS] [--jsonl FILE] [--out FILE]\n\
                         plus the cell flags of `wtpg net` (--sched … --mvcc):\n\
                         open-loop Poisson load, windowed SLO verdicts; SPEC is\n\
                         e.g. p99<50ms,abort<5%,sustain=4 — abort is the share\n\
                         of offered arrivals shed at the --inflight bound\n\
           wtpg top      <trace.jsonl> [--once] [--interval MS] [--rows N]\n\
                         live view of a run's windowed telemetry\n\
           wtpg obs      summary <trace.jsonl> | diff <a.jsonl> <b.jsonl>\n\
                         | chrome <trace.jsonl> [--out FILE]\n\
           wtpg help     this text (also -h, and --help after any command)\n\
         \n\
         workload lines use the paper's notation: T1: r(A:1) -> w(B:0.2)"
    );
}

/// Reads a workload from a file path or stdin (`-`).
pub(crate) fn read_workload(path: Option<&String>) -> Result<Vec<wtpg_core::txn::TxnSpec>, String> {
    let text = match path.map(String::as_str) {
        None | Some("-") => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            buf
        }
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?,
    };
    wtpg_workload::notation::parse_workload(&text).map_err(|e| e.to_string())
}
