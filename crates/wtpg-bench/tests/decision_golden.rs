//! The schedulers' decisions, pinned: Figure 8 (CHAIN, K2, ASL, C2PL on the
//! hot set), Figure 10 (CHAIN, K2, CHAIN-C2PL, K2-C2PL, C2PL — the admission
//! constraint × grant rule square) and the G-WTPG ablation at tiny scale,
//! serialised and compared against a committed golden. Every number in it is
//! a function of the simulated trajectory, so any change to a verdict, a
//! `ControlOps` count or the order of two grants moves some digit.
//!
//! The golden was generated at `b804b2a`, before the one-gate admission
//! refactor touched any scheduler file.

use serde::Serialize;
use wtpg_bench::ablations::{self, AblationCell};
use wtpg_bench::drivers::{self, Fig10Row, Fig8Row};
use wtpg_bench::replicate::RunOptions;

const GOLDEN: &str = include_str!("golden/decisions_tiny.json");

/// The `tiny()` of `drivers_smoke.rs`.
fn tiny() -> RunOptions {
    RunOptions {
        sim_length_ms: 40_000,
        replications: 1,
        seed: 9,
    }
}

#[derive(Serialize)]
struct Decisions {
    fig8: Vec<Fig8Row>,
    fig10: Vec<Fig10Row>,
    ablate_gwtpg: Vec<AblationCell>,
}

#[test]
fn tiny_figures_match_the_committed_golden() {
    let decisions = Decisions {
        fig8: drivers::fig8(&tiny()),
        fig10: drivers::fig10(&tiny()),
        ablate_gwtpg: ablations::ablate_gwtpg(&tiny()),
    };
    let actual = serde_json::to_string_pretty(&decisions).expect("figures serialise") + "\n";
    if actual != GOLDEN {
        let path = std::env::temp_dir().join("decisions_tiny.actual.json");
        std::fs::write(&path, &actual).expect("write the observed figures");
        panic!(
            "scheduler decisions drifted from tests/golden/decisions_tiny.json; observed figures \
             written to {}. Copying that file over the golden is a deliberate decision change: \
             do it only in a PR that means to alter what a scheduler admits or grants, never in \
             one that claims bit-identical decisions.",
            path.display()
        );
    }
}
