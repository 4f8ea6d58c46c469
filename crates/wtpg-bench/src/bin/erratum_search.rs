//! Random search for divergences between the paper's appendix pseudocode
//! (transcribed verbatim) and the exhaustive optimum — the forensic tool
//! behind the `Rcomp` erratum documented in `wtpg_core::chain::paper_dp`.
//!
//! Run: `cargo run -p wtpg-bench --bin erratum_search --release [trials]`

#![forbid(unsafe_code)]

use wtpg_core::chain::{brute, paper_dp, ChainProblem};

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let mut state = 0x5eed_cafe_u64;
    let mut rand = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % 12
    };
    let mut faithful_misses = 0u64;
    let mut fixed_misses = 0u64;
    let mut first_witnesses = 0;
    for trial in 0..trials {
        let n = 2 + (trial % 7) as usize;
        let r: Vec<u64> = (0..n).map(|_| rand()).collect();
        let a: Vec<u64> = (0..n - 1).map(|_| rand()).collect();
        let b: Vec<u64> = (0..n - 1).map(|_| rand()).collect();
        let p = ChainProblem::new(r, a, b);
        let oracle = brute::solve(&p).critical_path;
        let faithful = paper_dp::solve_faithful(&p).critical_path;
        let fixed = paper_dp::solve(&p).critical_path;
        if faithful != oracle {
            faithful_misses += 1;
            if first_witnesses < 3 {
                println!("faithful={faithful} oracle={oracle}  {p:?}");
                first_witnesses += 1;
            }
        }
        if fixed != oracle {
            fixed_misses += 1;
            println!("FIXED DIVERGES: fixed={fixed} oracle={oracle}  {p:?}");
        }
    }
    println!(
        "{trials} trials: verbatim pseudocode wrong on {faithful_misses} \
         ({:.2} %), erratum-fixed wrong on {fixed_misses}",
        100.0 * faithful_misses as f64 / trials as f64
    );
}
