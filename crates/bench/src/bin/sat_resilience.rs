//! **Eqn.-1 validation** (Sec. II-A): runs real SAT attacks on locked FU
//! netlists and compares measured DIP iterations against the analytic
//! trade-off model, demonstrating the corruption/resilience dilemma the
//! paper's binding approach escapes:
//!
//! * critical-minterm locking: tiny ε, iterations ~ key space,
//! * RLL: huge ε, unlocked in a handful of iterations,
//! * Anti-SAT: tiny ε, iterations ~ 2^n with near-zero corruption.
//!
//! One secret is one sample of the iteration count, and Eqn. 1 is an
//! expectation; the 1-minterm rows therefore also report the mean, min
//! and max over every secret minterm of the input space. The random-query
//! baseline is reported as the number of seeds (of 8) it breaks.
//!
//! Usage: `cargo run -p lockbind-bench --release --bin sat_resilience [width]`
//! (default operand width 3 bits keeps full attacks under a second each).

use lockbind_attacks::{random_query_attack, sat_attack, secret_sweep, AttackConfig};
use lockbind_bench::report::render_table;
use lockbind_locking::corruption::average_wrong_key_error_rate;
use lockbind_locking::{
    expected_sat_iterations, lock_anti_sat, lock_critical_minterms, lock_permutation, lock_rll,
    LockedNetlist,
};
use lockbind_netlist::builders::{adder_fu, multiplier_fu};
use lockbind_netlist::Netlist;

/// Random-query seeds tried per scheme.
const RANDOM_QUERY_SEEDS: u64 = 8;

/// SAT iterations over every 1-minterm critical-minterm lock of `fu` (one
/// per secret minterm of its input space), rendered as `mean [min, max]`.
fn render_sweep(fu: &Netlist) -> String {
    let iterations = secret_sweep(fu);
    let mean = iterations.iter().sum::<u64>() as f64 / iterations.len() as f64;
    let min = iterations.iter().min().expect("nonempty");
    let max = iterations.iter().max().expect("nonempty");
    format!("{mean:.1} [{min}, {max}]")
}

fn main() {
    let width: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let input_bits = 2 * width;

    println!("SAT-attack resilience vs corruption (operand width {width} bits,");
    println!("{input_bits}-bit FU input space) — the Eqn. 1 trade-off, measured");
    println!();

    let mut rows = Vec::new();
    let adder = adder_fu(width);
    let mult = multiplier_fu(width);

    let mut run = |name: String, locked: LockedNetlist, sweep: Option<&Netlist>| {
        let eps = average_wrong_key_error_rate(&locked, input_bits, 24, 7);
        let analytic = if eps > 0.0 && eps < 1.0 {
            expected_sat_iterations(locked.key_bits() as u32, 1, eps)
        } else {
            f64::NAN
        };
        let out = sat_attack(&locked, &AttackConfig::default());
        let broken = (0..RANDOM_QUERY_SEEDS)
            .filter(|&seed| random_query_attack(&locked, 64, seed).success)
            .count();
        rows.push(vec![
            name,
            locked.key_bits().to_string(),
            format!("{eps:.4}"),
            format!("{analytic:.0}"),
            out.iterations.to_string(),
            sweep.map_or("-".into(), render_sweep),
            if out.success { "yes" } else { "CAP" }.to_string(),
            format!("{broken}/{RANDOM_QUERY_SEEDS}"),
        ]);
    };

    for n in 1..=3usize {
        let minterms: Vec<u64> = (0..n as u64)
            .map(|i| (i * 37 + 5) % (1 << input_bits))
            .collect();
        run(
            format!("critical-minterm adder ({n} inp.)"),
            lock_critical_minterms(&adder, &minterms).expect("lockable"),
            (n == 1).then_some(&adder),
        );
    }
    run(
        "critical-minterm multiplier (1 inp.)".into(),
        lock_critical_minterms(&mult, &[9]).expect("lockable"),
        Some(&mult),
    );
    run(
        "rll adder (8 key gates)".into(),
        lock_rll(&adder, 8, 42).expect("lockable"),
        None,
    );
    run(
        "anti-sat adder".into(),
        lock_anti_sat(&adder).expect("lockable"),
        None,
    );
    run(
        "permutation adder (2 stages)".into(),
        lock_permutation(&adder, 2).expect("lockable"),
        None,
    );

    println!(
        "{}",
        render_table(
            &[
                "scheme",
                "key bits",
                "measured eps",
                "Eqn.1 lambda",
                "SAT iters",
                "all secrets: mean [min, max]",
                "key found",
                "random-query seeds broken",
            ],
            &rows
        )
    );
    println!("Reading: low eps => many SAT iterations (resilient, little corruption);");
    println!("high eps (RLL/permutation) => broken in a handful of iterations.");
    println!("All secrets: SAT iterations over every secret minterm (1-minterm rows).");

    // Per-iteration hardness: the Full-Lock-family property (Sec. V-C) is
    // that each SAT iteration gets *expensive*, independent of the count.
    println!();
    println!("Per-iteration hardness (mean solver conflicts per DIP search):");
    let mut rows3 = Vec::new();
    for stages in [1usize, 2, 3, 4] {
        let locked = lock_permutation(&adder, stages).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        rows3.push(vec![
            format!("permutation x{stages}"),
            locked.key_bits().to_string(),
            out.iterations.to_string(),
            format!("{:.1}", out.mean_conflicts_per_iteration()),
            out.solver_stats.conflicts.to_string(),
        ]);
    }
    {
        let locked = lock_critical_minterms(&adder, &[5]).expect("lockable");
        let out = sat_attack(&locked, &AttackConfig::default());
        rows3.push(vec![
            "critical-minterm (ref)".into(),
            locked.key_bits().to_string(),
            out.iterations.to_string(),
            format!("{:.1}", out.mean_conflicts_per_iteration()),
            out.solver_stats.conflicts.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "scheme",
                "key bits",
                "iters",
                "conflicts/iter",
                "total conflicts"
            ],
            &rows3
        )
    );

    // Approximate-attack view: budgeted AppSAT-style runs against the
    // critical-minterm lock. Residual error stays pinned to the protected
    // minterms — the error the binding algorithms amplify at the
    // application level.
    println!();
    println!("Approximate (AppSAT-style) attacks on the 2-input critical-minterm lock:");
    let locked = lock_critical_minterms(&adder, &[5, 11]).expect("lockable");
    let mut rows2 = Vec::new();
    for (dips, rand_q) in [(0u64, 8u64), (2, 8), (8, 16), (10_000, 0)] {
        let out = lockbind_attacks::approximate_sat_attack(&locked, dips, rand_q, 3);
        rows2.push(vec![
            format!("{dips} DIPs + {rand_q} random"),
            out.iterations.to_string(),
            format!("{:.4}", out.residual_error_rate),
            if out.exact { "exact" } else { "approximate" }.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["budget", "DIPs used", "residual error rate", "key quality"],
            &rows2
        )
    );
}
