//! The exact SAT attack and the approximate attack share one DIP driver:
//! with an unlimited DIP budget and no random queries, the approximate
//! attack must take exactly the exact attack's path — the same number of
//! DIPs and the same extracted key — on every scheme family.

use lockbind_attacks::{approximate_sat_attack, sat_attack, AttackConfig};
use lockbind_locking::{
    lock_anti_sat, lock_critical_minterms, lock_permutation, lock_rll, LockedNetlist,
};
use lockbind_netlist::builders::{adder_fu, multiplier_fu};

fn locks(width: u32) -> Vec<(&'static str, LockedNetlist)> {
    let minterm = 0xB5 & ((1u64 << (2 * width)) - 1);
    let adder = adder_fu(width);
    vec![
        (
            "critical-minterm",
            lock_critical_minterms(&adder, &[minterm]).expect("lockable"),
        ),
        (
            "multiplier minterm",
            lock_critical_minterms(&multiplier_fu(width), &[minterm]).expect("lockable"),
        ),
        ("rll", lock_rll(&adder, 6, 11).expect("lockable")),
        ("anti-sat", lock_anti_sat(&adder).expect("lockable")),
        (
            "permutation",
            lock_permutation(&adder, 2).expect("lockable"),
        ),
    ]
}

#[test]
fn unbudgeted_approximate_attack_is_the_exact_attack() {
    for width in [3, 4] {
        for (scheme, locked) in locks(width) {
            let exact = sat_attack(&locked, &AttackConfig::default());
            assert!(exact.success, "{scheme} w{width}: exact attack failed");
            let approx = approximate_sat_attack(&locked, u64::MAX, 0, 5);
            assert_eq!(
                approx.iterations, exact.iterations,
                "{scheme} w{width}: DIP counts differ"
            );
            assert_eq!(approx.key, exact.key, "{scheme} w{width}: keys differ");
            assert!(approx.exact, "{scheme} w{width}: residual error left");
        }
    }
}
