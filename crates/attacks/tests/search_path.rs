//! Search-path pin: the exact DIP sequence, recovered key, clause count
//! and every `SolverStats` field of a fixed set of SAT attacks.
//!
//! The DIP driver feeds one incremental CDCL solver, so any change to the
//! solver's decisions (branching order, heap tie-breaks, clause order,
//! reduction victims) moves these values even when every attack still
//! succeeds. Speed-ups to the solver must leave them byte-identical. The
//! values were recorded at commit e386606 (`e38660650e8f`), before the
//! solver's full-trail shortcut, hole-based heap sifts and flat clause
//! arena; a failure here means the search path moved.
//!
//! The default set is `driver_equivalence.rs`'s five width-3 locks plus
//! SFLL-HD on the 3-bit multiplier. The `#[ignore]`d heavy set (run with
//! `--include-ignored`, in release) adds Anti-SAT on the 4-bit adder and
//! multiplier (256 DIPs each) and a three-minterm critical-minterm lock of
//! the 4-bit adder, whose attack runs two learnt-database reductions and
//! two arena garbage collections.

use lockbind_attacks::{sat_attack, AttackConfig};
use lockbind_locking::{
    lock_anti_sat, lock_critical_minterms, lock_permutation, lock_rll, lock_sfll_hd, LockedNetlist,
};
use lockbind_netlist::builders::{adder_fu, multiplier_fu};
use lockbind_sat::SolverStats;

/// One attack's recorded search path.
struct Pin {
    name: &'static str,
    /// DIPs in the order found, packed LSB-first.
    dips: &'static [u64],
    /// Recovered key, bit 0 first.
    key: &'static str,
    clauses: u64,
    stats: SolverStats,
}

/// The width-3 locks of `driver_equivalence.rs` plus SFLL-HD (h = 2) on
/// the 3-bit multiplier, in [`LIGHT`]'s order.
fn light_locks() -> Vec<LockedNetlist> {
    let minterm = 0xB5 & 0x3F;
    let adder = adder_fu(3);
    vec![
        lock_critical_minterms(&adder, &[minterm]).expect("lockable"),
        lock_critical_minterms(&multiplier_fu(3), &[minterm]).expect("lockable"),
        lock_rll(&adder, 6, 11).expect("lockable"),
        lock_anti_sat(&adder).expect("lockable"),
        lock_permutation(&adder, 2).expect("lockable"),
        lock_sfll_hd(&multiplier_fu(3), minterm, 2).expect("lockable"),
    ]
}

/// Anti-SAT on the 4-bit adder and multiplier, and a three-minterm lock of
/// the 4-bit adder (reduce + GC), in [`HEAVY`]'s order.
fn heavy_locks() -> Vec<LockedNetlist> {
    vec![
        lock_anti_sat(&adder_fu(4)).expect("lockable"),
        lock_anti_sat(&multiplier_fu(4)).expect("lockable"),
        lock_critical_minterms(&adder_fu(4), &[0x35, 0x30, 0x27]).expect("lockable"),
    ]
}

fn check(locks: Vec<LockedNetlist>, pins: &[Pin]) {
    assert_eq!(locks.len(), pins.len());
    for (locked, pin) in locks.iter().zip(pins) {
        let out = sat_attack(locked, &AttackConfig::default());
        let name = pin.name;
        assert!(out.success, "{name}: attack failed");
        assert_eq!(out.dips, pin.dips, "{name}: DIP sequence moved");
        let key: String = out.key.iter().map(|&b| if b { '1' } else { '0' }).collect();
        assert_eq!(key, pin.key, "{name}: key moved");
        assert_eq!(out.clauses, pin.clauses, "{name}: clause count moved");
        assert_eq!(out.solver_stats, pin.stats, "{name}: solver stats moved");
    }
}

#[test]
fn width3_attacks_keep_their_search_path() {
    check(light_locks(), LIGHT);
}

#[test]
#[ignore = "heavy: run in release with --include-ignored"]
fn heavy_attacks_keep_their_search_path() {
    check(heavy_locks(), HEAVY);
}

const LIGHT: &[Pin] = &[
    Pin {
        name: "critical-minterm",
        dips: &[
            56, 48, 49, 21, 20, 28, 29, 57, 59, 58, 50, 51, 22, 23, 31, 30, 14, 15, 7, 6, 35, 33,
            5, 13, 12, 4, 37, 53,
        ],
        key: "101011",
        clauses: 324,
        stats: SolverStats {
            decisions: 496,
            conflicts: 107,
            propagations: 4942,
            restarts: 0,
            learnt_clauses: 105,
            solves: 30,
            reduces: 0,
            gc_runs: 0,
            blocker_hits: 8344,
            watcher_visits: 16402,
            glue_hist: [0, 14, 28, 37, 16, 5, 5, 0],
        },
    },
    Pin {
        name: "multiplier minterm",
        dips: &[
            28, 60, 44, 12, 13, 45, 40, 8, 9, 41, 57, 56, 24, 25, 29, 61, 63, 26, 58, 62, 30, 10,
            14, 46, 42, 11, 15, 27, 31, 59, 43, 47, 55, 51, 49, 53,
        ],
        key: "101011",
        clauses: 580,
        stats: SolverStats {
            decisions: 618,
            conflicts: 129,
            propagations: 8193,
            restarts: 0,
            learnt_clauses: 127,
            solves: 38,
            reduces: 0,
            gc_runs: 0,
            blocker_hits: 13117,
            watcher_visits: 25169,
            glue_hist: [0, 12, 38, 41, 22, 8, 6, 0],
        },
    },
    Pin {
        name: "rll",
        dips: &[0, 34, 43],
        key: "001011",
        clauses: 268,
        stats: SolverStats {
            decisions: 166,
            conflicts: 55,
            propagations: 1078,
            restarts: 0,
            learnt_clauses: 52,
            solves: 5,
            reduces: 0,
            gc_runs: 0,
            blocker_hits: 1622,
            watcher_visits: 3509,
            glue_hist: [0, 14, 17, 16, 5, 0, 0, 0],
        },
    },
    Pin {
        name: "anti-sat",
        dips: &[
            28, 20, 21, 29, 5, 13, 12, 4, 25, 17, 24, 16, 0, 8, 9, 1, 33, 41, 40, 32, 36, 44, 45,
            37, 53, 61, 60, 52, 48, 56, 57, 49, 51, 59, 58, 50, 54, 62, 63, 55, 39, 47, 46, 38, 43,
            35, 34, 42, 10, 2, 3, 11, 15, 7, 6, 14, 30, 22, 23, 31, 27, 19, 18, 26,
        ],
        key: "101001101001",
        clauses: 1200,
        stats: SolverStats {
            decisions: 1530,
            conflicts: 194,
            propagations: 23285,
            restarts: 0,
            learnt_clauses: 193,
            solves: 66,
            reduces: 0,
            gc_runs: 0,
            blocker_hits: 50371,
            watcher_visits: 84238,
            glue_hist: [0, 8, 29, 56, 65, 28, 6, 1],
        },
    },
    Pin {
        name: "permutation",
        dips: &[18, 23],
        key: "00000",
        clauses: 546,
        stats: SolverStats {
            decisions: 174,
            conflicts: 83,
            propagations: 3259,
            restarts: 0,
            learnt_clauses: 78,
            solves: 4,
            reduces: 0,
            gc_runs: 0,
            blocker_hits: 5144,
            watcher_visits: 10255,
            glue_hist: [0, 16, 19, 10, 10, 14, 5, 4],
        },
    },
    Pin {
        name: "sfll-hd multiplier",
        dips: &[42, 10, 58, 24, 56, 8, 0, 12, 44, 60],
        key: "101011",
        clauses: 2928,
        stats: SolverStats {
            decisions: 1051,
            conflicts: 625,
            propagations: 59089,
            restarts: 2,
            learnt_clauses: 619,
            solves: 12,
            reduces: 0,
            gc_runs: 0,
            blocker_hits: 110555,
            watcher_visits: 224282,
            glue_hist: [0, 75, 121, 119, 95, 72, 51, 86],
        },
    },
];

const HEAVY: &[Pin] = &[
    Pin {
        name: "anti-sat adder4",
        dips: &[
            22, 6, 7, 5, 21, 20, 4, 36, 52, 53, 37, 23, 151, 135, 134, 150, 159, 143, 158, 142, 14,
            30, 31, 15, 79, 95, 94, 78, 70, 86, 87, 71, 199, 215, 214, 198, 206, 222, 223, 207,
            203, 219, 218, 202, 194, 210, 211, 195, 67, 83, 82, 66, 74, 90, 91, 75, 11, 27, 26, 10,
            138, 154, 155, 139, 131, 147, 146, 130, 2, 18, 19, 3, 1, 17, 16, 0, 128, 144, 145, 129,
            137, 153, 152, 136, 8, 24, 25, 9, 73, 89, 88, 72, 64, 80, 81, 65, 193, 209, 208, 192,
            200, 216, 217, 201, 205, 221, 220, 204, 196, 212, 213, 197, 69, 85, 84, 68, 76, 92, 93,
            77, 13, 29, 28, 12, 140, 156, 157, 141, 133, 149, 148, 132, 164, 180, 181, 165, 173,
            189, 188, 172, 44, 60, 61, 45, 229, 245, 244, 228, 236, 252, 253, 237, 109, 125, 124,
            108, 100, 116, 117, 101, 233, 249, 248, 232, 104, 120, 121, 105, 97, 113, 112, 96, 224,
            240, 241, 225, 161, 177, 176, 160, 168, 184, 185, 169, 41, 57, 56, 40, 32, 48, 49, 33,
            35, 51, 50, 34, 42, 58, 59, 43, 171, 187, 186, 170, 162, 178, 179, 163, 227, 243, 242,
            226, 234, 250, 251, 235, 107, 123, 122, 106, 98, 114, 115, 99, 103, 119, 118, 102, 110,
            126, 127, 111, 239, 255, 254, 238, 230, 246, 247, 231, 167, 183, 182, 166, 38, 54, 55,
            39, 47, 63, 62, 46, 174, 190, 191, 175,
        ],
        key: "1000101010001010",
        clauses: 5014,
        stats: SolverStats {
            decisions: 6608,
            conflicts: 633,
            propagations: 207219,
            restarts: 0,
            learnt_clauses: 632,
            solves: 258,
            reduces: 0,
            gc_runs: 0,
            blocker_hits: 721500,
            watcher_visits: 981156,
            glue_hist: [0, 20, 65, 127, 149, 130, 93, 48],
        },
    },
    Pin {
        name: "anti-sat multiplier4",
        dips: &[
            170, 42, 43, 41, 40, 168, 232, 104, 105, 107, 235, 234, 106, 171, 169, 233, 225, 97,
            237, 109, 101, 229, 117, 245, 253, 125, 121, 249, 241, 113, 115, 243, 123, 251, 255,
            127, 119, 247, 81, 209, 217, 89, 93, 221, 213, 85, 87, 215, 223, 95, 91, 219, 211, 83,
            67, 195, 203, 75, 79, 207, 199, 71, 69, 197, 205, 77, 65, 193, 201, 73, 103, 231, 239,
            111, 99, 227, 226, 98, 102, 230, 238, 110, 108, 236, 228, 100, 96, 224, 192, 64, 72,
            200, 204, 76, 68, 196, 198, 70, 78, 206, 202, 74, 66, 194, 210, 82, 90, 218, 222, 94,
            86, 214, 212, 84, 92, 220, 216, 88, 80, 208, 240, 112, 120, 248, 252, 124, 116, 244,
            246, 118, 126, 254, 250, 122, 114, 242, 178, 50, 58, 186, 190, 62, 54, 182, 180, 52,
            60, 188, 184, 56, 48, 176, 144, 16, 24, 152, 156, 28, 20, 148, 150, 22, 30, 158, 154,
            26, 18, 146, 130, 2, 10, 138, 142, 14, 6, 134, 132, 4, 12, 140, 136, 8, 0, 128, 160,
            32, 36, 164, 172, 44, 46, 174, 166, 38, 34, 162, 163, 35, 39, 167, 175, 47, 45, 173,
            165, 37, 33, 161, 137, 9, 1, 129, 133, 5, 13, 141, 143, 15, 7, 135, 131, 3, 11, 139,
            155, 27, 19, 147, 151, 23, 31, 159, 191, 63, 55, 183, 179, 51, 59, 187, 185, 57, 49,
            177, 181, 53, 61, 189, 157, 29, 21, 149, 145, 17, 25, 153,
        ],
        key: "0110011001100110",
        clauses: 5482,
        stats: SolverStats {
            decisions: 6327,
            conflicts: 664,
            propagations: 229447,
            restarts: 0,
            learnt_clauses: 663,
            solves: 258,
            reduces: 0,
            gc_runs: 0,
            blocker_hits: 760971,
            watcher_visits: 1032847,
            glue_hist: [0, 13, 52, 112, 159, 158, 122, 47],
        },
    },
    Pin {
        name: "three-minterm adder4",
        dips: &[
            242, 226, 224, 240, 241, 243, 227, 225, 229, 245, 244, 228, 236, 252, 253, 237, 233,
            249, 248, 232, 104, 120, 112, 96, 97, 113, 121, 105, 109, 125, 61, 63, 191, 189, 255,
            239, 111, 127, 247, 231, 199, 197, 213, 215, 223, 221, 205, 207, 143, 141, 133, 135,
            131, 129, 137, 139, 11, 9, 1, 3, 7, 5, 13, 15, 31, 159, 79, 77, 76, 204, 140, 142, 138,
            136, 128, 130, 2, 0, 64, 65, 67, 66, 70, 71, 69, 68, 196, 132, 4, 32, 160, 164, 165,
            161, 33, 37, 36, 166, 162, 34, 6, 134, 38, 39, 35, 99, 163, 167, 175, 171, 169, 41, 43,
            107, 235, 98, 102, 230, 238, 110, 106, 234, 200, 192, 194, 195, 193, 201, 202, 203,
            206, 254, 250, 251, 123, 122, 124, 126, 94, 95, 93, 92, 84, 85, 220, 212, 208, 209,
            217, 216, 88, 24, 8, 72, 73, 40, 168, 185, 184, 186, 187, 170, 174, 190, 179, 183, 181,
            180, 182, 188, 176, 177, 178, 146, 147, 151, 150, 23, 55, 103, 119, 115, 211, 210, 198,
            214, 222, 218, 219, 155, 154, 26, 27, 30, 90, 58, 59, 42, 46, 47, 173, 172, 44, 60, 12,
            45, 101, 117, 116, 80, 81, 83, 82, 114, 118, 86, 87, 22, 18, 50, 54, 51, 19, 17, 145,
            16, 20, 148, 144, 21, 149, 53, 52, 48,
        ],
        key: "111001001010110000001100",
        clauses: 17520,
        stats: SolverStats {
            decisions: 17287,
            conflicts: 4366,
            propagations: 2152053,
            restarts: 1,
            learnt_clauses: 2411,
            solves: 236,
            reduces: 2,
            gc_runs: 2,
            blocker_hits: 8476287,
            watcher_visits: 11347556,
            glue_hist: [0, 65, 75, 123, 176, 332, 710, 2880],
        },
    },
];
