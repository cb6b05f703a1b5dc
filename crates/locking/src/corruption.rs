//! Exact and sampled corruption measurement for locked modules.
//!
//! "Locked inputs" (error-producing inputs for a wrong key) are the paper's
//! central quantity: their number per module drives both the application
//! error rate and, via Eqn. 1, the expected SAT-attack iterations.

use lockbind_resil::splitmix64;

use crate::LockedNetlist;

/// Exhaustively enumerates the input minterms (packed LSB-first over the
/// input bus) on which the locked module under `key` disagrees with the
/// oracle. `input_bits` must equal the module's input count.
///
/// Uses 64-lane bit-parallel simulation: cost is `2^input_bits / 64`
/// netlist evaluations.
///
/// # Panics
/// Panics if `input_bits` mismatches the module or exceeds 24 (guard against
/// accidental huge sweeps).
pub fn corrupted_inputs(locked: &LockedNetlist, key: &[bool], input_bits: u32) -> Vec<u64> {
    assert!(input_bits <= 24, "exhaustive sweep capped at 24 input bits");
    assert_eq!(
        locked.netlist().num_inputs(),
        input_bits as usize,
        "input_bits must equal the module input count"
    );
    let n = input_bits as usize;
    let key_lanes: Vec<u64> = key.iter().map(|&b| if b { !0u64 } else { 0 }).collect();
    let total: u64 = 1u64 << input_bits;
    let mut errs = Vec::new();
    let mut base = 0u64;
    while base < total {
        // lane l encodes input value base + l
        let lanes = (total - base).min(64);
        let mut in_lanes = vec![0u64; n];
        for l in 0..lanes {
            let v = base + l;
            for (bit, lane_word) in in_lanes.iter_mut().enumerate() {
                *lane_word |= ((v >> bit) & 1) << l;
            }
        }
        let got = locked
            .netlist()
            .eval_u64(&in_lanes, &key_lanes)
            .expect("arity checked");
        let want = locked
            .oracle()
            .eval_u64(&in_lanes, &[])
            .expect("oracle arity");
        let mut diff = 0u64;
        for (g, w) in got.iter().zip(&want) {
            diff |= g ^ w;
        }
        if lanes < 64 {
            diff &= (1u64 << lanes) - 1;
        }
        let mut d = diff;
        while d != 0 {
            let l = d.trailing_zeros() as u64;
            errs.push(base + l);
            d &= d - 1;
        }
        base += lanes;
    }
    errs
}

/// Fraction of the input space corrupted by `key` (exhaustive).
///
/// # Panics
/// Same conditions as [`corrupted_inputs`].
pub fn error_rate(locked: &LockedNetlist, key: &[bool], input_bits: u32) -> f64 {
    corrupted_inputs(locked, key, input_bits).len() as f64 / 2f64.powi(input_bits as i32)
}

/// Average error rate over `samples` pseudo-random wrong keys (exhaustive
/// over inputs). This estimates the ε of Eqn. 1 for the scheme.
///
/// # Panics
/// Same conditions as [`corrupted_inputs`].
pub fn average_wrong_key_error_rate(
    locked: &LockedNetlist,
    input_bits: u32,
    samples: usize,
    seed: u64,
) -> f64 {
    let mut state = seed ^ 0x5851_F42D_4C95_7F2D;
    let kb = locked.key_bits();
    let mut total = 0.0;
    let mut taken = 0usize;
    let mut guard = 0usize;
    while taken < samples && guard < samples * 20 {
        guard += 1;
        let key: Vec<bool> = (0..kb).map(|_| splitmix64(&mut state) & 1 == 1).collect();
        if key == locked.correct_key() {
            continue;
        }
        // Skip keys that happen to be functionally correct (e.g. Anti-SAT's
        // equal-halves keys) only by their zero error contribution — they
        // still count toward the average, as in the ε definition.
        total += error_rate(locked, &key, input_bits);
        taken += 1;
    }
    if taken == 0 {
        0.0
    } else {
        total / taken as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lock_critical_minterms, lock_rll};
    use lockbind_netlist::builders::adder_fu;

    #[test]
    fn correct_key_has_no_corruption() {
        let orig = adder_fu(4);
        let locked = lock_critical_minterms(&orig, &[0x12, 0x7F]).expect("lockable");
        assert!(corrupted_inputs(&locked, locked.correct_key(), 8).is_empty());
        assert_eq!(error_rate(&locked, locked.correct_key(), 8), 0.0);
    }

    #[test]
    fn critical_minterm_lock_corrupts_protected_set_for_generic_wrong_key() {
        let orig = adder_fu(4);
        let protected = [0x12u64, 0x7F];
        let locked = lock_critical_minterms(&orig, &protected).expect("lockable");
        // Wrong key: both segments off by one bit, not colliding with the
        // protected set.
        let mut wrong = locked.correct_key().to_vec();
        wrong[3] = !wrong[3]; // segment 0
        wrong[11] = !wrong[11]; // segment 1
        let errs = corrupted_inputs(&locked, &wrong, 8);
        for p in protected {
            assert!(errs.contains(&p), "protected minterm {p:#x} not corrupted");
        }
        // Exactly the protected minterms plus the two wrong restore patterns.
        assert!(errs.len() <= 4);
    }

    #[test]
    fn epsilon_estimate_small_for_point_locking() {
        let orig = adder_fu(4);
        let locked = lock_critical_minterms(&orig, &[0x55]).expect("lockable");
        let eps = average_wrong_key_error_rate(&locked, 8, 16, 99);
        // ~2 corrupted minterms out of 256 per wrong key.
        assert!(eps > 0.0 && eps < 0.05, "eps = {eps}");
    }

    #[test]
    fn epsilon_estimate_large_for_rll() {
        let orig = adder_fu(4);
        let locked = lock_rll(&orig, 8, 3).expect("lockable");
        let eps = average_wrong_key_error_rate(&locked, 8, 16, 99);
        assert!(eps > 0.1, "eps = {eps}");
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn sweep_guard() {
        let orig = adder_fu(4);
        let locked = lock_critical_minterms(&orig, &[1]).expect("lockable");
        let _ = corrupted_inputs(&locked, locked.correct_key(), 25);
    }
}
