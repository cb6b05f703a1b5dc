//! Random logic locking (RLL): XOR/XNOR key gates on random internal wires.
//!
//! The classic pre-SAT-era scheme: high corruption for wrong keys, but the
//! SAT attack recovers the key in a handful of iterations — the
//! high-corruption end of the paper's corruption/resilience trade-off.

use lockbind_netlist::analysis::{eval_tv, fanin_cone, Tv};
use lockbind_netlist::{Gate, Netlist, Signal};
use lockbind_resil::splitmix64;

use crate::{LockError, LockedNetlist};

/// Inserts up to `key_bits` XOR/XNOR key gates on distinct internal wires of
/// `original`, chosen pseudo-randomly from `seed`. If the module has fewer
/// eligible internal gates than `key_bits`, one key gate per eligible wire
/// is inserted (the effective key is shorter).
///
/// Eligible wires are *live* (in the fan-in cone of a declared output) and
/// *non-constant* (not fixed by constant propagation alone): a key gate on
/// a dead wire is unobservable and a key gate on a constant wire reduces to
/// a constant or inverter under either hypothesis — both weaknesses the
/// `LB07xx` structural audit flags, and both free key bits for an attacker.
///
/// The polarity (XOR vs XNOR) of each key gate is also seed-chosen; the
/// correct key bit is `0` for XOR and `1` for XNOR insertions.
///
/// # Errors
///
/// * [`LockError::AlreadyKeyed`] if `original` has key inputs,
/// * [`LockError::EmptyConfiguration`] if `key_bits` is zero,
/// * [`LockError::NoInternalWires`] if the module has no logic gates.
pub fn lock_rll(
    original: &Netlist,
    key_bits: usize,
    seed: u64,
) -> Result<LockedNetlist, LockError> {
    if original.num_keys() != 0 {
        return Err(LockError::AlreadyKeyed);
    }
    if key_bits == 0 {
        return Err(LockError::EmptyConfiguration);
    }
    // Candidate wires: outputs of real logic gates that are live (reach a
    // declared output) and not constant under X-propagation.
    let live = fanin_cone(original, original.outputs());
    let baseline = eval_tv(
        original,
        &vec![Tv::X; original.num_inputs()],
        &vec![Tv::X; original.num_keys()],
    );
    let candidates: Vec<usize> = original
        .iter_gates()
        .filter(|(s, g)| {
            matches!(
                g,
                Gate::And(..) | Gate::Or(..) | Gate::Xor(..) | Gate::Not(_)
            ) && live[s.index()]
                && baseline[s.index()] == Tv::X
        })
        .map(|(s, _)| s.index())
        .collect();
    if candidates.is_empty() {
        return Err(LockError::NoInternalWires);
    }

    // Choose min(key_bits, candidates) distinct positions.
    let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
    let mut chosen: Vec<usize> = Vec::new();
    let want = key_bits.min(candidates.len());
    let mut pool = candidates;
    for _ in 0..want {
        let idx = (splitmix64(&mut state) as usize) % pool.len();
        chosen.push(pool.swap_remove(idx));
    }
    chosen.sort_unstable();

    let mut nl = Netlist::new(format!("{}+rll", original.name()));
    let inputs = nl.add_inputs(original.num_inputs());
    let mut correct_key = Vec::with_capacity(want);

    // Re-clone the logic, splicing a key gate after each chosen wire.
    let mut map: Vec<Signal> = Vec::with_capacity(original.num_nodes());
    let mut next_choice = 0usize;
    for (sig, gate) in original.iter_gates() {
        let s = match gate {
            Gate::False => nl.lit_false(),
            Gate::Input(i) => inputs[i],
            Gate::Key(_) => unreachable!("checked num_keys == 0"),
            Gate::And(a, b) => nl.and(map[a.index()], map[b.index()]),
            Gate::Or(a, b) => nl.or(map[a.index()], map[b.index()]),
            Gate::Xor(a, b) => nl.xor(map[a.index()], map[b.index()]),
            Gate::Not(a) => nl.not(map[a.index()]),
        };
        let s = if next_choice < chosen.len() && chosen[next_choice] == sig.index() {
            next_choice += 1;
            let k = nl.add_key();
            let xnor = splitmix64(&mut state) & 1 == 1;
            correct_key.push(xnor);
            let x = nl.xor(s, k);
            if xnor {
                nl.not(x)
            } else {
                x
            }
        } else {
            s
        };
        map.push(s);
    }
    for out in original.outputs() {
        let mapped = map[out.index()];
        nl.mark_output(mapped);
    }

    Ok(LockedNetlist::new(nl, original.clone(), correct_key, "rll"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corruption::error_rate;
    use lockbind_netlist::builders::adder_fu;

    #[test]
    fn correct_key_preserves_function() {
        let orig = adder_fu(4);
        let locked = lock_rll(&orig, 8, 42).expect("lockable");
        assert_eq!(locked.key_bits(), 8);
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(
                    locked.eval_with_key(&[a, b], 4, locked.correct_key()),
                    orig.eval_words(&[a, b], 4, &[]),
                    "({a},{b})"
                );
            }
        }
    }

    #[test]
    fn wrong_keys_corrupt_heavily() {
        let orig = adder_fu(4);
        let locked = lock_rll(&orig, 8, 7).expect("lockable");
        // Flip several key bits; RLL should corrupt a large input fraction.
        let mut wrong = locked.correct_key().to_vec();
        for b in wrong.iter_mut().take(4) {
            *b = !*b;
        }
        let rate = error_rate(&locked, &wrong, 8);
        assert!(rate > 0.2, "RLL corruption unexpectedly low: {rate}");
    }

    #[test]
    fn key_bit_count_clamped_to_wires() {
        let mut tiny = Netlist::new("tiny");
        let a = tiny.add_input();
        let b = tiny.add_input();
        let x = tiny.xor(a, b);
        tiny.mark_output(x);
        let locked = lock_rll(&tiny, 100, 1).expect("lockable");
        assert_eq!(locked.key_bits(), 1);
    }

    #[test]
    fn rejects_empty_and_gateless() {
        let orig = adder_fu(4);
        assert_eq!(lock_rll(&orig, 0, 1), Err(LockError::EmptyConfiguration));
        let mut wires_only = Netlist::new("w");
        let a = wires_only.add_input();
        wires_only.mark_output(a);
        assert_eq!(lock_rll(&wires_only, 4, 1), Err(LockError::NoInternalWires));
    }

    #[test]
    fn different_seeds_differ() {
        let orig = adder_fu(4);
        let l1 = lock_rll(&orig, 6, 1).expect("lockable");
        let l2 = lock_rll(&orig, 6, 2).expect("lockable");
        // Structures almost surely differ (placement or polarity).
        assert!(
            l1.netlist() != l2.netlist() || l1.correct_key() != l2.correct_key(),
            "seeds produced identical locks"
        );
    }
}
