//! Structural builders: arithmetic datapath cells and whole functional-unit
//! modules used as locking targets.

use crate::{Netlist, Signal};

/// A bundle of signals forming a word, LSB first.
pub type Bus = Vec<Signal>;

/// Full adder: returns `(sum, carry)`.
pub fn full_adder(nl: &mut Netlist, a: Signal, b: Signal, cin: Signal) -> (Signal, Signal) {
    let axb = nl.xor(a, b);
    let sum = nl.xor(axb, cin);
    let t1 = nl.and(a, b);
    let t2 = nl.and(axb, cin);
    let carry = nl.or(t1, t2);
    (sum, carry)
}

/// Ripple-carry adder over equal-width buses; result wraps (carry-out
/// discarded), matching the wrapping semantics of the HLS operations.
///
/// # Panics
/// Panics if the buses differ in width or are empty.
pub fn ripple_carry_adder(nl: &mut Netlist, a: &[Signal], b: &[Signal]) -> Bus {
    assert_eq!(a.len(), b.len(), "adder operands must have equal width");
    assert!(!a.is_empty(), "adder width must be positive");
    let mut carry = nl.lit_false();
    let mut out = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        let (s, c) = full_adder(nl, a[i], b[i], carry);
        out.push(s);
        carry = c;
    }
    out
}

/// Shift-and-add array multiplier; returns the low `width` bits of `a * b`
/// (wrapping), matching the HLS `Mul` semantics.
pub fn array_multiplier(nl: &mut Netlist, a: &[Signal], b: &[Signal]) -> Bus {
    assert_eq!(
        a.len(),
        b.len(),
        "multiplier operands must have equal width"
    );
    assert!(!a.is_empty(), "multiplier width must be positive");
    let w = a.len();
    let zero = nl.lit_false();
    let mut acc: Bus = vec![zero; w];
    for (i, &bi) in b.iter().enumerate() {
        // Partial product of a shifted left by i, gated by b_i, truncated to w.
        let mut pp: Bus = vec![zero; w];
        for (j, &aj) in a.iter().enumerate() {
            if i + j < w {
                pp[i + j] = nl.and(aj, bi);
            }
        }
        acc = ripple_carry_adder(nl, &acc, &pp);
    }
    acc
}

/// Equality of a bus against a constant: a single AND-reduced comparator.
pub fn equals_const(nl: &mut Netlist, bus: &[Signal], value: u64) -> Signal {
    assert!(!bus.is_empty(), "comparator width must be positive");
    let mut acc: Option<Signal> = None;
    for (i, &s) in bus.iter().enumerate() {
        let bit = (value >> i) & 1 == 1;
        let term = if bit { s } else { nl.not(s) };
        acc = Some(match acc {
            None => term,
            Some(prev) => nl.and(prev, term),
        });
    }
    acc.expect("non-empty bus")
}

/// Bitwise XOR of two buses.
pub fn xor_bus(nl: &mut Netlist, a: &[Signal], b: &[Signal]) -> Bus {
    assert_eq!(a.len(), b.len(), "xor operands must have equal width");
    a.iter().zip(b).map(|(&x, &y)| nl.xor(x, y)).collect()
}

/// XOR a single control signal into every bit of a bus (the classic
/// output-corruption point used by locking schemes).
pub fn conditional_invert(nl: &mut Netlist, flip: Signal, bus: &[Signal]) -> Bus {
    bus.iter().map(|&s| nl.xor(s, flip)).collect()
}

/// A `width`-bit adder functional unit: inputs `a` then `b` (LSB first),
/// outputs `a + b mod 2^width`.
///
/// # Example
/// ```
/// use lockbind_netlist::builders::adder_fu;
/// let nl = adder_fu(8);
/// assert_eq!(nl.eval_words(&[250, 10], 8, &[]), vec![4]);
/// ```
pub fn adder_fu(width: u32) -> Netlist {
    let mut nl = Netlist::new(format!("adder{width}"));
    let a = nl.add_inputs(width as usize);
    let b = nl.add_inputs(width as usize);
    let sum = ripple_carry_adder(&mut nl, &a, &b);
    for s in sum {
        nl.mark_output(s);
    }
    nl
}

/// A `width`-bit multiplier functional unit (low word of `a * b`).
pub fn multiplier_fu(width: u32) -> Netlist {
    let mut nl = Netlist::new(format!("mul{width}"));
    let a = nl.add_inputs(width as usize);
    let b = nl.add_inputs(width as usize);
    let prod = array_multiplier(&mut nl, &a, &b);
    for s in prod {
        nl.mark_output(s);
    }
    nl
}

/// A `width`-bit bitwise-XOR functional unit (cheap locking target used in
/// tests).
pub fn xor_fu(width: u32) -> Netlist {
    let mut nl = Netlist::new(format!("xor{width}"));
    let a = nl.add_inputs(width as usize);
    let b = nl.add_inputs(width as usize);
    let x = xor_bus(&mut nl, &a, &b);
    for s in x {
        nl.mark_output(s);
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_exhaustive_4bit() {
        let nl = adder_fu(4);
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(nl.eval_words(&[a, b], 4, &[]), vec![(a + b) & 0xF]);
            }
        }
    }

    #[test]
    fn multiplier_exhaustive_4bit() {
        let nl = multiplier_fu(4);
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(nl.eval_words(&[a, b], 4, &[]), vec![(a * b) & 0xF]);
            }
        }
    }

    #[test]
    fn adder_random_8bit() {
        let nl = adder_fu(8);
        let mut x = 0x12345u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (x >> 8) & 0xFF;
            let b = (x >> 24) & 0xFF;
            assert_eq!(nl.eval_words(&[a, b], 8, &[]), vec![(a + b) & 0xFF]);
        }
    }

    #[test]
    fn multiplier_random_8bit() {
        let nl = multiplier_fu(8);
        let mut x = 0xBEEFu64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (x >> 8) & 0xFF;
            let b = (x >> 24) & 0xFF;
            assert_eq!(nl.eval_words(&[a, b], 8, &[]), vec![(a * b) & 0xFF]);
        }
    }

    #[test]
    fn equals_const_matches_only_value() {
        let mut nl = Netlist::new("eq");
        let bus = nl.add_inputs(4);
        let hit = equals_const(&mut nl, &bus, 0b1010);
        nl.mark_output(hit);
        for v in 0..16u64 {
            let out = nl.eval_words(&[v], 4, &[]);
            assert_eq!(out[0] & 1 == 1, v == 0b1010, "value {v}");
        }
    }

    #[test]
    fn conditional_invert_flips_all_bits() {
        let mut nl = Netlist::new("ci");
        let bus = nl.add_inputs(4);
        let flip = nl.add_input();
        let out = conditional_invert(&mut nl, flip, &bus);
        for s in out {
            nl.mark_output(s);
        }
        // flip=0 passes through; flip=1 inverts.
        let pass = nl
            .eval(&[true, false, true, false, false], &[])
            .expect("ok");
        assert_eq!(pass, vec![true, false, true, false]);
        let inv = nl.eval(&[true, false, true, false, true], &[]).expect("ok");
        assert_eq!(inv, vec![false, true, false, true]);
    }

    #[test]
    fn fu_shapes() {
        let a = adder_fu(8);
        assert_eq!((a.num_inputs(), a.num_outputs(), a.num_keys()), (16, 8, 0));
        let m = multiplier_fu(8);
        assert_eq!((m.num_inputs(), m.num_outputs()), (16, 8));
        assert!(m.gate_count() > a.gate_count());
    }
}
