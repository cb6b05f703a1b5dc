//! End-to-end realization: from a bound/locked RT-level design to actual
//! locked gate-level functional units.

use lockbind_hls::{Binding, FuClass, FuId, Minterm};
use lockbind_locking::{lock_critical_minterms, LockedNetlist};
use lockbind_netlist::builders::{adder_fu, multiplier_fu};

use crate::{CoreError, LockingSpec};

/// A fully realized secure design: the security-aware binding plus one
/// locked gate-level netlist per locked FU.
#[derive(Debug, Clone)]
pub struct LockedDesign {
    /// The security-aware operation→FU binding.
    pub binding: Binding,
    /// The locking configuration the modules implement.
    pub spec: LockingSpec,
    /// One critical-minterm-locked netlist per locked FU.
    pub modules: Vec<(FuId, LockedNetlist)>,
}

/// Converts an HLS minterm (packed `(a << width) | b`) into the netlist FU
/// input-bus pattern (bus is `a` bits LSB-first, then `b` bits:
/// `a | (b << width)`).
///
/// # Example
/// ```
/// use lockbind_hls::Minterm;
/// use lockbind_core::minterm_to_pattern;
/// let m = Minterm::pack(0x3, 0x5, 4);
/// assert_eq!(minterm_to_pattern(m, 4), 0x3 | (0x5 << 4));
/// ```
pub fn minterm_to_pattern(m: Minterm, width: u32) -> u64 {
    let (a, b) = m.unpack(width);
    a | (b << width)
}

/// Instantiates each locked FU of `spec` as a gate-level module
/// (ripple-carry adder or array multiplier at the given operand width)
/// locked with critical-minterm locking on exactly the spec's minterms.
///
/// # Errors
/// [`CoreError::Lock`] if a module cannot be locked (e.g. empty minterm
/// sets).
pub fn realize_locked_modules(
    spec: &LockingSpec,
    width: u32,
) -> Result<Vec<(FuId, LockedNetlist)>, CoreError> {
    let mut modules = Vec::new();
    for (fu, minterms) in spec.iter() {
        let original = match fu.class {
            FuClass::Adder => adder_fu(width),
            FuClass::Multiplier => multiplier_fu(width),
        };
        let patterns: Vec<u64> = minterms
            .iter()
            .map(|&m| minterm_to_pattern(m, width))
            .collect();
        let locked = lock_critical_minterms(&original, &patterns)?;
        modules.push((fu, locked));
    }
    Ok(modules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_hls::Allocation;
    use lockbind_locking::corruption::corrupted_inputs;

    #[test]
    fn pattern_conversion_is_consistent_with_fu_bus_order() {
        // An adder FU evaluates words [a, b]; the locked module must corrupt
        // exactly the converted pattern.
        let width = 4u32;
        let m = Minterm::pack(0x9, 0x2, width); // a=9, b=2
        let alloc = Allocation::new(1, 0);
        let spec =
            LockingSpec::new(&alloc, vec![(FuId::new(FuClass::Adder, 0), vec![m])]).expect("valid");
        let modules = realize_locked_modules(&spec, width).expect("lockable");
        let (_, locked) = &modules[0];

        // Correct key: intact everywhere, including at (9, 2).
        assert_eq!(
            locked.eval_with_key(&[9, 2], width, locked.correct_key()),
            vec![11]
        );
        // Wrong key: the protected pattern is corrupted.
        let mut wrong = locked.correct_key().to_vec();
        wrong[0] = !wrong[0];
        let errs = corrupted_inputs(locked, &wrong, 2 * width);
        assert!(errs.contains(&minterm_to_pattern(m, width)));
    }

    #[test]
    fn realize_builds_class_appropriate_modules() {
        let width = 4u32;
        let alloc = Allocation::new(1, 1);
        let spec = LockingSpec::new(
            &alloc,
            vec![
                (
                    FuId::new(FuClass::Adder, 0),
                    vec![Minterm::pack(1, 2, width)],
                ),
                (
                    FuId::new(FuClass::Multiplier, 0),
                    vec![Minterm::pack(3, 3, width)],
                ),
            ],
        )
        .expect("valid");
        let modules = realize_locked_modules(&spec, width).expect("lockable");
        assert_eq!(modules.len(), 2);
        // Multiplier module behaves like a multiplier under the correct key.
        let (_, mul) = &modules[1];
        assert_eq!(
            mul.eval_with_key(&[3, 5], width, mul.correct_key()),
            vec![15]
        );
        // Adder module adds.
        let (_, add) = &modules[0];
        assert_eq!(
            add.eval_with_key(&[3, 5], width, add.correct_key()),
            vec![8]
        );
    }

    #[test]
    fn empty_minterm_set_is_rejected() {
        let alloc = Allocation::new(1, 0);
        let spec = LockingSpec::new(&alloc, vec![(FuId::new(FuClass::Adder, 0), vec![])])
            .expect("spec itself is fine");
        let err = realize_locked_modules(&spec, 4).unwrap_err();
        assert!(matches!(err, CoreError::Lock(_)));
    }
}
