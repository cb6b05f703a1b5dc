//! Property test: log-linear histogram quantiles against a
//! sorted-vector oracle.
//!
//! The contract under test: for any distribution of `u64` observations
//! and any quantile `q`, the histogram reports exactly the bucket upper
//! bound of the oracle's nearest-rank value — never a different bucket,
//! never an understated value.

use lockbind_obs::hist::{bucket_index, bucket_upper, Histogram};
use proptest::prelude::*;

/// Nearest-rank quantile over a sorted vector: value at rank
/// `max(1, ceil(q*N))`, 1-based.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let n = sorted.len() as f64;
    let rank = ((q * n).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #[test]
    fn histogram_quantile_matches_sorted_oracle(
        mut values in proptest::collection::vec(0u64..2_000_000, 1..400),
        q_mil in 0u32..=1000,
    ) {
        let q = f64::from(q_mil) / 1000.0;
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let expected = bucket_upper(bucket_index(oracle_quantile(&values, q)));
        prop_assert_eq!(h.snapshot().quantile(q), expected);
    }

    #[test]
    fn quantile_never_understates(
        values in proptest::collection::vec(0u64..u64::MAX, 1..200),
        q_mil in 0u32..=1000,
    ) {
        // The reported quantile is always >= the oracle's exact value:
        // bucket attribution rounds up, never down.
        let q = f64::from(q_mil) / 1000.0;
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert!(h.snapshot().quantile(q) >= oracle_quantile(&sorted, q));
    }

    #[test]
    fn quantiles_are_monotone_in_q(
        values in proptest::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let qs = [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        for pair in qs.windows(2) {
            prop_assert!(snap.quantile(pair[0]) <= snap.quantile(pair[1]));
        }
    }
}
