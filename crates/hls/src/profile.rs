//! Workload profiles extracted from a typical input trace.
//!
//! [`TraceMinterms`] executes a trace once and keeps each operation's
//! operand minterm per frame. Both profiles are built from it:
//! [`OccurrenceProfile`] is the paper's `K` matrix (Sec. IV-A): `K[m, n]`
//! is the number of times FU-input minterm `m` is applied to operation `n`
//! over the trace. [`SwitchingProfile`] gives the pairwise expected operand
//! Hamming distances that the power-aware baseline \[19\] minimizes and that
//! the Fig.-6 switching-rate metric is computed from.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use lockbind_obs as obs;

use crate::dfg::Dfg;
use crate::sim::execute_frame;
use crate::{HlsError, Minterm, OpId, Trace};

/// Hashes a minterm key with one rotate-xor-multiply per `u64`, as FxHash
/// does. Keys are raw minterms below `2^(2·width)`, so SipHash's defence
/// against chosen keys buys nothing here, and its cost showed on every
/// profile lookup of the co-design sweeps.
#[derive(Default, Clone, Copy)]
struct MintermHasher(u64);

impl Hasher for MintermHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Minterm → count, under [`MintermHasher`].
type MintermCounts = HashMap<u64, u64, BuildHasherDefault<MintermHasher>>;

/// Each operation's operand minterm in every frame of a trace, op-major:
/// one execution of the trace that both profiles are built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMinterms {
    /// `raw[op * frames + f]` = raw minterm of `op`'s operands in frame `f`.
    raw: Vec<u64>,
    num_ops: usize,
    width: u32,
    frames: usize,
}

impl TraceMinterms {
    /// Executes every frame of the trace once and records each operation's
    /// operand-pair minterm. Each executed frame adds one to the
    /// `hls.profile.frames` counter.
    ///
    /// # Errors
    /// [`HlsError::FrameArityMismatch`] if any frame has the wrong arity.
    pub fn from_trace(dfg: &Dfg, trace: &Trace) -> Result<Self, HlsError> {
        let frames = trace.len();
        let mut raw = vec![0u64; dfg.num_ops() * frames];
        for (f, frame) in trace.iter().enumerate() {
            let acts = execute_frame(dfg, frame)?;
            obs::counter!("hls.profile.frames").inc();
            for (op, act) in acts.iter().enumerate() {
                raw[op * frames + f] = act.minterm(dfg.width()).raw();
            }
        }
        Ok(TraceMinterms {
            raw,
            num_ops: dfg.num_ops(),
            width: dfg.width(),
            frames,
        })
    }

    /// Raw minterms of `op`, in frame order.
    fn of(&self, op: usize) -> &[u64] {
        &self.raw[op * self.frames..(op + 1) * self.frames]
    }
}

/// The `K` matrix: per-operation minterm occurrence counts over a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccurrenceProfile {
    per_op: Vec<MintermCounts>,
    width: u32,
    frames: usize,
}

impl OccurrenceProfile {
    /// Profiles the DFG over a trace: executes every frame and counts, for
    /// each operation, how often each operand-pair minterm occurs.
    ///
    /// # Errors
    /// [`HlsError::FrameArityMismatch`] if any frame has the wrong arity.
    pub fn from_trace(dfg: &Dfg, trace: &Trace) -> Result<Self, HlsError> {
        Ok(Self::from_minterms(&TraceMinterms::from_trace(dfg, trace)?))
    }

    /// Counts each operation's minterms from an executed trace, in frame
    /// order.
    pub fn from_minterms(minterms: &TraceMinterms) -> Self {
        let per_op = (0..minterms.num_ops)
            .map(|op| {
                let mut counts = MintermCounts::default();
                for &raw in minterms.of(op) {
                    *counts.entry(raw).or_insert(0) += 1;
                }
                counts
            })
            .collect();
        OccurrenceProfile {
            per_op,
            width: minterms.width,
            frames: minterms.frames,
        }
    }

    /// `K[m, n]`: occurrences of minterm `m` at operation `n`.
    pub fn count(&self, op: OpId, minterm: Minterm) -> u64 {
        self.per_op[op.index()]
            .get(&minterm.raw())
            .copied()
            .unwrap_or(0)
    }

    /// Sum of `K[m, op]` over a set of minterms — the weight `w_{i,j}` of
    /// Eqn. 3 for a locked FU `i` with locked-input set `M_i` and operation
    /// `j`.
    pub fn count_sum(&self, op: OpId, minterms: &[Minterm]) -> u64 {
        minterms.iter().map(|&m| self.count(op, m)).sum()
    }

    /// Operand width the profile was collected at.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of frames profiled.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// All distinct minterms observed at `op`, with counts, in descending
    /// count order (ties broken by raw minterm value for determinism).
    pub fn minterms_of(&self, op: OpId) -> Vec<(Minterm, u64)> {
        let mut v: Vec<(Minterm, u64)> = self.per_op[op.index()]
            .iter()
            .map(|(&raw, &c)| (Minterm::from_raw(raw), c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.raw().cmp(&b.0.raw())));
        v
    }

    /// The `k` most frequently occurring minterms aggregated over the given
    /// operations — the paper's candidate-locked-input list `C` ("the 10 most
    /// common inputs for each DFG", Sec. VI), restricted to the operation set
    /// of one FU class since classes are bound separately.
    pub fn top_candidates_among(&self, ops: &[OpId], k: usize) -> Vec<Minterm> {
        let distinct_bound = ops.iter().map(|op| self.per_op[op.index()].len()).sum();
        let mut agg = MintermCounts::with_capacity_and_hasher(distinct_bound, Default::default());
        for &op in ops {
            for (&raw, &c) in &self.per_op[op.index()] {
                *agg.entry(raw).or_insert(0) += c;
            }
        }
        // Count descending, then minterm ascending: a total order, since
        // minterms are distinct. Select the k best, then sort only those.
        let order = |a: &(u64, u64), b: &(u64, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        let mut v: Vec<(u64, u64)> = agg.into_iter().collect();
        if k < v.len() {
            v.select_nth_unstable_by(k, order);
            v.truncate(k);
        }
        v.sort_unstable_by(order);
        v.into_iter()
            .map(|(raw, _)| Minterm::from_raw(raw))
            .collect()
    }

    /// Total minterm applications recorded for `op` (equals the number of
    /// frames for every op).
    pub fn total(&self, op: OpId) -> u64 {
        self.per_op[op.index()].values().sum()
    }
}

/// Pairwise expected operand Hamming distances between operations, within a
/// frame and across consecutive frames. Drives the power-aware binding
/// baseline and the switching-rate overhead metric (Fig. 6 bottom).
///
/// The profile keeps the executed trace's minterms and computes each
/// distance when it is read: building it is `O(frames x ops)`, each read
/// `O(frames)`, and memory is one `u64` per op and frame, the order of the
/// trace itself. Readers ask for few pairs (the power-aware baseline at
/// most one per op and FU, the Fig.-6 metric `O(ops)`), far fewer than
/// the `ops^2` a precomputed table would hold.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchingProfile {
    minterms: TraceMinterms,
}

impl SwitchingProfile {
    /// Profiles pairwise operand Hamming distances over the trace.
    ///
    /// # Errors
    /// [`HlsError::FrameArityMismatch`] if any frame has the wrong arity.
    pub fn from_trace(dfg: &Dfg, trace: &Trace) -> Result<Self, HlsError> {
        Ok(Self::from_minterms(TraceMinterms::from_trace(dfg, trace)?))
    }

    /// Wraps an executed trace.
    pub fn from_minterms(minterms: TraceMinterms) -> Self {
        SwitchingProfile { minterms }
    }

    /// Expected Hamming distance between the operand pairs of `u` and `v`
    /// evaluated in the *same* frame.
    pub fn within(&self, u: OpId, v: OpId) -> f64 {
        let bits = differing_bits(self.minterms.of(u.index()), self.minterms.of(v.index()));
        bits as f64 / self.frames().max(1) as f64
    }

    /// Expected Hamming distance between `u` in frame `f` and `v` in frame
    /// `f + 1`.
    pub fn cross(&self, u: OpId, v: OpId) -> f64 {
        let later = self.minterms.of(v.index()).get(1..).unwrap_or_default();
        let bits = differing_bits(self.minterms.of(u.index()), later);
        bits as f64 / self.frames().saturating_sub(1).max(1) as f64
    }

    /// Operand width.
    pub fn width(&self) -> u32 {
        self.minterms.width
    }

    /// Frames profiled.
    pub fn frames(&self) -> usize {
        self.minterms.frames
    }
}

/// Total Hamming distance between two minterm streams, pairwise, over the
/// shorter one.
fn differing_bits(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x ^ y).count_ones()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::OpKind;
    use crate::ValueRef;

    fn xor_dfg() -> (Dfg, OpId, OpId) {
        let mut d = Dfg::new(4);
        let a = d.input("a");
        let b = d.input("b");
        let x = d.op(OpKind::Xor, a, b);
        let y = d.op(OpKind::And, a, ValueRef::Const(0xF));
        d.mark_output(x);
        (d, x, y)
    }

    #[test]
    fn occurrence_counts_match_trace() {
        let (d, x, y) = xor_dfg();
        let t = Trace::from_frames(vec![vec![1, 2], vec![1, 2], vec![3, 2]]);
        let p = OccurrenceProfile::from_trace(&d, &t).expect("profiled");
        assert_eq!(p.count(x, Minterm::pack(1, 2, 4)), 2);
        assert_eq!(p.count(x, Minterm::pack(3, 2, 4)), 1);
        assert_eq!(p.count(x, Minterm::pack(9, 9, 4)), 0);
        assert_eq!(p.count(y, Minterm::pack(1, 0xF, 4)), 2);
        assert_eq!(p.total(x), 3);
        assert_eq!(p.frames(), 3);
    }

    #[test]
    fn count_sum_adds_selected_minterms() {
        let (d, x, _) = xor_dfg();
        let t = Trace::from_frames(vec![vec![1, 2], vec![1, 2], vec![3, 2]]);
        let p = OccurrenceProfile::from_trace(&d, &t).expect("profiled");
        let ms = [Minterm::pack(1, 2, 4), Minterm::pack(3, 2, 4)];
        assert_eq!(p.count_sum(x, &ms), 3);
    }

    #[test]
    fn top_candidates_ordered_by_frequency() {
        let (d, x, y) = xor_dfg();
        let t = Trace::from_frames(vec![vec![1, 2], vec![1, 2], vec![3, 2]]);
        let p = OccurrenceProfile::from_trace(&d, &t).expect("profiled");
        let top = p.top_candidates_among(&[x, y], 2);
        assert_eq!(top.len(), 2);
        // (1,2)@x occurs 2x and (1,15)@y occurs 2x; (1,2) < (1,15) raw order.
        assert_eq!(top[0], Minterm::pack(1, 2, 4));
    }

    proptest::proptest! {
        /// Selection against a full sort and truncate, on 2-bit operands
        /// where many minterms tie on their count, for every `k` from 0
        /// past the number of distinct minterms.
        #[test]
        fn top_candidates_equal_a_full_sort(
            frames in proptest::collection::vec((0..4u64, 0..4u64), 0..40)
        ) {
            let mut d = Dfg::new(2);
            let a = d.input("a");
            let b = d.input("b");
            let ops = [d.op(OpKind::Xor, a, b), d.op(OpKind::And, a, b)];
            let trace = Trace::from_frames(frames.iter().map(|&(x, y)| vec![x, y]).collect());
            let p = OccurrenceProfile::from_trace(&d, &trace).expect("profiled");
            let mut agg = std::collections::BTreeMap::<u64, u64>::new();
            for &op in &ops {
                for (m, c) in p.minterms_of(op) {
                    *agg.entry(m.raw()).or_insert(0) += c;
                }
            }
            let mut ranked: Vec<(u64, u64)> = agg.into_iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for k in 0..=ranked.len() + 1 {
                let want: Vec<Minterm> =
                    ranked.iter().take(k).map(|&(raw, _)| Minterm::from_raw(raw)).collect();
                proptest::prop_assert_eq!(p.top_candidates_among(&ops, k), want);
            }
        }
    }

    #[test]
    fn minterms_of_sorted_desc() {
        let (d, x, _) = xor_dfg();
        let t = Trace::from_frames(vec![vec![1, 2], vec![1, 2], vec![3, 2]]);
        let p = OccurrenceProfile::from_trace(&d, &t).expect("profiled");
        let ms = p.minterms_of(x);
        assert_eq!(ms[0], (Minterm::pack(1, 2, 4), 2));
        assert_eq!(ms[1], (Minterm::pack(3, 2, 4), 1));
    }

    #[test]
    fn switching_profile_within_and_cross() {
        let (d, x, y) = xor_dfg();
        // frames: (a,b) = (0,0) then (0xF, 0)
        let t = Trace::from_frames(vec![vec![0, 0], vec![0xF, 0]]);
        let p = SwitchingProfile::from_trace(&d, &t).expect("profiled");
        // x operands: (0,0) then (F,0); y operands: (0,F) then (F,F)
        // within(x,y): HD((0,0),(0,F))=4 and HD((F,0),(F,F))=4 -> avg 4
        assert_eq!(p.within(x, y), 4.0);
        // self distance is zero within a frame
        assert_eq!(p.within(x, x), 0.0);
        // cross(x,x): HD((0,0),(F,0)) = 4 over 1 transition
        assert_eq!(p.cross(x, x), 4.0);
        assert_eq!(p.frames(), 2);
    }

    #[test]
    fn empty_trace_profiles_to_zero() {
        let (d, x, _) = xor_dfg();
        let t = Trace::new();
        let p = OccurrenceProfile::from_trace(&d, &t).expect("profiled");
        assert_eq!(p.total(x), 0);
        let s = SwitchingProfile::from_trace(&d, &t).expect("profiled");
        assert_eq!(s.within(x, x), 0.0);
    }
}
