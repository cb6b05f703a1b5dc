//! Workload profiles extracted from a typical input trace.
//!
//! [`OccurrenceProfile`] is the paper's `K` matrix (Sec. IV-A): `K[m, n]` is
//! the number of times FU-input minterm `m` is applied to operation `n` over
//! the trace. [`SwitchingProfile`] holds the pairwise expected operand
//! Hamming distances that the power-aware baseline \[19\] minimizes and that
//! the Fig.-6 switching-rate metric is computed from.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
        let mut per_op = vec![MintermCounts::default(); dfg.num_ops()];
        for frame in trace {
            let acts = execute_frame(dfg, frame)?;
            for (op, act) in acts.iter().enumerate() {
                *per_op[op]
                    .entry(act.minterm(dfg.width()).raw())
                    .or_insert(0) += 1;
            }
        }
        Ok(OccurrenceProfile {
            per_op,
            width: dfg.width(),
            frames: trace.len(),
        })
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
        let mut agg = MintermCounts::default();
        for &op in ops {
            for (&raw, &c) in &self.per_op[op.index()] {
                *agg.entry(raw).or_insert(0) += c;
            }
        }
        let mut v: Vec<(u64, u64)> = agg.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
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
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchingProfile {
    num_ops: usize,
    /// `within[u * n + v]` = average `HD(minterm_u(f), minterm_v(f))`.
    within: Vec<f64>,
    /// `cross[u * n + v]` = average `HD(minterm_u(f), minterm_v(f + 1))`.
    cross: Vec<f64>,
    width: u32,
    frames: usize,
}

impl SwitchingProfile {
    /// Profiles pairwise operand Hamming distances over the trace.
    ///
    /// Cost is `O(frames x ops^2)` — fine for the paper-scale DFGs (~30 ops).
    ///
    /// # Errors
    /// [`HlsError::FrameArityMismatch`] if any frame has the wrong arity.
    pub fn from_trace(dfg: &Dfg, trace: &Trace) -> Result<Self, HlsError> {
        let n = dfg.num_ops();
        let mut within = vec![0u64; n * n];
        let mut cross = vec![0u64; n * n];
        let mut prev: Option<Vec<Minterm>> = None;
        for frame in trace {
            let acts = execute_frame(dfg, frame)?;
            let ms: Vec<Minterm> = acts.iter().map(|a| a.minterm(dfg.width())).collect();
            for u in 0..n {
                for v in 0..n {
                    within[u * n + v] += u64::from(ms[u].hamming_distance(ms[v]));
                }
            }
            if let Some(p) = &prev {
                for u in 0..n {
                    for v in 0..n {
                        cross[u * n + v] += u64::from(p[u].hamming_distance(ms[v]));
                    }
                }
            }
            prev = Some(ms);
        }
        let f = trace.len().max(1) as f64;
        let fc = trace.len().saturating_sub(1).max(1) as f64;
        Ok(SwitchingProfile {
            num_ops: n,
            within: within.into_iter().map(|x| x as f64 / f).collect(),
            cross: cross.into_iter().map(|x| x as f64 / fc).collect(),
            width: dfg.width(),
            frames: trace.len(),
        })
    }

    /// Expected Hamming distance between the operand pairs of `u` and `v`
    /// evaluated in the *same* frame.
    pub fn within(&self, u: OpId, v: OpId) -> f64 {
        self.within[u.index() * self.num_ops + v.index()]
    }

    /// Expected Hamming distance between `u` in frame `f` and `v` in frame
    /// `f + 1`.
    pub fn cross(&self, u: OpId, v: OpId) -> f64 {
        self.cross[u.index() * self.num_ops + v.index()]
    }

    /// Operand width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frames profiled.
    pub fn frames(&self) -> usize {
        self.frames
    }
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
