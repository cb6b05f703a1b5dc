use lockbind_hls::{Dfg, Trace};

use crate::Kernel;

/// A benchmark instance: a kernel DFG plus its generated typical workload.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// The kernel's data-flow graph.
    pub dfg: Dfg,
    /// The synthetic "typical workload" input trace.
    pub trace: Trace,
}

impl Benchmark {
    /// Operation mix `(adder-class ops, multiplier ops)`.
    pub fn op_mix(&self) -> (usize, usize) {
        self.dfg.op_mix()
    }
}

/// Aggregate shape statistics over a set of benchmarks — the numbers the
/// paper reports for its suite (avg 18.6 adds, 10.6 multiplies, 13.5 cycles
/// with up to 3 FUs per class).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteStats {
    /// Mean adder-class operations per kernel.
    pub avg_adds: f64,
    /// Mean multiply operations per kernel.
    pub avg_muls: f64,
    /// Mean schedule depth (cycles) when list-scheduled onto 3+3 FUs.
    pub avg_cycles: f64,
}

impl SuiteStats {
    /// Computes suite statistics for every kernel.
    pub fn for_all_kernels() -> SuiteStats {
        use lockbind_hls::{schedule_list, Allocation};
        let mut adds = 0usize;
        let mut muls = 0usize;
        let mut cycles = 0u32;
        let kernels = Kernel::ALL;
        for k in kernels {
            let dfg = k.build_dfg();
            let (a, m) = dfg.op_mix();
            adds += a;
            muls += m;
            let alloc = Allocation::new(3, 3.min(if m == 0 { 0 } else { 3 }));
            let alloc = if m == 0 { Allocation::new(3, 0) } else { alloc };
            let sched = schedule_list(&dfg, &alloc).expect("kernels schedule onto 3+3 FUs");
            cycles += sched.num_cycles();
        }
        let n = kernels.len() as f64;
        SuiteStats {
            avg_adds: adds as f64 / n,
            avg_muls: muls as f64 / n,
            avg_cycles: f64::from(cycles) / n,
        }
    }
}

/// Convenience: the FU classes a kernel actually uses.
#[cfg(test)]
pub(crate) fn classes_used(dfg: &Dfg) -> Vec<lockbind_hls::FuClass> {
    lockbind_hls::FuClass::ALL
        .into_iter()
        .filter(|&c| !dfg.ops_of_class(c).is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_hls::{FuClass, Minterm};

    #[test]
    fn suite_shape_matches_paper_scale() {
        let s = SuiteStats::for_all_kernels();
        // Paper: 18.6 adds, 10.6 muls, 13.5 cycles. Our stand-ins must land
        // in the same regime (same order, within ~2x).
        assert!(
            (10.0..=30.0).contains(&s.avg_adds),
            "avg adds {} out of regime",
            s.avg_adds
        );
        assert!(
            (5.0..=20.0).contains(&s.avg_muls),
            "avg muls {} out of regime",
            s.avg_muls
        );
        assert!(
            (7.0..=27.0).contains(&s.avg_cycles),
            "avg cycles {} out of regime",
            s.avg_cycles
        );
    }

    /// The profile's map lookups against a recount by linear scans over
    /// the executed trace, on every minterm the trace applies anywhere and
    /// one it never does.
    #[test]
    fn profile_lookups_equal_a_brute_force_recount() {
        use lockbind_hls::sim::execute_frame;
        use lockbind_hls::OccurrenceProfile;
        let bench = Kernel::Fir.benchmark(60, 5);
        let (dfg, width) = (&bench.dfg, bench.dfg.width());
        let profile = OccurrenceProfile::from_trace(dfg, &bench.trace).expect("profiled");
        // `applied[f][op]`: the raw minterm op `op` sees in frame `f`.
        let applied: Vec<Vec<u64>> = bench
            .trace
            .iter()
            .map(|frame| {
                let acts = execute_frame(dfg, frame).expect("arity matches");
                acts.iter().map(|a| a.minterm(width).raw()).collect()
            })
            .collect();
        let recount = |ops: &[usize], raw: u64| -> u64 {
            let hits = applied
                .iter()
                .flat_map(|f| ops.iter().map(move |&op| f[op]));
            hits.filter(|&m| m == raw).count() as u64
        };
        let mut seen: Vec<u64> = applied.iter().flatten().copied().collect();
        seen.sort_unstable();
        seen.dedup();
        let unseen = (0..)
            .find(|m| seen.binary_search(m).is_err())
            .expect("a free minterm");
        for (op, _) in dfg.iter_ops() {
            let i = op.index();
            for &raw in seen.iter().chain([&unseen]) {
                assert_eq!(
                    profile.count(op, Minterm::from_raw(raw)),
                    recount(&[i], raw)
                );
            }
            let mut want: Vec<(Minterm, u64)> = seen
                .iter()
                .map(|&raw| (Minterm::from_raw(raw), recount(&[i], raw)))
                .filter(|&(_, c)| c > 0)
                .collect();
            want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.raw().cmp(&b.0.raw())));
            assert_eq!(profile.minterms_of(op), want, "op {i}");
        }
        for class in FuClass::ALL {
            let ops = dfg.ops_of_class(class);
            let indices: Vec<usize> = ops.iter().map(|op| op.index()).collect();
            let mut ranked: Vec<(u64, u64)> = seen
                .iter()
                .map(|&raw| (raw, recount(&indices, raw)))
                .filter(|&(_, c)| c > 0)
                .collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for k in [0, 1, 10, ranked.len(), ranked.len() + 1] {
                let want: Vec<Minterm> = ranked
                    .iter()
                    .take(k)
                    .map(|&(raw, _)| Minterm::from_raw(raw))
                    .collect();
                assert_eq!(
                    profile.top_candidates_among(&ops, k),
                    want,
                    "{class:?} top {k}"
                );
            }
        }
    }

    /// The switching profile's distances, computed when read, against
    /// the pairwise tables it used to accumulate frame by frame, bit for
    /// bit: on every suite kernel at 60 and 300 frames, and on its first
    /// 0, 1 and 2 frames.
    #[test]
    fn switching_profile_distances_equal_the_pairwise_accumulation() {
        use lockbind_hls::sim::execute_frame;
        use lockbind_hls::{OpId, SwitchingProfile};
        for kernel in Kernel::ALL {
            let full = kernel.benchmark(300, 5).trace;
            let traces = [
                kernel.benchmark(60, 5).trace,
                full.clone(),
                Trace::new(),
                full.iter().take(1).cloned().collect(),
                full.iter().take(2).cloned().collect(),
            ];
            let dfg = kernel.build_dfg();
            let ids: Vec<OpId> = dfg.op_ids().collect();
            let n = ids.len();
            for trace in &traces {
                let (mut within, mut cross) = (vec![0u64; n * n], vec![0u64; n * n]);
                let mut prev: Option<Vec<Minterm>> = None;
                for frame in trace {
                    let acts = execute_frame(&dfg, frame).expect("arity matches");
                    let ms: Vec<Minterm> = acts.iter().map(|a| a.minterm(dfg.width())).collect();
                    for u in 0..n {
                        for v in 0..n {
                            within[u * n + v] += u64::from(ms[u].hamming_distance(ms[v]));
                            if let Some(p) = &prev {
                                cross[u * n + v] += u64::from(p[u].hamming_distance(ms[v]));
                            }
                        }
                    }
                    prev = Some(ms);
                }
                let f = trace.len().max(1) as f64;
                let fc = trace.len().saturating_sub(1).max(1) as f64;
                let profile = SwitchingProfile::from_trace(&dfg, trace).expect("profiled");
                for u in 0..n {
                    for v in 0..n {
                        let (ou, ov) = (ids[u], ids[v]);
                        let want_within = within[u * n + v] as f64 / f;
                        let want_cross = cross[u * n + v] as f64 / fc;
                        assert_eq!(
                            profile.within(ou, ov).to_bits(),
                            want_within.to_bits(),
                            "{kernel:?} {} frames within({u}, {v})",
                            trace.len()
                        );
                        assert_eq!(
                            profile.cross(ou, ov).to_bits(),
                            want_cross.to_bits(),
                            "{kernel:?} {} frames cross({u}, {v})",
                            trace.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn classes_used_detects_multiplierless_kernels() {
        let ecb = Kernel::EcbEnc4.build_dfg();
        assert_eq!(classes_used(&ecb), vec![FuClass::Adder]);
        let fir = Kernel::Fir.build_dfg();
        assert_eq!(classes_used(&fir).len(), 2);
    }
}
