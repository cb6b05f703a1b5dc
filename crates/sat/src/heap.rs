//! Indexed max-heap over variables ordered by VSIDS activity.

/// Marks a variable absent from the heap in [`VarHeap::pos`].
const ABSENT: u32 = u32::MAX;

/// A binary max-heap of variable indices keyed by an external activity array,
/// with position tracking so membership tests and increases are `O(log n)`.
///
/// Sifts move a hole instead of swapping, and a sift-down takes the right
/// child only when it is strictly more active than the left one, so ties
/// resolve exactly as a swap-based heap resolves them and the pop order is
/// a pure function of the push/pop/increase sequence.
#[derive(Debug, Clone, Default)]
pub(crate) struct VarHeap {
    heap: Vec<u32>,
    /// `pos[v]` = index of `v` in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl VarHeap {
    pub(crate) fn new() -> Self {
        VarHeap::default()
    }

    pub(crate) fn grow_to(&mut self, num_vars: usize) {
        if self.pos.len() < num_vars {
            self.pos.resize(num_vars, ABSENT);
        }
    }

    pub(crate) fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != ABSENT
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub(crate) fn push(&mut self, v: u32, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    pub(crate) fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            self.pos[last as usize] = ABSENT;
            return Some(last);
        };
        self.pos[top as usize] = ABSENT;
        self.heap[0] = last;
        self.sift_down(0, activity);
        Some(top)
    }

    /// Empties the heap, leaving exactly the state that popping every
    /// entry would leave.
    pub(crate) fn clear(&mut self) {
        for &v in &self.heap {
            self.pos[v as usize] = ABSENT;
        }
        self.heap.clear();
    }

    /// Re-establishes heap order after `v`'s activity increased.
    pub(crate) fn decrease_key(&mut self, v: u32, activity: &[f64]) {
        if let Some(&i) = self.pos.get(v as usize).filter(|&&p| p != ABSENT) {
            self.sift_up(i as usize, activity);
        }
    }

    /// Moves the entry at `i` up past every strictly less active ancestor.
    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let act = activity[v as usize];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if act <= activity[p as usize] {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    /// Moves the entry at `i` down while its more active child (the left
    /// one on a tie) is strictly more active than it.
    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let act = activity[v as usize];
        let len = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let child =
                if r < len && activity[self.heap[r] as usize] > activity[self.heap[l] as usize] {
                    r
                } else {
                    l
                };
            let c = self.heap[child];
            if activity[c as usize] <= act {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The swap-based heap [`VarHeap`] replaced: the reference its pop
    /// order must match.
    #[derive(Clone, Default)]
    struct SwapHeap {
        heap: Vec<u32>,
        pos: Vec<usize>,
    }

    impl SwapHeap {
        fn contains(&self, v: u32) -> bool {
            self.pos[v as usize] != usize::MAX
        }

        fn push(&mut self, v: u32, act: &[f64]) {
            if self.contains(v) {
                return;
            }
            self.pos[v as usize] = self.heap.len();
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1, act);
        }

        fn pop(&mut self, act: &[f64]) -> Option<u32> {
            let top = *self.heap.first()?;
            self.pos[top as usize] = usize::MAX;
            let last = self.heap.pop().expect("non-empty");
            if !self.heap.is_empty() {
                self.heap[0] = last;
                self.pos[last as usize] = 0;
                self.sift_down(0, act);
            }
            Some(top)
        }

        fn decrease_key(&mut self, v: u32, act: &[f64]) {
            if self.contains(v) {
                self.sift_up(self.pos[v as usize], act);
            }
        }

        fn sift_up(&mut self, mut i: usize, act: &[f64]) {
            while i > 0 {
                let parent = (i - 1) / 2;
                if act[self.heap[i] as usize] <= act[self.heap[parent] as usize] {
                    break;
                }
                self.swap(i, parent);
                i = parent;
            }
        }

        fn sift_down(&mut self, mut i: usize, act: &[f64]) {
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut best = i;
                if l < self.heap.len() && act[self.heap[l] as usize] > act[self.heap[best] as usize]
                {
                    best = l;
                }
                if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[best] as usize]
                {
                    best = r;
                }
                if best == i {
                    break;
                }
                self.swap(i, best);
                i = best;
            }
        }

        fn swap(&mut self, a: usize, b: usize) {
            self.heap.swap(a, b);
            self.pos[self.heap[a] as usize] = a;
            self.pos[self.heap[b] as usize] = b;
        }
    }

    const VARS: usize = 12;

    /// Tie-heavy activities: mostly zeros and repeated small values.
    const LEVELS: [f64; 6] = [0.0, 0.0, 0.0, 1.0, 1.0, 2.5];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_the_swap_based_heap(
            start in proptest::collection::vec(0usize..LEVELS.len(), VARS),
            ops in proptest::collection::vec((0u8..8, 0u32..VARS as u32, 0usize..LEVELS.len()), 0..200),
        ) {
            let mut act: Vec<f64> = start.iter().map(|&i| LEVELS[i]).collect();
            let mut h = VarHeap::new();
            h.grow_to(VARS);
            let mut r = SwapHeap { heap: Vec::new(), pos: vec![usize::MAX; VARS] };
            for (op, v, level) in ops {
                match op {
                    0..=2 => {
                        h.push(v, &act);
                        r.push(v, &act);
                    }
                    3 | 4 => prop_assert_eq!(h.pop(&act), r.pop(&act)),
                    5 | 6 => {
                        // Activities only grow; adding zero keeps the ties.
                        act[v as usize] += LEVELS[level];
                        h.decrease_key(v, &act);
                        r.decrease_key(v, &act);
                    }
                    _ => {
                        let mut drained = h.clone();
                        while drained.pop(&act).is_some() {}
                        h.clear();
                        prop_assert_eq!(&h.heap, &drained.heap);
                        prop_assert_eq!(&h.pos, &drained.pos);
                        while r.pop(&act).is_some() {}
                    }
                }
                for u in 0..VARS as u32 {
                    prop_assert_eq!(h.contains(u), r.contains(u));
                }
            }
            let order: Vec<u32> = std::iter::from_fn(|| h.pop(&act)).collect();
            let reference: Vec<u32> = std::iter::from_fn(|| r.pop(&act)).collect();
            prop_assert_eq!(order, reference);
        }
    }

    #[test]
    fn pops_in_activity_order() {
        let act = vec![0.5, 3.0, 1.0, 2.0];
        let mut h = VarHeap::new();
        h.grow_to(4);
        for v in 0..4 {
            h.push(v, &act);
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop(&act)).collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn push_is_idempotent() {
        let act = vec![1.0, 2.0];
        let mut h = VarHeap::new();
        h.grow_to(2);
        h.push(0, &act);
        h.push(0, &act);
        assert_eq!(h.pop(&act), Some(0));
        assert!(h.is_empty());
    }

    #[test]
    fn decrease_key_reorders() {
        let mut act = vec![1.0, 2.0, 3.0];
        let mut h = VarHeap::new();
        h.grow_to(3);
        for v in 0..3 {
            h.push(v, &act);
        }
        act[0] = 10.0;
        h.decrease_key(0, &act);
        assert_eq!(h.pop(&act), Some(0));
    }
}
