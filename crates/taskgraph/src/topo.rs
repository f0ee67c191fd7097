//! Topological machinery: orders, ready lists, descendants.
//!
//! The paper's schedulers are all *list schedulers*: tasks execute strictly
//! sequentially, and whenever the machine is free the next task is picked
//! from the **ready list** (tasks whose parents have all completed) by some
//! weight rule. [`list_schedule`] captures that pattern once; every
//! sequencing strategy in the workspace is a weight function plugged into it.

use crate::graph::{TaskGraph, TaskId};

/// A deterministic topological order (Kahn's algorithm, smallest id first).
pub fn topological_order(g: &TaskGraph) -> Vec<TaskId> {
    list_schedule(g, |_, _| 0.0)
}

/// `true` iff `order` is a permutation of all tasks that respects every edge.
pub fn is_topological(g: &TaskGraph, order: &[TaskId]) -> bool {
    if order.len() != g.task_count() {
        return false;
    }
    let mut pos = vec![usize::MAX; g.task_count()];
    for (i, &t) in order.iter().enumerate() {
        if t.index() >= g.task_count() || pos[t.index()] != usize::MAX {
            return false;
        }
        pos[t.index()] = i;
    }
    g.edges().all(|(u, v)| pos[u.index()] < pos[v.index()])
}

/// List scheduling: repeatedly pick the ready task with the **largest**
/// weight (ties broken by smallest task id, matching the paper's published
/// sequences). The weight function sees the graph and the candidate task.
pub fn list_schedule<W>(g: &TaskGraph, mut weight: W) -> Vec<TaskId>
where
    W: FnMut(&TaskGraph, TaskId) -> f64,
{
    let n = g.task_count();
    let mut indeg: Vec<usize> = g.task_ids().map(|t| g.preds(t).len()).collect();
    let mut ready: Vec<TaskId> = g.task_ids().filter(|t| indeg[t.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        // Select max weight, tie-break by smallest id.
        let mut best = 0usize;
        let mut best_w = weight(g, ready[0]);
        for (k, &t) in ready.iter().enumerate().skip(1) {
            let w = weight(g, t);
            if w > best_w || (w == best_w && t < ready[best]) {
                best = k;
                best_w = w;
            }
        }
        let t = ready.swap_remove(best);
        order.push(t);
        for &s in g.succs(t) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "graph validated as acyclic");
    order
}

/// The set of tasks in the subgraph rooted at `v` — `v` plus everything
/// reachable from it. Returned as a dense membership mask indexed by task id.
pub fn descendants_mask(g: &TaskGraph, v: TaskId) -> Vec<bool> {
    let mut mask = vec![false; g.task_count()];
    let mut stack = vec![v];
    while let Some(u) = stack.pop() {
        if std::mem::replace(&mut mask[u.index()], true) {
            continue;
        }
        stack.extend_from_slice(g.succs(u));
    }
    mask
}

/// Every task's [`descendants_mask`] at once, as the rows of a bit matrix:
/// built in one reverse-topological pass (a task's row is its own bit OR
/// its successors' rows) instead of one graph walk per task.
#[derive(Debug, Clone, Default)]
pub struct DescendantSets {
    /// `u64` words per row.
    words: usize,
    bits: Vec<u64>,
}

impl DescendantSets {
    /// The descendant sets of every task of `g`.
    pub fn new(g: &TaskGraph) -> Self {
        let mut sets = Self::default();
        sets.rebuild(g);
        sets
    }

    /// Recomputes the sets for `g`, reusing the allocation.
    pub fn rebuild(&mut self, g: &TaskGraph) {
        let words = g.task_count().div_ceil(64);
        self.words = words;
        self.bits.clear();
        self.bits.resize(g.task_count() * words, 0);
        for t in topological_order(g).into_iter().rev() {
            let row = t.index() * words;
            self.bits[row + t.index() / 64] |= 1 << (t.index() % 64);
            for &s in g.succs(t) {
                let succ = s.index() * words;
                for w in 0..words {
                    let bits = self.bits[succ + w];
                    self.bits[row + w] |= bits;
                }
            }
        }
    }

    /// The members of `v`'s set — `v` and everything reachable from it —
    /// as task indices in increasing order, the order a scan of
    /// [`descendants_mask`] visits them in.
    pub fn members(&self, v: TaskId) -> impl Iterator<Item = usize> + '_ {
        self.row(v).iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// The size of `v`'s set.
    pub fn count(&self, v: TaskId) -> usize {
        self.row(v).iter().map(|w| w.count_ones() as usize).sum()
    }

    fn row(&self, v: TaskId) -> &[u64] {
        &self.bits[v.index() * self.words..(v.index() + 1) * self.words]
    }
}

/// Transitive-closure matrix: `closure[u][v]` is `true` iff `v` is reachable
/// from `u` (including `u == v`). Intended for tests and small graphs.
pub fn transitive_closure(g: &TaskGraph) -> Vec<Vec<bool>> {
    g.task_ids().map(|t| descendants_mask(g, t)).collect()
}

/// Enumerates **all** topological orders, invoking `visit` on each, stopping
/// early once `limit` orders have been produced. Returns the number visited.
///
/// An in-place iterative generator driven by a sorted ready-candidate list:
/// each backtracking step touches only the chosen task and the successors it
/// released — O(width + out-degree) instead of the former O(n) full
/// `indeg` rescan per recursion level — and nothing is allocated per order
/// (the prefix, ready list and per-depth choice stack are reused
/// throughout). Enumeration order is unchanged: at every depth candidates
/// are tried in ascending task id, so callers that cap with `limit` or
/// tie-break by first-seen keep their exact results (the property suite
/// pins this against the retained reference).
///
/// Exponential in general — meant for the exhaustive baseline on graphs of
/// at most ~10 tasks.
pub fn for_each_topological_order<F>(g: &TaskGraph, limit: usize, mut visit: F) -> usize
where
    F: FnMut(&[TaskId]),
{
    let n = g.task_count();
    if limit == 0 {
        return 0;
    }
    if n == 0 {
        visit(&[]);
        return 1;
    }
    let mut indeg: Vec<usize> = g.task_ids().map(|t| g.preds(t).len()).collect();
    // Sorted ascending by id: `task_ids()` yields ascending, and every
    // insertion below goes through `insert_sorted`.
    let mut ready: Vec<TaskId> = g.task_ids().filter(|t| indeg[t.index()] == 0).collect();
    let mut prefix: Vec<TaskId> = Vec::with_capacity(n);
    // choice[depth]: index into `ready` of the task placed at that depth.
    let mut choice: Vec<usize> = Vec::with_capacity(n);
    let mut count = 0usize;
    let mut pos = 0usize;

    fn insert_sorted(ready: &mut Vec<TaskId>, t: TaskId) {
        let at = ready.partition_point(|&r| r < t);
        ready.insert(at, t);
    }

    loop {
        if pos < ready.len() {
            // Place the next candidate at the current depth.
            let t = ready.remove(pos);
            for &s in g.succs(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    insert_sorted(&mut ready, s);
                }
            }
            prefix.push(t);
            choice.push(pos);
            if prefix.len() == n {
                visit(&prefix);
                count += 1;
                if count >= limit {
                    return count;
                }
            } else {
                pos = 0;
                continue;
            }
        } else if prefix.is_empty() {
            return count;
        }
        // Backtrack: undo the deepest placement, resume at its successor
        // candidate. Removing the released successors restores `ready` to
        // exactly its pre-placement state, so re-inserting the task lands
        // it back at its recorded index.
        let t = prefix.pop().expect("backtrack only with a placed prefix");
        for &s in g.succs(t) {
            if indeg[s.index()] == 0 {
                let at = ready
                    .binary_search(&s)
                    .expect("released successor is in the ready list");
                ready.remove(at);
            }
            indeg[s.index()] += 1;
        }
        insert_sorted(&mut ready, t);
        pos = choice.pop().expect("choice stack mirrors the prefix") + 1;
    }
}

/// The retained pre-generator enumeration (recursive, O(n) ready scan per
/// level) — the equivalence reference for [`for_each_topological_order`]
/// and the bench baseline for `topo_orders_per_sec`.
#[doc(hidden)]
pub fn for_each_topological_order_reference<F>(g: &TaskGraph, limit: usize, mut visit: F) -> usize
where
    F: FnMut(&[TaskId]),
{
    let n = g.task_count();
    let mut indeg: Vec<usize> = g.task_ids().map(|t| g.preds(t).len()).collect();
    let mut prefix: Vec<TaskId> = Vec::with_capacity(n);
    let mut count = 0usize;

    fn recurse<F: FnMut(&[TaskId])>(
        g: &TaskGraph,
        indeg: &mut Vec<usize>,
        prefix: &mut Vec<TaskId>,
        count: &mut usize,
        limit: usize,
        visit: &mut F,
    ) {
        if *count >= limit {
            return;
        }
        if prefix.len() == g.task_count() {
            visit(prefix);
            *count += 1;
            return;
        }
        for t in g.task_ids() {
            if indeg[t.index()] == 0 {
                // Claim t.
                indeg[t.index()] = usize::MAX;
                for &s in g.succs(t) {
                    indeg[s.index()] -= 1;
                }
                prefix.push(t);
                recurse(g, indeg, prefix, count, limit, visit);
                prefix.pop();
                for &s in g.succs(t) {
                    indeg[s.index()] += 1;
                }
                indeg[t.index()] = 0;
                if *count >= limit {
                    return;
                }
            }
        }
    }

    recurse(g, &mut indeg, &mut prefix, &mut count, limit, &mut visit);
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design_point::DesignPoint;
    use batsched_battery::units::{MilliAmps, Minutes};

    fn dp2() -> Vec<DesignPoint> {
        vec![
            DesignPoint::new(MilliAmps::new(100.0), Minutes::new(1.0)),
            DesignPoint::new(MilliAmps::new(40.0), Minutes::new(2.0)),
        ]
    }

    /// A -> {B, C} -> D
    fn diamond() -> TaskGraph {
        let mut b = TaskGraph::builder();
        let a = b.task("A", dp2());
        let x = b.task("B", dp2());
        let y = b.task("C", dp2());
        let z = b.task("D", dp2());
        b.edge(a, x).edge(a, y);
        b.parents(z, [x, y]);
        b.build().unwrap()
    }

    #[test]
    fn topological_order_is_valid() {
        let g = diamond();
        let order = topological_order(&g);
        assert!(is_topological(&g, &order));
        assert_eq!(order[0], TaskId(0));
        assert_eq!(order[3], TaskId(3));
    }

    #[test]
    fn is_topological_rejects_bad_orders() {
        let g = diamond();
        // D before its parents.
        assert!(!is_topological(
            &g,
            &[TaskId(0), TaskId(3), TaskId(1), TaskId(2)]
        ));
        // Missing tasks.
        assert!(!is_topological(&g, &[TaskId(0), TaskId(1)]));
        // Duplicates.
        assert!(!is_topological(
            &g,
            &[TaskId(0), TaskId(1), TaskId(1), TaskId(3)]
        ));
        // Out-of-range id.
        assert!(!is_topological(
            &g,
            &[TaskId(0), TaskId(1), TaskId(9), TaskId(3)]
        ));
    }

    #[test]
    fn list_schedule_honours_weights() {
        let g = diamond();
        // Prefer C (id 2) over B (id 1).
        let order = list_schedule(&g, |_, t| if t == TaskId(2) { 10.0 } else { 1.0 });
        assert_eq!(order, vec![TaskId(0), TaskId(2), TaskId(1), TaskId(3)]);
    }

    #[test]
    fn list_schedule_breaks_ties_by_id() {
        let g = diamond();
        let order = list_schedule(&g, |_, _| 1.0);
        assert_eq!(order, vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)]);
    }

    #[test]
    fn descendants_include_self_and_all_reachable() {
        let g = diamond();
        let mask = descendants_mask(&g, TaskId(1));
        assert_eq!(mask, vec![false, true, false, true]);
        let root = descendants_mask(&g, TaskId(0));
        assert!(root.iter().all(|&b| b));
    }

    #[test]
    fn closure_matches_descendants() {
        let g = diamond();
        let cl = transitive_closure(&g);
        for t in g.task_ids() {
            assert_eq!(cl[t.index()], descendants_mask(&g, t));
        }
    }

    #[test]
    fn diamond_has_two_topological_orders() {
        let g = diamond();
        let mut seen = Vec::new();
        let n = for_each_topological_order(&g, 100, |o| seen.push(o.to_vec()));
        assert_eq!(n, 2);
        assert!(seen.iter().all(|o| is_topological(&g, o)));
        assert_ne!(seen[0], seen[1]);
    }

    #[test]
    fn generator_matches_reference_order_and_count() {
        // Diamond, a chain-of-diamonds, and an antichain: the in-place
        // generator must visit the same orders in the same sequence as the
        // retained recursive reference, under every limit.
        let graphs = [diamond(), {
            let mut b = TaskGraph::builder();
            let ids: Vec<TaskId> = (0..7).map(|i| b.task(format!("T{i}"), dp2())).collect();
            b.edge(ids[0], ids[1])
                .edge(ids[0], ids[2])
                .edge(ids[1], ids[3])
                .edge(ids[2], ids[3])
                .edge(ids[3], ids[4]);
            // ids[5], ids[6] independent.
            b.build().unwrap()
        }];
        for g in &graphs {
            for limit in [0, 1, 3, 10, usize::MAX] {
                let mut fast = Vec::new();
                let nf = for_each_topological_order(g, limit, |o| fast.push(o.to_vec()));
                let mut slow = Vec::new();
                let ns = for_each_topological_order_reference(g, limit, |o| slow.push(o.to_vec()));
                assert_eq!(nf, ns, "limit {limit}");
                assert_eq!(fast, slow, "limit {limit}");
            }
        }
    }

    #[test]
    fn generator_handles_edges_to_smaller_ids() {
        // Successors with ids below their predecessor exercise the sorted
        // re-insertion path of the ready list.
        let mut b = TaskGraph::builder();
        let a = b.task("A", dp2());
        let x = b.task("B", dp2());
        let y = b.task("C", dp2());
        b.edge(y, x).edge(y, a);
        let g = b.build().unwrap();
        let mut fast = Vec::new();
        for_each_topological_order(&g, usize::MAX, |o| fast.push(o.to_vec()));
        let mut slow = Vec::new();
        for_each_topological_order_reference(&g, usize::MAX, |o| slow.push(o.to_vec()));
        assert_eq!(fast, slow);
        assert!(fast.iter().all(|o| is_topological(&g, o)));
        assert_eq!(fast.len(), 2); // C first, then A/B in either order
    }

    #[test]
    fn order_enumeration_respects_limit() {
        // An antichain of 6 independent tasks has 720 orders; cap at 10.
        let mut b = TaskGraph::builder();
        for i in 0..6 {
            b.task(format!("T{i}"), dp2());
        }
        let g = b.build().unwrap();
        let n = for_each_topological_order(&g, 10, |_| {});
        assert_eq!(n, 10);
    }
}
