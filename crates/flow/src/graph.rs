//! A small directed-graph library: SCCs (Tarjan), condensation,
//! topological order, reverse postorder, and immediate dominators
//! (Cooper–Harvey–Kennedy).
//!
//! Used for the control-flow graph, the interprocedural call graph (the
//! paper handles recursion by condensing call-graph SCCs), and the nesting
//! graph of candidate code segments (paper §2.3).

/// A directed graph over nodes `0..n`.
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Adds edge `from → to`. Parallel edges are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(
            from < self.len() && to < self.len(),
            "edge endpoint out of range"
        );
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
            self.preds[to].push(from);
        }
    }

    /// Successors of `u`.
    pub fn succs(&self, u: usize) -> &[usize] {
        &self.succs[u]
    }

    /// Predecessors of `u`.
    pub fn preds(&self, u: usize) -> &[usize] {
        &self.preds[u]
    }

    /// Whether the edge `from → to` exists.
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.succs[from].contains(&to)
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Strongly connected components (iterative Tarjan).
    ///
    /// Components are returned in *reverse topological order* of the
    /// condensation: every edge between distinct components points from a
    /// later component to an earlier one in [`Sccs::comps`].
    pub fn sccs(&self) -> Sccs {
        let n = self.len();
        let mut index = vec![usize::MAX; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut comp_of = vec![usize::MAX; n];
        let mut comps: Vec<Vec<usize>> = Vec::new();
        let mut next_index = 0usize;

        // Explicit DFS stack: (node, next-successor-position).
        let mut dfs: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            dfs.push((start, 0));
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;

            while let Some(&mut (v, ref mut pos)) = dfs.last_mut() {
                if *pos < self.succs[v].len() {
                    let w = self.succs[v][*pos];
                    *pos += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        dfs.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    dfs.pop();
                    if let Some(&(parent, _)) = dfs.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w] = false;
                            comp_of[w] = comps.len();
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comps.push(comp);
                    }
                }
            }
        }
        Sccs { comp_of, comps }
    }

    /// Condenses the graph by `sccs` into a DAG over components.
    pub fn condense(&self, sccs: &Sccs) -> DiGraph {
        let mut dag = DiGraph::new(sccs.comps.len());
        for u in 0..self.len() {
            for &v in &self.succs[u] {
                let (cu, cv) = (sccs.comp_of[u], sccs.comp_of[v]);
                if cu != cv {
                    dag.add_edge(cu, cv);
                }
            }
        }
        dag
    }

    /// Topological order (Kahn), or `None` if the graph has a cycle.
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        let n = self.len();
        let mut in_deg: Vec<usize> = (0..n).map(|u| self.preds[u].len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&u| in_deg[u] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &v in &self.succs[u] {
                in_deg[v] -= 1;
                if in_deg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Reverse postorder of the nodes reachable from `entry`.
    pub fn reverse_postorder(&self, entry: usize) -> Vec<usize> {
        let n = self.len();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        let mut dfs: Vec<(usize, usize)> = vec![(entry, 0)];
        visited[entry] = true;
        while let Some(&mut (v, ref mut pos)) = dfs.last_mut() {
            if *pos < self.succs[v].len() {
                let w = self.succs[v][*pos];
                *pos += 1;
                if !visited[w] {
                    visited[w] = true;
                    dfs.push((w, 0));
                }
            } else {
                dfs.pop();
                post.push(v);
            }
        }
        post.reverse();
        post
    }

    /// Immediate dominators of nodes reachable from `entry`
    /// (Cooper–Harvey–Kennedy). `idom[entry] == entry`; unreachable nodes
    /// get `None`.
    pub fn dominators(&self, entry: usize) -> Vec<Option<usize>> {
        let rpo = self.reverse_postorder(entry);
        let n = self.len();
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, &u) in rpo.iter().enumerate() {
            rpo_pos[u] = i;
        }
        let mut idom: Vec<Option<usize>> = vec![None; n];
        idom[entry] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &u in rpo.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                for &p in &self.preds[u] {
                    if idom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_pos, cur, p),
                    });
                }
                if new_idom.is_some() && idom[u] != new_idom {
                    idom[u] = new_idom;
                    changed = true;
                }
            }
        }
        return idom;

        fn intersect(
            idom: &[Option<usize>],
            rpo_pos: &[usize],
            mut a: usize,
            mut b: usize,
        ) -> usize {
            while a != b {
                while rpo_pos[a] > rpo_pos[b] {
                    a = idom[a].expect("processed node has idom");
                }
                while rpo_pos[b] > rpo_pos[a] {
                    b = idom[b].expect("processed node has idom");
                }
            }
            a
        }
    }

    /// Transitive reduction of a DAG: removes every edge `u → w` for which
    /// a longer path `u → … → w` exists.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle.
    pub fn transitive_reduction(&self) -> DiGraph {
        assert!(
            self.topo_order().is_some(),
            "transitive reduction needs a DAG"
        );
        let n = self.len();
        // Reachability from each node (small graphs: O(V·E) is fine).
        let mut reach: Vec<Vec<bool>> = vec![vec![false; n]; n];
        for (u, row) in reach.iter_mut().enumerate() {
            let mut stack: Vec<usize> = self.succs(u).to_vec();
            while let Some(v) = stack.pop() {
                if !row[v] {
                    row[v] = true;
                    stack.extend(self.succs(v).iter().copied());
                }
            }
        }
        let mut out = DiGraph::new(n);
        for u in 0..n {
            for &w in self.succs(u) {
                let redundant = self.succs(u).iter().any(|&v| v != w && reach[v][w]);
                if !redundant {
                    out.add_edge(u, w);
                }
            }
        }
        out
    }

    /// Whether `a` dominates `b`, given an `idom` array from
    /// [`dominators`](Self::dominators).
    pub fn dominates(idom: &[Option<usize>], a: usize, b: usize) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match idom[cur] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

/// Strongly connected components of a [`DiGraph`].
#[derive(Debug, Clone)]
pub struct Sccs {
    /// Component index of each node.
    pub comp_of: Vec<usize>,
    /// Nodes of each component, in reverse topological order of the
    /// condensation.
    pub comps: Vec<Vec<usize>>,
}

impl Sccs {
    /// Whether node `u` is in a nontrivial SCC (size > 1, or a self-loop
    /// checked by the caller).
    pub fn in_cycle(&self, u: usize) -> bool {
        self.comps[self.comp_of[u]].len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a graph from an edge list.
    fn graph(n: usize, edges: &[(usize, usize)]) -> DiGraph {
        let mut g = DiGraph::new(n);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    #[test]
    fn scc_on_dag_is_singletons() {
        let g = graph(4, &[(0, 1), (1, 2), (0, 3), (3, 2)]);
        let sccs = g.sccs();
        assert_eq!(sccs.comps.len(), 4);
        assert!(!sccs.in_cycle(0));
    }

    #[test]
    fn scc_finds_cycle() {
        // 0 → 1 → 2 → 0 is one SCC; 3 is alone.
        let g = graph(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let sccs = g.sccs();
        assert_eq!(sccs.comps.len(), 2);
        assert!(sccs.in_cycle(0));
        assert!(sccs.in_cycle(1));
        assert!(!sccs.in_cycle(3));
        assert_eq!(sccs.comp_of[0], sccs.comp_of[2]);
    }

    #[test]
    fn scc_components_in_reverse_topo_order() {
        let g = graph(5, &[(0, 1), (1, 2), (2, 1), (2, 3), (3, 4)]);
        let sccs = g.sccs();
        // Every cross-component edge must go from a later comp to an
        // earlier comp in the comps vec.
        for u in 0..g.len() {
            for &v in g.succs(u) {
                if sccs.comp_of[u] != sccs.comp_of[v] {
                    assert!(sccs.comp_of[u] > sccs.comp_of[v]);
                }
            }
        }
    }

    #[test]
    fn condensation_is_acyclic() {
        let g = graph(
            6,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 3),
                (3, 2),
                (3, 4),
                (4, 5),
                (5, 4),
            ],
        );
        let sccs = g.sccs();
        let dag = g.condense(&sccs);
        assert_eq!(dag.len(), 3);
        assert!(dag.topo_order().is_some());
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = graph(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let order = g.topo_order().expect("acyclic");
        let pos: Vec<usize> = {
            let mut p = vec![0; 5];
            for (i, &u) in order.iter().enumerate() {
                p[u] = i;
            }
            p
        };
        for u in 0..5 {
            for &v in g.succs(u) {
                assert!(pos[u] < pos[v]);
            }
        }
    }

    #[test]
    fn topo_order_none_on_cycle() {
        let g = graph(2, &[(0, 1), (1, 0)]);
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn reverse_postorder_starts_at_entry() {
        let g = graph(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let rpo = g.reverse_postorder(0);
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo.len(), 4);
        // 1 must come before 2 in rpo (2 has an edge from 1).
        let pos1 = rpo.iter().position(|&x| x == 1).unwrap();
        let pos2 = rpo.iter().position(|&x| x == 2).unwrap();
        assert!(pos1 < pos2);
    }

    #[test]
    fn dominators_diamond() {
        //     0
        //    / \
        //   1   2
        //    \ /
        //     3
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let idom = g.dominators(0);
        assert_eq!(idom[0], Some(0));
        assert_eq!(idom[1], Some(0));
        assert_eq!(idom[2], Some(0));
        assert_eq!(idom[3], Some(0));
        assert!(DiGraph::dominates(&idom, 0, 3));
        assert!(!DiGraph::dominates(&idom, 1, 3));
    }

    #[test]
    fn dominators_loop() {
        // 0 → 1 → 2 → 1 (back edge), 2 → 3
        let g = graph(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let idom = g.dominators(0);
        assert_eq!(idom[1], Some(0));
        assert_eq!(idom[2], Some(1));
        assert_eq!(idom[3], Some(2));
        assert!(DiGraph::dominates(&idom, 1, 3));
    }

    #[test]
    fn dominators_unreachable_is_none() {
        let g = graph(3, &[(0, 1)]);
        let idom = g.dominators(0);
        assert_eq!(idom[2], None);
    }

    #[test]
    fn parallel_edges_collapse() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.preds(1).len(), 1);
    }

    #[test]
    fn transitive_reduction_removes_shortcuts() {
        // 0→1→2 plus shortcut 0→2: reduction keeps only the chain.
        let g = graph(3, &[(0, 1), (1, 2), (0, 2)]);
        let r = g.transitive_reduction();
        assert!(r.has_edge(0, 1));
        assert!(r.has_edge(1, 2));
        assert!(!r.has_edge(0, 2));
        // A genuine diamond keeps all edges.
        let d = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let rd = d.transitive_reduction();
        assert_eq!(rd.edge_count(), 4);
    }

    #[test]
    #[should_panic(expected = "needs a DAG")]
    fn transitive_reduction_rejects_cycles() {
        let g = graph(2, &[(0, 1), (1, 0)]);
        g.transitive_reduction();
    }

    #[test]
    fn large_path_does_not_overflow_stack() {
        // 100k-node path: iterative Tarjan and RPO must not recurse.
        let n = 100_000;
        let mut g = DiGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        assert_eq!(g.sccs().comps.len(), n);
        assert_eq!(g.reverse_postorder(0).len(), n);
    }
}
