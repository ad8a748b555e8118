//! The paper's articulation-point characterisation of well-defined states
//! (Corollary 1), implemented independently of the interval method in
//! [`pr_model::analysis`] so the two can cross-check each other.
//!
//! Build the undirected graph over lock-state vertices `0..=p` with the
//! path edges `{q, q+1}` ("the labels of v1 and v2 differ by 1") and a
//! chord `{u, w}` for every write edge. A non-endpoint vertex `q` lies on
//! every 0–p path iff it is an articulation point, which holds iff no
//! chord spans it — and those are exactly the well-defined states. The
//! endpoints 0 and `p` are the paper's "trivial" well-defined states
//! (total rollback and the current state).

use pr_model::LockIndex;

/// Computes the well-defined lock states of a transaction with current
/// lock state `p` and the given write edges, via articulation points of
/// the path-plus-chords graph. Returns the states in ascending order.
pub fn well_defined_by_articulation(p: u32, edges: &[(u32, u32)]) -> Vec<LockIndex> {
    let n = (p + 1) as usize;
    if n == 1 {
        return vec![LockIndex::ZERO];
    }
    // Adjacency: path edges + chords clamped into range.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for q in 0..n - 1 {
        adj[q].push(q + 1);
        adj[q + 1].push(q);
    }
    for &(u, w) in edges {
        let (u, w) = (u as usize, (w as usize).min(n - 1));
        if w > u + 1 {
            adj[u].push(w);
            adj[w].push(u);
        }
    }

    // Iterative Tarjan articulation-point algorithm (Hopcroft–Tarjan
    // low-link), rooted at 0; the graph is connected via the path edges.
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut is_art = vec![false; n];
    let mut timer = 0usize;
    // Stack frames: (vertex, parent, next child index).
    let mut stack: Vec<(usize, usize, usize)> = vec![(0, usize::MAX, 0)];
    disc[0] = 0;
    low[0] = 0;
    timer += 1;
    let mut root_children = 0usize;
    while let Some(&mut (v, parent, ref mut ci)) = stack.last_mut() {
        if *ci < adj[v].len() {
            let to = adj[v][*ci];
            *ci += 1;
            if to == parent {
                continue;
            }
            if disc[to] != usize::MAX {
                low[v] = low[v].min(disc[to]);
            } else {
                disc[to] = timer;
                low[to] = timer;
                timer += 1;
                if v == 0 {
                    root_children += 1;
                }
                stack.push((to, v, 0));
            }
        } else {
            stack.pop();
            if let Some(&(pv, _, _)) = stack.last() {
                low[pv] = low[pv].min(low[v]);
                if pv != 0 && low[v] >= disc[pv] {
                    is_art[pv] = true;
                }
            }
        }
    }
    is_art[0] = root_children > 1;

    // Well-defined = trivial endpoints + articulation points in between.
    (0..n)
        .filter(|&q| q == 0 || q == n - 1 || is_art[q])
        .map(|q| LockIndex::new(q as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lis(v: &[u32]) -> Vec<LockIndex> {
        v.iter().map(|&q| LockIndex::new(q)).collect()
    }

    #[test]
    fn no_chords_makes_every_state_well_defined() {
        assert_eq!(well_defined_by_articulation(4, &[]), lis(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn single_vertex_graph() {
        assert_eq!(well_defined_by_articulation(0, &[]), lis(&[0]));
    }

    #[test]
    fn chord_removes_interior_states() {
        // Chord {0,3} on path 0-1-2-3-4: vertices 1 and 2 are bypassed.
        assert_eq!(well_defined_by_articulation(4, &[(0, 3)]), lis(&[0, 3, 4]));
    }

    #[test]
    fn chord_to_endpoint_destroys_everything_interior() {
        assert_eq!(well_defined_by_articulation(4, &[(0, 4)]), lis(&[0, 4]));
    }

    #[test]
    fn overlapping_chords_union_their_spans() {
        // {0,2} kills 1; {1,4} kills 2, 3.
        assert_eq!(well_defined_by_articulation(5, &[(0, 2), (1, 4)]), lis(&[0, 4, 5]));
    }

    #[test]
    fn adjacent_chords_are_harmless() {
        assert_eq!(well_defined_by_articulation(3, &[(0, 1), (1, 2), (2, 3)]), lis(&[0, 1, 2, 3]));
    }
}
