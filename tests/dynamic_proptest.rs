//! Property-based tests for dynamic score maintenance (`DESIGN.md` §13):
//! on random Erdős–Rényi and Barabási–Albert graphs under random edge
//! insertion/deletion sequences,
//!
//! 1. chained offset upgrades of an **exact** score vector stay within the
//!    accumulated error claim of an exact recompute on the final graph;
//! 2. a session-level upgrade of a cached (approximate) vector agrees with
//!    a fresh query to within the claim plus both engine approximations
//!    (triangle bound).

use proptest::prelude::*;
use resacc::dynamic::upgrade_scores;
use resacc::exact::exact_rwr;
use resacc::{ForwardState, RwrSession};
use resacc_graph::{dynamic as gd, gen, CsrGraph, NodeId};

const ALPHA: f64 = 0.2;

/// Strategy: a random ER or BA graph (flat vs heavy-tailed out-degrees),
/// kept small because property 1 runs a dense exact solver per step.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (0usize..2, 4usize..40, 0usize..4, 0u64..1_000_000).prop_map(|(family, n, d, seed)| {
        match family {
            0 => gen::erdos_renyi(n, n * d, seed),
            _ => gen::barabasi_albert(n, d.max(1), seed),
        }
    })
}

/// Strategy: a graph plus a mutation sequence. Each step carries two raw
/// draws (reduced mod `n` at apply time) and an insert/delete flag (the
/// third draw, odd = delete).
fn arb_case() -> impl Strategy<Value = (CsrGraph, Vec<(u64, u64, u64)>)> {
    (
        arb_graph(),
        proptest::collection::vec((0u64..1_000_000, 0u64..1_000_000, 0u64..2), 1..6),
    )
}

/// Two deterministic edges derived from one step's raw draws.
fn step_edges(a: u64, b: u64, n: usize) -> [(NodeId, NodeId); 2] {
    let m = n as u64;
    [
        ((a % m) as NodeId, (b % m) as NodeId),
        (((a / 7) % m) as NodeId, ((b / 13) % m) as NodeId),
    ]
}

/// Pre-mutation adjacency rows of every edge source, as the delta log
/// records them.
fn capture_rows(g: &CsrGraph, edges: &[(NodeId, NodeId)]) -> Vec<(NodeId, Vec<NodeId>)> {
    let mut sources: Vec<NodeId> = edges.iter().map(|&(u, _)| u).collect();
    sources.sort_unstable();
    sources.dedup();
    sources
        .into_iter()
        .map(|u| (u, g.out_neighbors(u).to_vec()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chained upgrades of the exact vector stay within the accumulated
    /// claim of an exact recompute on the final graph, at every node.
    #[test]
    fn chained_upgrades_track_exact_scores(
        (g0, steps) in arb_case(),
        source_pick in 0u64..1_000_000,
    ) {
        let n = g0.num_nodes();
        let s = (source_pick % n as u64) as NodeId;
        let mut g = g0;
        let mut scores = exact_rwr(&g, s, ALPHA);
        let mut claim = 0.0f64;
        let mut ws = ForwardState::new(n);
        for &(a, b, flag) in &steps {
            let delete = flag == 1;
            let edges = step_edges(a, b, n);
            let rows = capture_rows(&g, &edges);
            let next = if delete {
                gd::delete_edges(&g, &edges)
            } else {
                gd::insert_edges(&g, &edges)
            };
            let up = upgrade_scores(&next, &scores, &rows, ALPHA, 1e-4, &mut ws);
            claim += up.err_bound;
            scores = up.scores;
            g = next;
        }
        let fresh = exact_rwr(&g, s, ALPHA);
        for (t, (a, b)) in scores.iter().zip(&fresh).enumerate() {
            let diff = (a - b).abs();
            prop_assert!(
                diff <= claim + 1e-9,
                "node {}: measured error {} exceeds accumulated claim {}",
                t, diff, claim
            );
        }
    }

    /// A session upgrade of a cached (approximate) vector agrees with a
    /// fresh query to within claim + both engine approximations.
    #[test]
    fn session_upgrade_agrees_with_fresh_query(
        (g, steps) in arb_case(),
        source_pick in 0u64..1_000_000,
        seed in 0u64..1_000_000,
    ) {
        let n = g.num_nodes();
        let s = (source_pick % n as u64) as NodeId;
        let session = RwrSession::new(g);
        let cached = session.query(s, seed).scores;
        let at = session.version();
        for &(a, b, flag) in &steps {
            let delete = flag == 1;
            let edges = step_edges(a, b, n);
            if delete {
                session.delete_edges(&edges);
            } else {
                session.insert_edges(&edges);
            }
        }
        let (up, v) = session
            .try_upgrade_scores(&cached, at, 1e-5)
            .expect("edge-level spans always upgrade");
        prop_assert_eq!(v, session.version());
        let fresh = session.query(s, seed).scores;
        let params = session.params();
        for (t, (a, b)) in up.scores.iter().zip(&fresh).enumerate() {
            let tol = up.err_bound + params.epsilon * (b + a) + 2.0 * params.delta;
            let diff = (a - b).abs();
            prop_assert!(diff <= tol, "node {}: {} > {}", t, diff, tol);
        }
    }
}
