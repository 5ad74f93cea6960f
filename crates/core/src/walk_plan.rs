//! The chunked-stream RNG contract for the random-walk phases.
//!
//! The remedy phase (and the `MC` baseline) compile their walk budgets
//! into a [`WalkPlan`] and execute it with [`run_plan`]:
//!
//! 1. Each node's walk budget is split into [`CHECK_INTERVAL`]-sized
//!    *chunks* ([`WalkChunk`]), in the deterministic order the residues are
//!    iterated (first-touch order of the push phase).
//! 2. Each chunk gets its **own** RNG stream, seeded by
//!    [`chunk_seed`]`(seed, node, chunk_idx)` — a splitmix64 mix of the
//!    query seed, the node id and the chunk's index *within that node*.
//!    No chunk ever reads another chunk's stream.
//! 3. Scores are credited **in fixed chunk order**, so the sequence of f64
//!    additions is a pure function of `(graph, residues, seed)`.
//!
//! Golden values were re-baselined once when this scheme replaced the
//! single sequential stream; see DESIGN.md §10.
//!
//! ## Cancellation
//!
//! [`run_plan`] counts walks on a [`crate::cancel::Ticker`] and checks the
//! query's [`Cancel`] token whenever the running count crosses a
//! [`CHECK_INTERVAL`] boundary. On `Err` the partially-accumulated scores
//! are the caller's to throw away, which `RwrSession` does by resetting the
//! pooled workspace.

use crate::cancel::{Cancel, QueryError, CHECK_INTERVAL};
use crate::walker::Walker;
use resacc_graph::{CsrGraph, NodeId};

/// One splitmix64 step — the standard 64-bit finalizer/mixer.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The RNG seed of chunk `chunk_idx` of node `node` under query seed
/// `seed`. Part of the determinism contract: every walk phase derives
/// chunk streams exactly this way.
pub fn chunk_seed(seed: u64, node: NodeId, chunk_idx: u32) -> u64 {
    splitmix64(seed ^ splitmix64(((node as u64) << 32) | chunk_idx as u64))
}

/// A unit of remedy work: up to [`CHECK_INTERVAL`] walks from one node,
/// crediting `credit` per walk, on a private RNG stream.
#[derive(Clone, Copy, Debug)]
pub struct WalkChunk {
    /// Walk start node.
    pub node: NodeId,
    /// Walks in this chunk (1 ..= `CHECK_INTERVAL`).
    pub walks: u32,
    /// Score credited to each walk's terminal node.
    pub credit: f64,
    /// The chunk's private RNG seed ([`chunk_seed`]).
    pub seed: u64,
}

/// A deterministic walk schedule: chunks in canonical (node, chunk) order.
#[derive(Clone, Debug, Default)]
pub struct WalkPlan {
    /// The chunks, in execution/reduction order.
    pub chunks: Vec<WalkChunk>,
    /// Total walks across all chunks.
    pub total_walks: u64,
}

impl WalkPlan {
    /// An empty plan.
    pub fn new() -> Self {
        WalkPlan::default()
    }

    /// Appends `walks` walks from `node` at `credit` each, split into
    /// `CHECK_INTERVAL`-sized chunks with per-chunk seeds derived from the
    /// query `seed`.
    pub fn push_node(&mut self, node: NodeId, walks: u64, credit: f64, seed: u64) {
        let mut remaining = walks;
        let mut chunk_idx = 0u32;
        while remaining > 0 {
            let w = remaining.min(CHECK_INTERVAL as u64) as u32;
            self.chunks.push(WalkChunk {
                node,
                walks: w,
                credit,
                seed: chunk_seed(seed, node, chunk_idx),
            });
            remaining -= w as u64;
            chunk_idx = chunk_idx.wrapping_add(1);
        }
        self.total_walks += walks;
    }
}

/// Executes `plan` against `scores`, crediting each chunk's walks in plan
/// order on the chunk's own RNG stream.
pub fn run_plan(
    graph: &CsrGraph,
    alpha: f64,
    plan: &WalkPlan,
    scores: &mut [f64],
    cancel: &Cancel,
) -> Result<(), QueryError> {
    debug_assert_eq!(scores.len(), graph.num_nodes());
    let mut ticker = cancel.ticker();
    for ch in &plan.chunks {
        ticker.tick_n(ch.walks as u64)?;
        let mut walker = Walker::new(graph, alpha, ch.seed);
        walker.walk_and_credit(ch.node, ch.walks as u64, ch.credit, scores);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use resacc_graph::gen;

    #[test]
    fn chunk_seeds_are_distinct_and_deterministic() {
        let a = chunk_seed(1, 2, 3);
        assert_eq!(a, chunk_seed(1, 2, 3));
        assert_ne!(a, chunk_seed(2, 2, 3), "seed must matter");
        assert_ne!(a, chunk_seed(1, 3, 3), "node must matter");
        assert_ne!(a, chunk_seed(1, 2, 4), "chunk index must matter");
    }

    #[test]
    fn plan_splits_budgets_into_interval_chunks() {
        let mut plan = WalkPlan::new();
        plan.push_node(5, 2 * CHECK_INTERVAL as u64 + 1, 0.25, 9);
        assert_eq!(plan.total_walks, 2 * CHECK_INTERVAL as u64 + 1);
        assert_eq!(plan.chunks.len(), 3);
        assert_eq!(plan.chunks[0].walks, CHECK_INTERVAL);
        assert_eq!(plan.chunks[1].walks, CHECK_INTERVAL);
        assert_eq!(plan.chunks[2].walks, 1);
        // Per-node chunk indices restart at 0, but seeds stay distinct.
        assert_ne!(plan.chunks[0].seed, plan.chunks[1].seed);
        assert_eq!(plan.chunks[0].seed, chunk_seed(9, 5, 0));
    }

    #[test]
    fn mass_is_exactly_credit_times_walks() {
        let g = gen::cycle(40);
        let mut plan = WalkPlan::new();
        plan.push_node(0, 5000, 1.0 / 5000.0, 3);
        let mut scores = vec![0.0f64; 40];
        run_plan(&g, 0.2, &plan, &mut scores, &Cancel::never()).unwrap();
        let sum: f64 = scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn expired_deadline_aborts_run() {
        let g = gen::barabasi_albert(300, 4, 1);
        let mut plan = WalkPlan::new();
        for node in 0..50u32 {
            plan.push_node(node, 4 * CHECK_INTERVAL as u64, 1e-6, 11);
        }
        let expired = Cancel::at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let mut scores = vec![0.0f64; 300];
        let err = run_plan(&g, 0.2, &plan, &mut scores, &expired).unwrap_err();
        assert_eq!(err, QueryError::DeadlineExceeded);
    }

    #[test]
    fn manual_cancel_aborts_serial_run() {
        let g = gen::cycle(10);
        let mut plan = WalkPlan::new();
        plan.push_node(0, 100 * CHECK_INTERVAL as u64, 1e-9, 1);
        let token = Cancel::manual();
        token.cancel();
        let mut scores = vec![0.0f64; 10];
        let err = run_plan(&g, 0.2, &plan, &mut scores, &token).unwrap_err();
        assert_eq!(err, QueryError::Cancelled);
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let g = gen::cycle(5);
        let mut scores = vec![0.0f64; 5];
        run_plan(&g, 0.2, &WalkPlan::new(), &mut scores, &Cancel::never()).unwrap();
        assert!(scores.iter().all(|&s| s == 0.0));
    }
}
