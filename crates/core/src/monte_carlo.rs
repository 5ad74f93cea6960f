//! Random-walk sampling — the paper's `MC` baseline \[9\] — and the shared
//! *remedy phase* used by FORA and ResAcc.
//!
//! ## MC
//!
//! Simulates `n_r = ⌈c⌉` walks from the source (where
//! `c = (2ε/3+2)·ln(2/p_f)/(ε²·δ)` is [`crate::RwrParams::walk_coefficient`])
//! and estimates `π̂(s,t)` as the fraction of walks terminating at `t`.
//! This is the `r_sum = 1` special case of the remedy phase below.
//!
//! ## Remedy (paper Algorithm 2, lines 5–17)
//!
//! Given a reserve/residue state left by any push phase, simulates
//! `n_r(v) = ⌈r^f(s,v)·c⌉` walks from each node `v` with non-zero residue
//! and credits each terminal node `t` with `r^f(s,v)/n_r(v)`.
//! (The paper writes the credit as `a(v)·r_sum/n_r` with
//! `a(v) = r^f(s,v)/r_sum · n_r/n_r(v)` and `n_r = r_sum·c`; the two forms
//! are identical.) Theorem 1 shows the estimate is unbiased; Theorem 3 shows
//! this walk count meets the `(ε, δ, p_f)` guarantee.
//!
//! ## Execution model
//!
//! Both MC and remedy compile their walk budgets into a [`WalkPlan`]
//! (per-node budgets split into `CHECK_INTERVAL`-sized chunks, each chunk
//! on a private RNG stream — see [`crate::walk_plan`]) and execute it with
//! [`run_plan`]. The plan is the RNG contract: a seeded run is a pure
//! function of `(graph, residues, seed)`.

use crate::cancel::{Cancel, QueryError};
use crate::params::RwrParams;
use crate::state::ForwardState;
use crate::walk_plan::{run_plan, WalkPlan};
use resacc_graph::{CsrGraph, NodeId};

/// Result of a Monte-Carlo or remedy run.
#[derive(Clone, Debug)]
pub struct McResult {
    /// Estimated scores.
    pub scores: Vec<f64>,
    /// Walks simulated.
    pub walks: u64,
}

/// Pure random-walk sampling from `source` with the walk count required by
/// the `(ε, δ, p_f)` guarantee.
pub fn monte_carlo(graph: &CsrGraph, source: NodeId, params: &RwrParams, seed: u64) -> McResult {
    let n_r = params.walk_coefficient().ceil() as u64;
    monte_carlo_with_walks(graph, source, params.alpha, n_r, seed)
}

/// Random-walk sampling with an explicit walk budget (used by the
/// equal-time fairness experiments and by Particle Filtering's baseline).
pub fn monte_carlo_with_walks(
    graph: &CsrGraph,
    source: NodeId,
    alpha: f64,
    n_walks: u64,
    seed: u64,
) -> McResult {
    monte_carlo_with_walks_guarded(graph, source, alpha, n_walks, seed, &Cancel::never())
        .expect("never-cancel token cannot abort")
}

/// [`monte_carlo_with_walks`] with a cancel token.
pub fn monte_carlo_with_walks_guarded(
    graph: &CsrGraph,
    source: NodeId,
    alpha: f64,
    n_walks: u64,
    seed: u64,
    cancel: &Cancel,
) -> Result<McResult, QueryError> {
    let mut scores = vec![0.0f64; graph.num_nodes()];
    let mut plan = WalkPlan::new();
    if n_walks > 0 {
        plan.push_node(source, n_walks, 1.0 / n_walks as f64, seed);
    }
    run_plan(graph, alpha, &plan, &mut scores, cancel)?;
    Ok(McResult {
        scores,
        walks: plan.total_walks,
    })
}

/// The remedy phase: adds `Σ_v r^f(s,v)·π̂(v,t)` into `scores` by sampling,
/// consuming the residues recorded in `state`.
///
/// `walk_scale` multiplies the per-node walk count (`1.0` = the guarantee's
/// count; the paper's Appendix F "fair comparison" experiment sweeps
/// `n_scale ∈ {0, 0.2, …, 1.0}`). Returns the number of walks simulated.
pub fn remedy(
    graph: &CsrGraph,
    state: &ForwardState,
    params: &RwrParams,
    walk_scale: f64,
    seed: u64,
    scores: &mut [f64],
) -> u64 {
    remedy_cancellable(
        graph,
        state,
        params,
        walk_scale,
        seed,
        scores,
        &Cancel::never(),
    )
    .expect("never-cancel token cannot abort")
}

/// [`remedy`] with cooperative cancellation.
///
/// Compiles the per-node budgets `⌈r·c⌉` into a [`WalkPlan`] (residues in
/// first-touch order, budgets split into `CHECK_INTERVAL`-sized chunks on
/// private RNG streams) and executes it with [`run_plan`]: a run that
/// *completes* under a cancel token is bit-identical to an uncancelled run.
pub fn remedy_cancellable(
    graph: &CsrGraph,
    state: &ForwardState,
    params: &RwrParams,
    walk_scale: f64,
    seed: u64,
    scores: &mut [f64],
    cancel: &Cancel,
) -> Result<u64, QueryError> {
    debug_assert_eq!(scores.len(), graph.num_nodes());
    let c = params.walk_coefficient() * walk_scale;
    if c <= 0.0 {
        return Ok(0);
    }
    let mut plan = WalkPlan::new();
    for (v, r) in state.nonzero_residues() {
        let walks = (r * c).ceil() as u64;
        if walks == 0 {
            continue;
        }
        plan.push_node(v, walks, r / walks as f64, seed);
    }
    run_plan(graph, params.alpha, &plan, scores, cancel)?;
    Ok(plan.total_walks)
}

/// [`remedy_cancellable`] behind the former thread-budget signature, for
/// callers built against it. Only `threads <= 1` is accepted.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn remedy_parallel(
    graph: &CsrGraph,
    state: &ForwardState,
    params: &RwrParams,
    walk_scale: f64,
    seed: u64,
    threads: usize,
    scores: &mut [f64],
    cancel: &Cancel,
) -> Result<u64, QueryError> {
    assert!(threads <= 1, "the remedy phase runs serially");
    remedy_cancellable(graph, state, params, walk_scale, seed, scores, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resacc_graph::gen;

    #[test]
    fn mc_scores_sum_to_one() {
        let g = gen::barabasi_albert(100, 3, 1);
        let params = RwrParams::new(0.2, 0.5, 0.01, 0.01);
        let r = monte_carlo(&g, 0, &params, 42);
        let sum: f64 = r.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(r.walks >= params.walk_coefficient() as u64);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn mc_concentrates_near_truth() {
        // Failure budget: with (ε=0.3, δ=0.05, p_f=0.01) the guarantee
        // bounds the per-node failure probability by p_f = 1%; a union
        // bound over the 6 nodes gives ≤ 6% for the whole assertion. The
        // seed is fixed, so the test is deterministic — seed 7 was verified
        // to pass under the chunked-stream RNG contract.
        let g = gen::cycle(6);
        let params = RwrParams::new(0.2, 0.3, 0.05, 0.01);
        let r = monte_carlo(&g, 0, &params, 7);
        let exact = crate::exact::exact_rwr(&g, 0, 0.2);
        for v in 0..6 {
            if exact[v] > params.delta {
                let rel = (r.scores[v] - exact[v]).abs() / exact[v];
                assert!(rel <= params.epsilon, "node {v} rel err {rel}");
            }
        }
    }

    #[test]
    fn remedy_preserves_total_mass() {
        let g = gen::erdos_renyi(150, 900, 3);
        let params = RwrParams::for_graph(150);
        let mut st = ForwardState::new(150);
        crate::forward_push::forward_search(&g, 0, params.alpha, 1e-3, &mut st);
        let mut scores = st.scores();
        remedy(&g, &st, &params, 1.0, 9, &mut scores);
        let sum: f64 = scores.iter().sum();
        // Reserve + walk credits = reserve + residue = 1 exactly (each
        // remedy walk credits exactly r/walks and does so `walks` times).
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn remedy_walk_scale_zero_is_noop() {
        let g = gen::cycle(10);
        let params = RwrParams::for_graph(10);
        let mut st = ForwardState::new(10);
        crate::forward_push::forward_search(&g, 0, params.alpha, 0.5, &mut st);
        let mut scores = st.scores();
        let before = scores.clone();
        let walks = remedy(&g, &st, &params, 0.0, 1, &mut scores);
        assert_eq!(walks, 0);
        assert_eq!(scores, before);
    }

    #[test]
    fn remedy_walk_count_proportional_to_residue() {
        let g = gen::star(50);
        let params = RwrParams::new(0.2, 0.5, 0.02, 0.02);
        let mut st = ForwardState::new(50);
        st.init_source(0);
        // Leave residues only (no pushes): all residue at source.
        let mut scores = vec![0.0; 50];
        let walks_full = remedy(&g, &st, &params, 1.0, 3, &mut scores);
        let c = params.walk_coefficient();
        assert_eq!(walks_full, c.ceil() as u64);
        // Halving the residue halves the walks (up to ceil).
        st.init_source(0);
        st.set_residue(0, 0.5);
        let walks_half = remedy(&g, &st, &params, 1.0, 3, &mut scores);
        assert_eq!(walks_half, (0.5 * c).ceil() as u64);
    }

    #[test]
    fn mc_deterministic_per_seed() {
        let g = gen::complete(8);
        let params = RwrParams::new(0.2, 0.5, 0.05, 0.05);
        let a = monte_carlo(&g, 0, &params, 5);
        let b = monte_carlo(&g, 0, &params, 5);
        assert_eq!(a.scores, b.scores);
        let c = monte_carlo(&g, 0, &params, 6);
        assert_ne!(a.scores, c.scores);
    }

    #[test]
    fn cancelled_mc_reports_typed_error() {
        let g = gen::barabasi_albert(500, 4, 3);
        let params = RwrParams::new(0.2, 0.5, 1.0 / 500.0, 1.0 / 500.0);
        let n_r = params.walk_coefficient().ceil() as u64;
        let token = Cancel::manual();
        token.cancel();
        let err = monte_carlo_with_walks_guarded(&g, 0, params.alpha, n_r, 1, &token).unwrap_err();
        assert_eq!(err, QueryError::Cancelled);
    }
}
