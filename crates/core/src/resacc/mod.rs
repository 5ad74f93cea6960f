//! **ResAcc** — the Residue-Accumulated approach (the paper's contribution,
//! Algorithm 2).
//!
//! A query runs three phases:
//!
//! 1. [`hhop`] — h-HopFWD: hop-limited forward push with source-residue
//!    accumulation and a closed-form updating phase (Section IV).
//! 2. [`mod@omfwd`] — OMFWD: queue-driven forward push seeded by the boundary
//!    layer's accumulated residues (Section V).
//! 3. *Remedy* — `⌈r^f(s,v)·c⌉` random walks per remaining residue node
//!    (shared with FORA, see [`crate::monte_carlo::remedy`]).
//!
//! The result is unbiased (Theorem 1) and meets the `(ε, δ, p_f)` relative-
//! error guarantee of Definition 1 (Theorem 3).
//!
//! Ablation switches in [`ResAccConfig`] reproduce the paper's Appendix K
//! variants: `No-Loop-ResAcc`, `No-SG-ResAcc` and `No-OFD-ResAcc`.

pub mod hhop;
pub mod omfwd;

pub use hhop::{h_hop_fwd, h_hop_fwd_cancellable, HhopOutcome, Scope};
pub use omfwd::{omfwd, omfwd_cancellable};

use crate::cancel::{Cancel, QueryError};
use crate::monte_carlo::remedy_cancellable;
use crate::params::RwrParams;
use crate::state::ForwardState;
use resacc_graph::{CsrGraph, NodeId};
use std::time::{Duration, Instant};

/// Configuration of the ResAcc engine.
///
/// Defaults mirror the paper's experimental setup (Section VII-A and
/// Appendices G–H): `h = 2`, `r_max_hop = 10⁻¹¹` (the best point of the
/// Appendix H sweep), `r_max^f = 1/(10·m)`.
#[derive(Clone, Copy, Debug)]
pub struct ResAccConfig {
    /// Number of hops `h` of the induced subgraph.
    pub h: usize,
    /// Residue threshold for the h-HopFWD phase (`r_max^hop`).
    pub r_max_hop: f64,
    /// Residue threshold for the OMFWD phase (`r_max^f`); `None` = the
    /// paper's `1/(10·m)`.
    pub r_max_f: Option<f64>,
    /// `false` = the `No-Loop-ResAcc` ablation: plain forward search inside
    /// the subgraph, no accumulating/updating trick.
    pub use_loop_accumulation: bool,
    /// `false` = the `No-SG-ResAcc` ablation: accumulate over the whole
    /// graph instead of the h-hop induced subgraph.
    pub use_subgraph: bool,
    /// `false` = the `No-OFD-ResAcc` ablation: skip OMFWD and remedy
    /// directly from the h-HopFWD residues.
    pub use_omfwd: bool,
    /// Scales the remedy walk count (`n_scale` in the paper's Appendix F).
    pub walk_scale: f64,
}

impl Default for ResAccConfig {
    fn default() -> Self {
        ResAccConfig {
            h: 2,
            r_max_hop: 1e-11,
            r_max_f: None,
            use_loop_accumulation: true,
            use_subgraph: true,
            use_omfwd: true,
            walk_scale: 1.0,
        }
    }
}

impl ResAccConfig {
    /// Returns a copy with a different hop count.
    pub fn with_h(mut self, h: usize) -> Self {
        self.h = h;
        self
    }

    /// Returns a copy with a different h-HopFWD threshold.
    pub fn with_r_max_hop(mut self, r: f64) -> Self {
        assert!(r > 0.0);
        self.r_max_hop = r;
        self
    }

    /// Returns a copy with an explicit OMFWD threshold.
    pub fn with_r_max_f(mut self, r: f64) -> Self {
        assert!(r > 0.0);
        self.r_max_f = Some(r);
        self
    }

    /// The `No-Loop-ResAcc` ablation (paper Appendix K).
    pub fn no_loop() -> Self {
        ResAccConfig {
            use_loop_accumulation: false,
            ..Default::default()
        }
    }

    /// The `No-SG-ResAcc` ablation (paper Appendix K).
    pub fn no_subgraph() -> Self {
        ResAccConfig {
            use_subgraph: false,
            ..Default::default()
        }
    }

    /// The `No-OFD-ResAcc` ablation (paper Appendix K).
    pub fn no_omfwd() -> Self {
        ResAccConfig {
            use_omfwd: false,
            ..Default::default()
        }
    }
}

/// Wall-clock time of each ResAcc phase (paper Table VII's breakdown).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// h-HopFWD phase (includes the hop-layer BFS).
    pub hhop: Duration,
    /// OMFWD phase.
    pub omfwd: Duration,
    /// Remedy (random-walk) phase.
    pub remedy: Duration,
}

impl PhaseTimings {
    /// Total query time.
    pub fn total(&self) -> Duration {
        self.hhop + self.omfwd + self.remedy
    }
}

/// Result of a ResAcc SSRWR query.
#[derive(Clone, Debug)]
pub struct ResAccResult {
    /// Estimated RWR scores, `scores[t] = π̂(s,t)`.
    pub scores: Vec<f64>,
    /// Per-phase wall-clock times.
    pub timings: PhaseTimings,
    /// Push operations in the h-HopFWD phase.
    pub hhop_pushes: u64,
    /// Push operations in the OMFWD phase.
    pub omfwd_pushes: u64,
    /// Remedy walks simulated.
    pub walks: u64,
    /// Residue mass after h-HopFWD (`r_sum^hop`; Lemma 4 bounds it by
    /// `(1−α)^h` when every hop-set node pushed at least once).
    pub residue_sum_after_hhop: f64,
    /// Residue mass entering the remedy phase (`r_sum`).
    pub residue_sum_final: f64,
    /// Accumulating loops `T` applied by the updating phase.
    pub loops: u32,
    /// Geometric scaler `S` applied by the updating phase.
    pub scaler: f64,
    /// `|V_{h-hop}(s)|`.
    pub hop_set_size: usize,
}

/// The ResAcc query engine.
///
/// Construct once and reuse: [`ResAcc::query`] allocates per call, while
/// [`ResAcc::query_with_state`] reuses a caller-provided workspace — the
/// mode the MSRWR driver and the benchmark harness use.
#[derive(Clone, Debug, Default)]
pub struct ResAcc {
    config: ResAccConfig,
}

impl ResAcc {
    /// Creates an engine with the given configuration.
    pub fn new(config: ResAccConfig) -> Self {
        ResAcc { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ResAccConfig {
        &self.config
    }

    /// Answers an SSRWR query (paper Algorithm 2).
    pub fn query(
        &self,
        graph: &CsrGraph,
        source: NodeId,
        params: &RwrParams,
        seed: u64,
    ) -> ResAccResult {
        let mut state = ForwardState::new(graph.num_nodes());
        self.query_with_state(graph, source, params, seed, &mut state)
    }

    /// Answers an SSRWR query reusing `state` as workspace.
    pub fn query_with_state(
        &self,
        graph: &CsrGraph,
        source: NodeId,
        params: &RwrParams,
        seed: u64,
        state: &mut ForwardState,
    ) -> ResAccResult {
        self.query_guarded(graph, source, params, seed, state, &Cancel::never())
            .expect("never-cancel token cannot abort")
    }

    /// [`ResAcc::query_with_state`] with source validation and cooperative
    /// cancellation. Returns [`QueryError::SourceOutOfRange`] without
    /// touching `state` when `source` does not exist; aborts mid-phase with
    /// [`QueryError::DeadlineExceeded`] / [`QueryError::Cancelled`] when
    /// `cancel` fires. A query that *completes* under a cancel token is
    /// bit-identical to an uncancelled run.
    pub fn query_guarded(
        &self,
        graph: &CsrGraph,
        source: NodeId,
        params: &RwrParams,
        seed: u64,
        state: &mut ForwardState,
        cancel: &Cancel,
    ) -> Result<ResAccResult, QueryError> {
        if (source as usize) >= graph.num_nodes() {
            return Err(QueryError::SourceOutOfRange {
                source,
                nodes: graph.num_nodes(),
            });
        }
        let cfg = &self.config;
        let r_max_f = cfg
            .r_max_f
            .unwrap_or_else(|| 1.0 / (10.0 * graph.num_edges().max(1) as f64));

        // Phase 1: h-HopFWD (Algorithm 2 line 3).
        let t0 = Instant::now();
        let scope = if cfg.use_subgraph {
            Scope::HopLimited(cfg.h)
        } else {
            Scope::WholeGraph
        };
        let hhop_out = h_hop_fwd_cancellable(
            graph,
            source,
            params.alpha,
            cfg.r_max_hop,
            scope,
            cfg.use_loop_accumulation,
            state,
            cancel,
        )?;
        let residue_sum_after_hhop = state.residue_sum();
        let t_hhop = t0.elapsed();

        // Phase 2: OMFWD (Algorithm 2 line 4).
        let t1 = Instant::now();
        let omfwd_stats = if cfg.use_omfwd {
            omfwd_cancellable(
                graph,
                params.alpha,
                r_max_f,
                &hhop_out.boundary,
                state,
                cancel,
            )?
        } else {
            crate::forward_push::PushStats::default()
        };
        let residue_sum_final = state.residue_sum();
        let t_omfwd = t1.elapsed();

        // Phase 3: remedy (Algorithm 2 lines 5–17).
        let t2 = Instant::now();
        let mut scores = state.scores();
        let walks = remedy_cancellable(
            graph,
            state,
            params,
            cfg.walk_scale,
            seed,
            &mut scores,
            cancel,
        )?;
        let t_remedy = t2.elapsed();

        Ok(ResAccResult {
            scores,
            timings: PhaseTimings {
                hhop: t_hhop,
                omfwd: t_omfwd,
                remedy: t_remedy,
            },
            hhop_pushes: hhop_out.pushes,
            omfwd_pushes: omfwd_stats.pushes,
            walks,
            residue_sum_after_hhop,
            residue_sum_final,
            loops: hhop_out.loops,
            scaler: hhop_out.scaler,
            hop_set_size: hhop_out.hop_set_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resacc_graph::gen;

    fn default_query(graph: &CsrGraph, source: NodeId, seed: u64) -> ResAccResult {
        let params = RwrParams::for_graph(graph.num_nodes());
        ResAcc::new(ResAccConfig::default()).query(graph, source, &params, seed)
    }

    #[test]
    fn scores_sum_to_one() {
        for g in [
            gen::barabasi_albert(400, 3, 1),
            gen::erdos_renyi(300, 2400, 2),
            gen::cycle(50),
        ] {
            let r = default_query(&g, 0, 7);
            let sum: f64 = r.scores.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn meets_relative_error_guarantee_vs_exact() {
        let g = gen::erdos_renyi(80, 500, 4);
        let params = RwrParams::new(0.2, 0.5, 1.0 / 80.0, 1.0 / 80.0);
        let exact = crate::exact::exact_rwr(&g, 0, 0.2);
        let r = ResAcc::new(ResAccConfig::default()).query(&g, 0, &params, 5);
        for v in 0..80usize {
            if exact[v] > params.delta {
                let rel = (r.scores[v] - exact[v]).abs() / exact[v];
                assert!(rel <= params.epsilon, "node {v}: rel err {rel}");
            }
        }
    }

    #[test]
    fn omfwd_shrinks_residue() {
        let g = gen::barabasi_albert(1000, 4, 3);
        let r = default_query(&g, 0, 9);
        assert!(
            r.residue_sum_final < r.residue_sum_after_hhop,
            "{} -> {}",
            r.residue_sum_after_hhop,
            r.residue_sum_final
        );
    }

    #[test]
    fn lemma4_residue_bound() {
        // With r_max_hop small enough that every hop-set node pushes at
        // least once, r_sum^hop ≤ (1−α)^h.
        let g = gen::barabasi_albert(500, 3, 11);
        let params = RwrParams::for_graph(500);
        for h in [1usize, 2, 3] {
            let cfg = ResAccConfig::default().with_h(h).with_r_max_hop(1e-13);
            let r = ResAcc::new(cfg).query(&g, 0, &params, 1);
            let bound = (1.0 - params.alpha).powi(h as i32);
            assert!(
                r.residue_sum_after_hhop <= bound + 1e-9,
                "h={h}: r_sum {} > bound {bound}",
                r.residue_sum_after_hhop
            );
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn ablations_still_correct() {
        let g = gen::erdos_renyi(60, 360, 8);
        let params = RwrParams::new(0.2, 0.5, 1.0 / 60.0, 1.0 / 60.0);
        let exact = crate::exact::exact_rwr(&g, 0, 0.2);
        for cfg in [
            ResAccConfig::no_loop(),
            ResAccConfig::no_subgraph(),
            ResAccConfig::no_omfwd(),
        ] {
            let r = ResAcc::new(cfg).query(&g, 0, &params, 3);
            let sum: f64 = r.scores.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{cfg:?}: sum {sum}");
            for v in 0..60usize {
                if exact[v] > params.delta {
                    let rel = (r.scores[v] - exact[v]).abs() / exact[v];
                    assert!(rel <= params.epsilon, "{cfg:?} node {v}: rel {rel}");
                }
            }
        }
    }

    #[test]
    fn no_omfwd_leaves_more_residue_for_remedy() {
        let g = gen::barabasi_albert(800, 4, 2);
        let params = RwrParams::for_graph(800);
        let full = ResAcc::new(ResAccConfig::default()).query(&g, 0, &params, 1);
        let no_ofd = ResAcc::new(ResAccConfig::no_omfwd()).query(&g, 0, &params, 1);
        assert_eq!(no_ofd.omfwd_pushes, 0);
        assert!(no_ofd.walks > full.walks);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gen::barabasi_albert(300, 3, 6);
        let a = default_query(&g, 5, 42);
        let b = default_query(&g, 5, 42);
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn source_is_top_node() {
        let g = gen::barabasi_albert(500, 4, 4);
        let r = default_query(&g, 17, 2);
        let best = r
            .scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 17, "source must hold ≥ α of the mass");
    }

    #[test]
    fn phase_timings_recorded() {
        let g = gen::barabasi_albert(500, 3, 8);
        let r = default_query(&g, 0, 1);
        assert!(r.timings.total() > Duration::ZERO);
    }

    #[test]
    fn workspace_reuse_matches_fresh_state() {
        let g = gen::erdos_renyi(150, 900, 5);
        let params = RwrParams::for_graph(150);
        let engine = ResAcc::new(ResAccConfig::default());
        let mut ws = ForwardState::new(150);
        let a = engine.query_with_state(&g, 0, &params, 9, &mut ws);
        let b = engine.query_with_state(&g, 1, &params, 9, &mut ws);
        let fresh_b = engine.query(&g, 1, &params, 9);
        assert_eq!(b.scores, fresh_b.scores);
        assert_ne!(a.scores, b.scores);
    }

    #[test]
    fn isolated_source() {
        let g = resacc_graph::GraphBuilder::new(4).edge(1, 2).build();
        let r = default_query(&g, 0, 3);
        assert_eq!(r.scores[0], 1.0);
        assert_eq!(r.walks, 0);
    }
}
