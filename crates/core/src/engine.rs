//! A uniform interface over every single-source algorithm in the crate.
//!
//! The evaluation harness, the MSRWR driver and downstream applications all
//! want to swap SSRWR kernels freely; [`SsrwrEngine`] is that seam. Each
//! index-free algorithm gets a small adapter struct carrying its
//! configuration; index-oriented methods implement the trait on their
//! built index (construction stays explicit because it is the expensive,
//! fallible step).

use crate::fora::{fora, ForaConfig};
use crate::params::RwrParams;
use crate::resacc::{ResAcc, ResAccConfig};
use crate::topk::top_k;
use resacc_graph::{CsrGraph, NodeId};

/// A single-source RWR query engine.
pub trait SsrwrEngine {
    /// Short display name (used by harness tables).
    fn name(&self) -> &'static str;

    /// Estimates `π(s,·)` for every node. `seed` drives any randomized
    /// phase; deterministic engines ignore it.
    fn ssrwr(&self, graph: &CsrGraph, source: NodeId, params: &RwrParams, seed: u64) -> Vec<f64>;

    /// Convenience: the `k` highest-scoring nodes, descending.
    fn ssrwr_top_k(
        &self,
        graph: &CsrGraph,
        source: NodeId,
        params: &RwrParams,
        k: usize,
        seed: u64,
    ) -> Vec<(NodeId, f64)> {
        top_k(&self.ssrwr(graph, source, params, seed), k)
    }
}

/// Power iteration engine (deterministic; additive error ≤ `tolerance`).
#[derive(Clone, Copy, Debug)]
pub struct PowerEngine {
    /// Residual-mass stopping tolerance.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for PowerEngine {
    fn default() -> Self {
        PowerEngine {
            tolerance: 1e-10,
            max_iterations: 1_000,
        }
    }
}

impl SsrwrEngine for PowerEngine {
    fn name(&self) -> &'static str {
        "Power"
    }
    fn ssrwr(&self, graph: &CsrGraph, source: NodeId, params: &RwrParams, _seed: u64) -> Vec<f64> {
        crate::power::power_iteration(
            graph,
            source,
            params.alpha,
            self.tolerance,
            self.max_iterations,
        )
        .scores
    }
}

/// Forward Search engine (deterministic; no output bound — the paper's
/// `FWD` baseline).
#[derive(Clone, Copy, Debug)]
pub struct ForwardSearchEngine {
    /// Push threshold `r_max^f`.
    pub r_max: f64,
}

impl SsrwrEngine for ForwardSearchEngine {
    fn name(&self) -> &'static str {
        "FWD"
    }
    fn ssrwr(&self, graph: &CsrGraph, source: NodeId, params: &RwrParams, _seed: u64) -> Vec<f64> {
        crate::forward_push::forward_search_scores(graph, source, params.alpha, self.r_max)
    }
}

/// Monte-Carlo sampling engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonteCarloEngine {
    /// Optional explicit walk budget (`None` = the guarantee's count).
    pub walks: Option<u64>,
}

impl SsrwrEngine for MonteCarloEngine {
    fn name(&self) -> &'static str {
        "MC"
    }
    fn ssrwr(&self, graph: &CsrGraph, source: NodeId, params: &RwrParams, seed: u64) -> Vec<f64> {
        let n_walks = self
            .walks
            .unwrap_or_else(|| params.walk_coefficient().ceil() as u64);
        crate::monte_carlo::monte_carlo_with_walks(graph, source, params.alpha, n_walks, seed)
            .scores
    }
}

/// FORA engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct ForaEngine {
    /// FORA configuration.
    pub config: ForaConfig,
}

impl SsrwrEngine for ForaEngine {
    fn name(&self) -> &'static str {
        "FORA"
    }
    fn ssrwr(&self, graph: &CsrGraph, source: NodeId, params: &RwrParams, seed: u64) -> Vec<f64> {
        fora(graph, source, params, &self.config, seed).scores
    }
}

impl SsrwrEngine for ResAcc {
    fn name(&self) -> &'static str {
        "ResAcc"
    }
    fn ssrwr(&self, graph: &CsrGraph, source: NodeId, params: &RwrParams, seed: u64) -> Vec<f64> {
        self.query(graph, source, params, seed).scores
    }
}

impl SsrwrEngine for crate::fora_plus::ForaPlusIndex {
    fn name(&self) -> &'static str {
        "FORA+"
    }
    fn ssrwr(&self, graph: &CsrGraph, source: NodeId, params: &RwrParams, _seed: u64) -> Vec<f64> {
        self.query(graph, source, params)
    }
}

impl SsrwrEngine for crate::tpa::TpaIndex {
    fn name(&self) -> &'static str {
        "TPA"
    }
    fn ssrwr(&self, graph: &CsrGraph, source: NodeId, _params: &RwrParams, _seed: u64) -> Vec<f64> {
        self.query(graph, source)
    }
}

impl SsrwrEngine for crate::bepi::BepiIndex {
    fn name(&self) -> &'static str {
        "BePI"
    }
    fn ssrwr(&self, graph: &CsrGraph, source: NodeId, _params: &RwrParams, _seed: u64) -> Vec<f64> {
        self.query(graph, source)
            .expect("BePI query on an index that built successfully")
    }
}

/// The standard index-free line-up the paper's Table III compares, as
/// boxed trait objects.
pub fn index_free_engines(graph: &CsrGraph) -> Vec<Box<dyn SsrwrEngine>> {
    let _ = graph;
    vec![
        Box::new(PowerEngine::default()),
        Box::new(ForwardSearchEngine { r_max: 1e-8 }),
        Box::new(MonteCarloEngine::default()),
        Box::new(ForaEngine::default()),
        Box::new(ResAcc::new(ResAccConfig::default())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use resacc_graph::gen;

    #[test]
    fn every_engine_estimates_the_same_distribution() {
        let g = gen::erdos_renyi(70, 420, 3);
        let params = RwrParams::new(0.2, 0.5, 1.0 / 70.0, 1.0 / 70.0);
        let exact = crate::exact::exact_rwr(&g, 0, 0.2);
        for engine in index_free_engines(&g) {
            let est = engine.ssrwr(&g, 0, &params, 17);
            for (v, (&e, &x)) in est.iter().zip(exact.iter()).enumerate() {
                if x > params.delta {
                    let rel = (e - x).abs() / x;
                    assert!(
                        rel <= params.epsilon,
                        "{}: node {v} rel {rel}",
                        engine.name()
                    );
                }
            }
        }
    }

    #[test]
    fn top_k_helper_consistent_with_scores() {
        let g = gen::barabasi_albert(120, 3, 8);
        let params = RwrParams::for_graph(120);
        let engine = ResAcc::new(ResAccConfig::default());
        let scores = engine.ssrwr(&g, 4, &params, 9);
        let top = engine.ssrwr_top_k(&g, 4, &params, 5, 9);
        assert_eq!(top, crate::topk::top_k(&scores, 5));
        assert_eq!(top[0].0, 4);
    }

    #[test]
    fn index_engines_implement_trait() {
        let g = gen::erdos_renyi(60, 300, 5);
        let params = RwrParams::for_graph(60);
        let exact = crate::exact::exact_rwr(&g, 2, 0.2);
        let engines: Vec<Box<dyn SsrwrEngine>> = vec![
            Box::new(
                crate::bepi::BepiIndex::build(&g, 0.2, &crate::bepi::BepiConfig::default())
                    .unwrap(),
            ),
            Box::new(
                crate::fora_plus::ForaPlusIndex::build(
                    &g,
                    &params,
                    &crate::fora_plus::ForaPlusConfig::default(),
                    1,
                )
                .unwrap(),
            ),
        ];
        for engine in engines {
            let est = engine.ssrwr(&g, 2, &params, 3);
            for v in g.nodes() {
                if exact[v as usize] > params.delta {
                    let rel = (est[v as usize] - exact[v as usize]).abs() / exact[v as usize];
                    assert!(rel <= params.epsilon, "{} node {v}", engine.name());
                }
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let g = gen::cycle(5);
        let names: Vec<_> = index_free_engines(&g).iter().map(|e| e.name()).collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
