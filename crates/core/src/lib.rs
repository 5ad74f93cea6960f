//! # resacc
//!
//! Approximate **single-source Random Walk with Restart** (SSRWR) queries
//! with theoretical guarantees, implementing the ICDE 2020 paper
//! *"Index-Free Approach with Theoretical Guarantee for Efficient Random
//! Walk with Restart Query"* (Lin, Wong, Xie, Wei) — plus every baseline the
//! paper evaluates against, implemented from scratch on the same substrate
//! so they are directly comparable.
//!
//! ## The query
//!
//! Given a directed graph `G`, source `s`, restart probability `α`,
//! threshold `δ`, relative error `ε` and failure probability `p_f`, return
//! `π̂(s,t)` such that for every `t` with `π(s,t) > δ`,
//! `|π̂(s,t) − π(s,t)| ≤ ε·π(s,t)` with probability at least `1 − p_f`
//! (paper Definition 1).
//!
//! ## Algorithms
//!
//! | Module | Algorithm | Index | Guarantee |
//! |--------|-----------|-------|-----------|
//! | [`resacc`] | **ResAcc** (h-HopFWD + OMFWD + remedy) — the paper's contribution | free | relative |
//! | [`power`] | Power iteration (ground truth) | free | additive (to tolerance) |
//! | [`exact`] | Dense linear solve ("Inverse") | free | exact (small graphs) |
//! | [`forward_push`] | Forward Search (Andersen et al.) | free | none |
//! | [`backward_push`] | Backward Search | free | additive per target |
//! | [`monte_carlo`] | Random-walk sampling | free | relative |
//! | [`fora`] | FORA (push + walks) | free | relative |
//! | [`fora_plus`] | FORA+ (pre-generated walk index) | index | relative |
//! | [`topppr`] | TopPPR-style top-K query | free | additive/top-K |
//! | [`tpa`] | TPA (PageRank far-field index) | index | additive (heuristic) |
//! | [`bepi`] | BePI-like block-elimination index | index | solver tolerance |
//! | [`particle_filter`] | Particle Filtering | free | none |
//! | [`msrwr`] | Multi-source driver over any of the above | — | inherited |
//!
//! ## Quickstart
//!
//! ```
//! use resacc_graph::gen;
//! use resacc::{RwrParams, resacc::{ResAcc, ResAccConfig}};
//!
//! let graph = gen::barabasi_albert(1_000, 4, 42);
//! let params = RwrParams::for_graph(graph.num_nodes());
//! let engine = ResAcc::new(ResAccConfig::default());
//! let result = engine.query(&graph, 0, &params, 7 /* rng seed */);
//! let top = resacc::topk::top_k(&result.scores, 5);
//! assert_eq!(top[0].0, 0); // the source itself has the largest RWR value
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod backoff;
pub mod backward_push;
pub mod bepi;
pub mod bippr;
pub mod cancel;
pub mod durability;
pub mod dynamic;
pub mod engine;
pub mod exact;
pub mod fora;
pub mod fora_plus;
pub mod forward_push;
pub mod hubppr;
pub mod monte_carlo;
pub mod msrwr;
pub mod params;
pub mod particle_filter;
pub mod power;
pub mod ppr;
pub mod replication;
pub mod resacc;
pub mod session;
pub mod state;
pub mod topk;
pub mod topppr;
pub mod tpa;
pub mod walk_plan;
pub mod walker;

pub use cancel::{Cancel, QueryError};
pub use engine::SsrwrEngine;
pub use params::RwrParams;
pub use session::RwrSession;
pub use state::ForwardState;

/// Errors surfaced by indexing algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum RwrError {
    /// An index-oriented method exceeded its configured memory budget —
    /// the analogue of the paper's "o.o.m" table entries.
    OutOfBudget {
        /// Bytes the method needed.
        needed: u64,
        /// Bytes the budget allowed.
        budget: u64,
    },
    /// An iterative solver failed to converge within its iteration cap.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Residual norm when giving up.
        residual: f64,
    },
}

impl std::fmt::Display for RwrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RwrError::OutOfBudget { needed, budget } => {
                write!(
                    f,
                    "out of memory budget: needed {needed} B, budget {budget} B"
                )
            }
            RwrError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "solver failed to converge after {iterations} iterations (residual {residual:.3e})"
            ),
        }
    }
}

impl std::error::Error for RwrError {}
