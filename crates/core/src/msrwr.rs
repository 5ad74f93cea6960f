//! Multiple-Sources RWR (MSRWR) driver — paper Section VI-A "Extension to
//! MSRWR query" and Appendix D.
//!
//! The paper extends every SSRWR method to MSRWR by running it once per
//! source; this module provides that driver generically, with optional
//! thread-parallel execution (crossbeam scoped threads, one workspace per
//! thread) — the natural engineering upgrade for an embarrassingly parallel
//! workload. Sequential and parallel execution produce identical results
//! because each source derives its own RNG seed from the query seed.

use crate::params::RwrParams;
use crate::resacc::{ResAcc, ResAccConfig};
use resacc_graph::{CsrGraph, NodeId};

/// Answers an MSRWR query: one score vector per source, in input order.
///
/// `f` is any SSRWR kernel `(source, per_source_seed) → scores`; the seed
/// passed to it is derived deterministically from `seed` and the source's
/// position.
pub fn msrwr_with<F>(sources: &[NodeId], seed: u64, mut f: F) -> Vec<Vec<f64>>
where
    F: FnMut(NodeId, u64) -> Vec<f64>,
{
    sources
        .iter()
        .enumerate()
        .map(|(i, &s)| f(s, derive_seed(seed, i)))
        .collect()
}

/// MSRWR via ResAcc, sequential.
pub fn msrwr_resacc(
    graph: &CsrGraph,
    sources: &[NodeId],
    params: &RwrParams,
    config: &ResAccConfig,
    seed: u64,
) -> Vec<Vec<f64>> {
    let engine = ResAcc::new(*config);
    let mut state = crate::state::ForwardState::new(graph.num_nodes());
    sources
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            engine
                .query_with_state(graph, s, params, derive_seed(seed, i), &mut state)
                .scores
        })
        .collect()
}

/// MSRWR via ResAcc across `threads` worker threads. Deterministic: results
/// match [`msrwr_resacc`] for the same seed regardless of thread count.
pub fn msrwr_resacc_parallel(
    graph: &CsrGraph,
    sources: &[NodeId],
    params: &RwrParams,
    config: &ResAccConfig,
    seed: u64,
    threads: usize,
) -> Vec<Vec<f64>> {
    let threads = threads.max(1).min(sources.len().max(1));
    if threads <= 1 {
        return msrwr_resacc(graph, sources, params, config, seed);
    }
    // Pre-split the output into disjoint contiguous chunks, one per worker:
    // each thread owns its slice outright, so no lock sits on the write path
    // and the borrow checker proves the writes cannot alias. Seeds are
    // derived from each source's *global* index, so the partition (and hence
    // the thread count) cannot influence any result.
    let mut results: Vec<Vec<f64>> = vec![Vec::new(); sources.len()];
    let chunk = sources.len().div_ceil(threads);

    crossbeam::scope(|scope| {
        for (c, out) in results.chunks_mut(chunk).enumerate() {
            let base = c * chunk;
            scope.spawn(move |_| {
                let engine = ResAcc::new(*config);
                let mut state = crate::state::ForwardState::new(graph.num_nodes());
                for (j, slot) in out.iter_mut().enumerate() {
                    let i = base + j;
                    *slot = engine
                        .query_with_state(graph, sources[i], params, derive_seed(seed, i), &mut state)
                        .scores;
                }
            });
        }
    })
    .expect("msrwr worker panicked");

    results
}

/// Derives the per-source RNG seed (a [`crate::walk_plan::splitmix64`] mix of the
/// query seed and the source's position — the same mixer the chunked walk
/// streams use).
fn derive_seed(seed: u64, index: usize) -> u64 {
    crate::walk_plan::splitmix64(seed ^ (index as u64).wrapping_mul(0x9e3779b97f4a7c15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use resacc_graph::gen;

    #[test]
    fn one_vector_per_source() {
        let g = gen::barabasi_albert(200, 3, 1);
        let params = RwrParams::for_graph(200);
        let sources = [0u32, 5, 9];
        let res = msrwr_resacc(&g, &sources, &params, &ResAccConfig::default(), 7);
        assert_eq!(res.len(), 3);
        for (i, scores) in res.iter().enumerate() {
            let sum: f64 = scores.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "source {i}");
            // Each source dominates its own vector.
            let best = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(best as u32, sources[i]);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = gen::erdos_renyi(150, 900, 2);
        let params = RwrParams::for_graph(150);
        let sources: Vec<u32> = (0..12).collect();
        let cfg = ResAccConfig::default();
        let seq = msrwr_resacc(&g, &sources, &params, &cfg, 42);
        for threads in [2usize, 4] {
            let par = msrwr_resacc_parallel(&g, &sources, &params, &cfg, 42, threads);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn one_thread_matches_four_threads_bitwise() {
        let g = gen::barabasi_albert(250, 3, 5);
        let params = RwrParams::for_graph(250);
        let cfg = ResAccConfig::default();
        // 13 sources across 4 threads: uneven chunks (4+4+4+1), so the test
        // also covers the partition-boundary arithmetic.
        let sources: Vec<u32> = (0..13).map(|i| i * 7 % 250).collect();
        let one = msrwr_resacc_parallel(&g, &sources, &params, &cfg, 0xFEED, 1);
        let four = msrwr_resacc_parallel(&g, &sources, &params, &cfg, 0xFEED, 4);
        assert_eq!(one, four, "thread count must not affect results");
        // Bitwise, not approximately: compare raw f64 bits.
        for (a, b) in one.iter().zip(four.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn more_threads_than_sources_is_fine() {
        let g = gen::cycle(20);
        let params = RwrParams::for_graph(20);
        let cfg = ResAccConfig::default();
        let seq = msrwr_resacc(&g, &[3, 8], &params, &cfg, 1);
        let par = msrwr_resacc_parallel(&g, &[3, 8], &params, &cfg, 1, 16);
        assert_eq!(seq, par);
    }

    #[test]
    fn generic_driver_passes_distinct_seeds() {
        let mut seeds = Vec::new();
        let res = msrwr_with(&[1, 2, 3], 9, |s, seed| {
            seeds.push(seed);
            vec![s as f64]
        });
        assert_eq!(res, vec![vec![1.0], vec![2.0], vec![3.0]]);
        assert_ne!(seeds[0], seeds[1]);
        assert_ne!(seeds[1], seeds[2]);
    }

    #[test]
    fn empty_sources() {
        let g = gen::cycle(5);
        let params = RwrParams::for_graph(5);
        let res = msrwr_resacc(&g, &[], &params, &ResAccConfig::default(), 1);
        assert!(res.is_empty());
    }
}
