//! Cancellation leaves no trace: on random Erdős–Rényi and Barabási–Albert
//! graphs, a remedy phase aborted by an expired deadline reports a typed
//! error and leaves its workspace reusable — the retry, and the next
//! query through a session, are bit-identical to runs that never saw the
//! abort.
//!
//! This holds because cancellation never touches the RNG: walk budgets are
//! split into fixed `CHECK_INTERVAL`-sized chunks, each on its own stream
//! (`chunk_seed(seed, node, chunk_idx)`, `DESIGN.md` §10), and the cancel
//! token is only consulted between chunks.

use proptest::prelude::*;
use resacc::monte_carlo::remedy_cancellable;
use resacc::resacc::{h_hop_fwd, omfwd, ResAccConfig, Scope};
use resacc::{Cancel, ForwardState, QueryError, RwrParams, RwrSession};
use resacc_graph::{gen, CsrGraph};
use std::time::{Duration, Instant};

/// Strategy: a random ER or BA graph (both families from the paper's
/// evaluation: flat vs heavy-tailed degree distributions).
fn arb_er_or_ba_graph() -> impl Strategy<Value = CsrGraph> {
    (0usize..2, 4usize..50, 0usize..4, 0u64..1_000_000).prop_map(|(family, n, d, seed)| {
        match family {
            0 => gen::erdos_renyi(n, n * d, seed),
            _ => gen::barabasi_albert(n, d.max(1), seed),
        }
    })
}

fn arb_graph_and_source() -> impl Strategy<Value = (CsrGraph, u32)> {
    arb_er_or_ba_graph().prop_flat_map(|g| {
        let n = g.num_nodes() as u32;
        (Just(g), 0..n)
    })
}

/// Runs the push phases once, leaving `state` holding the residues the
/// remedy phase consumes (which it only reads — `&ForwardState`).
fn push_phases(g: &CsrGraph, s: u32, state: &mut ForwardState) {
    let out = h_hop_fwd(g, s, 0.2, 1e-4, Scope::HopLimited(2), true, state);
    omfwd(g, 0.2, 1e-5, &out.boundary, state);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A remedy run aborted mid-phase (expired deadline fires at the first
    /// interval boundary inside the walk loop) reports a typed error,
    /// leaves the push-phase workspace untouched, and a retry on the same
    /// workspace is bit-identical to a run that never saw the abort.
    #[test]
    fn cancelled_remedy_leaves_workspace_reusable(
        (g, s) in arb_graph_and_source(),
        seed in 0u64..1_000_000,
    ) {
        let params = RwrParams::new(0.2, 0.5, 0.05, 0.05);
        let mut state = ForwardState::new(g.num_nodes());
        push_phases(&g, s, &mut state);
        let residue_sum = state.residue_sum();

        // Reference: an undisturbed remedy on a copy of the scores.
        let mut reference = state.scores();
        let ref_walks = remedy_cancellable(
            &g, &state, &params, 1.0, seed, &mut reference, &Cancel::never(),
        ).unwrap();

        // Aborted attempt: the deadline is already expired, so the walk
        // loop aborts at its first real check. Partial scores are discarded
        // by dropping `aborted`.
        let expired = Cancel::at(Instant::now() - Duration::from_secs(1));
        let mut aborted = state.scores();
        let err = remedy_cancellable(
            &g, &state, &params, 1.0, seed, &mut aborted, &expired,
        );
        // Tiny plans (< CHECK_INTERVAL walks) may finish before any check;
        // when the abort does fire it must be the typed deadline error.
        if let Err(e) = err {
            prop_assert_eq!(e, QueryError::DeadlineExceeded);
        }

        // The workspace is untouched: same residues, and a retry is
        // bit-identical to the undisturbed reference.
        prop_assert_eq!(state.residue_sum().to_bits(), residue_sum.to_bits());
        let mut retry = state.scores();
        let retry_walks = remedy_cancellable(
            &g, &state, &params, 1.0, seed, &mut retry, &Cancel::never(),
        ).unwrap();
        prop_assert_eq!(retry_walks, ref_walks);
        for (t, (a, b)) in reference.iter().zip(&retry).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "scores[{}] differs after abort", t);
        }
    }
}

/// Session-level version of the cancellation property: a query aborted by
/// an expired deadline resets its pooled workspace, and the *next* query
/// through the session is bit-identical to one on a session that never saw
/// the abort.
#[test]
fn session_query_after_cancelled_query_is_unaffected() {
    let g = gen::barabasi_albert(300, 3, 0xC0FFEE);
    let params = RwrParams::new(0.2, 0.5, 0.05, 0.05);

    let disturbed = RwrSession::with_config(
        gen::barabasi_albert(300, 3, 0xC0FFEE),
        params,
        ResAccConfig::default(),
    );
    let expired = Cancel::at(Instant::now() - Duration::from_secs(1));
    let err = disturbed
        .try_query_versioned(7, 99, &expired)
        .expect_err("expired deadline must abort");
    assert_eq!(err, QueryError::DeadlineExceeded);

    let pristine = RwrSession::with_config(g, params, ResAccConfig::default());
    let (a, _) = disturbed
        .try_query_versioned(7, 99, &Cancel::never())
        .expect("clean query after abort");
    let (b, _) = pristine
        .try_query_versioned(7, 99, &Cancel::never())
        .expect("clean query on pristine session");
    assert_eq!(a.walks, b.walks);
    for (t, (x, y)) in a.scores.iter().zip(&b.scores).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "scores[{t}]: cancelled query disturbed the session"
        );
    }
}
