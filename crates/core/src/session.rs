//! A stateful, concurrently-shareable query session over a mutable graph.
//!
//! The paper's central systems argument is that index-free algorithms suit
//! *dynamic* graphs: there is nothing to rebuild when edges change.
//! [`RwrSession`] packages that workflow for a *serving* context — it owns
//! the graph and a configured ResAcc engine, answers queries on `&self`
//! (any number of threads may query one session through an `Arc`
//! concurrently), and serializes graph mutations behind a write lock that
//! bumps a version counter. Mutations rebuild the CSR (an explicit
//! `O(n + m)` cost, amortized over queries) and queries are immediately
//! correct against the new topology. Contrast with the index-oriented types
//! ([`crate::fora_plus`], [`crate::bepi`], [`crate::tpa`],
//! [`crate::hubppr`]), whose indexes a caller must rebuild by hand after
//! every change (Fig 23's cost).
//!
//! ## Concurrency model
//!
//! * **Read path** (`query`, `top_k`): takes the graph read lock, checks a
//!   [`ForwardState`] workspace out of an internal pool (one materializes
//!   per concurrent reader, then they are reused), runs the engine, returns
//!   the workspace. No allocation on the steady-state hot path.
//! * **Write path** (`insert_edges`, `delete_edges`, `delete_node`): takes
//!   the write lock, swaps in the rebuilt CSR, bumps [`RwrSession::version`].
//!   Queries never observe a half-applied mutation.
//! * **Version counter**: monotonically increasing, one step per mutation.
//!   Downstream caches key results by `(source, params, version)` so a bump
//!   implicitly invalidates every cached result (see `resacc-service`).

use crate::cancel::{Cancel, QueryError};
use crate::durability::{epoch, Durability, DurabilityError, MutationOp, Recovered};
use crate::dynamic::{self, DeltaChange, DeltaLog, UpgradeError, Upgraded};
use crate::params::RwrParams;
use crate::resacc::{ResAcc, ResAccConfig, ResAccResult};
use crate::state::ForwardState;
use crate::topk::top_k;
use parking_lot::{Mutex, RwLock};
use resacc_graph::{CsrGraph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The lock-protected mutable core: topology plus derived parameters.
struct SessionState {
    graph: CsrGraph,
    params: RwrParams,
}

/// An owned graph plus a ready-to-query ResAcc engine, shareable across
/// threads (`&self` queries, internally synchronized mutations).
pub struct RwrSession {
    state: RwLock<SessionState>,
    engine: ResAcc,
    version: AtomicU64,
    pool: Mutex<Vec<ForwardState>>,
    /// When present, every mutation is WAL-appended (and fsync'd, per
    /// policy) *before* it is applied and the version bumps — see
    /// [`crate::durability`] for the exact ordering contract.
    durability: Option<Durability>,
    /// When present, called under the write lock right after the version
    /// bump for every applied mutation — so the observer sees a totally
    /// ordered, gap-free stream of `(version, op)` pairs, and only for
    /// mutations that are already durable (the WAL append precedes it).
    /// This is the replication publish hook ([`crate::replication`]).
    observer: Option<MutationObserver>,
    /// Recent per-version row deltas, recorded under the write lock so the
    /// stream is contiguous — the raw material for offset-propagation cache
    /// upgrades ([`crate::dynamic`]).
    deltas: Mutex<DeltaLog>,
    /// Replication epoch (failover generation). Raised durably by
    /// [`RwrSession::bump_epoch`] (promotion) and [`RwrSession::adopt_epoch`]
    /// (a replica following a newer leader); read lock-free on the frame
    /// hot path. Writes serialize on the `fence` mutex.
    epoch: AtomicU64,
    /// `Some(leader)` when this node observed a strictly higher epoch and
    /// fenced itself: every mutation bounces with
    /// [`DurabilityError::Fenced`] until [`RwrSession::bump_epoch`] (won a
    /// new election) or [`RwrSession::clear_fence`] (demotion to replica
    /// completed) lifts it. The leader string may be empty when the fencing
    /// handshake carried no leader address.
    fence: Mutex<Option<String>>,
    /// Present when the durability store was opened with
    /// `DurabilityOptions::group_commit`: concurrent [`RwrSession::
    /// apply_mutation`] callers coalesce into leader-committed batches
    /// behind one shared fsync. `None` keeps the per-mutation path.
    group_commit: Option<GroupCommit>,
}

/// Leader/follower group-commit state (PostgreSQL-style): callers enqueue
/// their op plus a result slot; whoever finds no commit in flight becomes
/// the batch leader, optionally waits the configured window for more
/// joiners, then commits the whole queue — one WAL batch, one fsync, one
/// write-lock acquisition — and fills every slot. Followers block on the
/// condvar until a leader has carried their entry.
///
/// Uses `std::sync` rather than the `parking_lot` shim because followers
/// need a [`Condvar`]. Lock poisoning is deliberately ignored
/// (`unwrap_or_else(PoisonError::into_inner)`): the queue holds plain data
/// whose invariants a panicking leader cannot break mid-update, and
/// refusing all future mutations over a poisoned flag would turn one
/// panicked caller into a permanent outage.
struct GroupCommit {
    state: std::sync::Mutex<GcQueue>,
    cv: std::sync::Condvar,
    /// Extra time the leader waits for joiners before committing.
    window: Duration,
}

struct GcQueue {
    queue: Vec<GcEntry>,
    /// True while a leader is committing a batch — the "commit latch".
    committing: bool,
}

struct GcEntry {
    op: MutationOp,
    slot: CommitSlot,
}

/// Where the leader deposits one caller's outcome. `DurabilityError` is
/// not `Clone`, so a failed batch fans out via [`clone_err`].
type CommitSlot = Arc<Mutex<Option<Result<u64, DurabilityError>>>>;

impl GroupCommit {
    fn new(window: Duration) -> Self {
        GroupCommit {
            state: std::sync::Mutex::new(GcQueue {
                queue: Vec::new(),
                committing: false,
            }),
            cv: std::sync::Condvar::new(),
            window,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GcQueue> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Duplicates a [`DurabilityError`] so one batch failure can be delivered
/// to every caller in the batch. `Io` loses the concrete `std::io::Error`
/// payload (kept as kind + message) — acceptable for an error report.
fn clone_err(e: &DurabilityError) -> DurabilityError {
    match e {
        DurabilityError::Io(err) => {
            DurabilityError::Io(std::io::Error::new(err.kind(), err.to_string()))
        }
        DurabilityError::Corrupt { path, detail } => DurabilityError::Corrupt {
            path: path.clone(),
            detail: detail.clone(),
        },
        DurabilityError::Poisoned { path } => DurabilityError::Poisoned { path: path.clone() },
        DurabilityError::Fenced { epoch, leader } => DurabilityError::Fenced {
            epoch: *epoch,
            leader: leader.clone(),
        },
        DurabilityError::Diverged {
            epoch,
            leader,
            local_version,
            leader_version,
            max_acked,
        } => DurabilityError::Diverged {
            epoch: *epoch,
            leader: leader.clone(),
            local_version: *local_version,
            leader_version: *leader_version,
            max_acked: *max_acked,
        },
    }
}

/// Callback invoked for every applied (and, with a store attached, already
/// durable) mutation; see [`RwrSession::set_mutation_observer`].
pub type MutationObserver = Box<dyn Fn(u64, &MutationOp) + Send + Sync>;

/// Read guard over the session's graph; derefs to [`CsrGraph`]. Mutations
/// block while any guard is alive — keep it short-lived.
pub struct GraphGuard<'a>(parking_lot::RwLockReadGuard<'a, SessionState>);

impl std::ops::Deref for GraphGuard<'_> {
    type Target = CsrGraph;
    fn deref(&self) -> &CsrGraph {
        &self.0.graph
    }
}

impl RwrSession {
    /// Opens a session with the paper's standard parameters for the graph
    /// size and a default-configured ResAcc engine.
    pub fn new(graph: CsrGraph) -> Self {
        let params = RwrParams::for_graph(graph.num_nodes());
        Self::with_config(graph, params, ResAccConfig::default())
    }

    /// Opens a session with explicit parameters and engine configuration.
    pub fn with_config(graph: CsrGraph, params: RwrParams, config: ResAccConfig) -> Self {
        RwrSession {
            state: RwLock::new(SessionState { graph, params }),
            engine: ResAcc::new(config),
            version: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
            durability: None,
            observer: None,
            deltas: Mutex::new(DeltaLog::new(dynamic::DEFAULT_DELTA_WINDOW)),
            epoch: AtomicU64::new(0),
            fence: Mutex::new(None),
            group_commit: None,
        }
    }

    /// Installs the mutation observer: a callback invoked under the write
    /// lock immediately after each mutation's version bump, in version
    /// order with no gaps. Because the WAL append happens first, the
    /// observer only ever sees *durable* mutations — which is exactly the
    /// replication shipping contract (a record is published to replicas
    /// only after it is durable on the primary).
    ///
    /// Takes `&mut self` deliberately: the observer is wired up at
    /// construction time, before the session is shared behind an `Arc`, so
    /// the steady-state mutation path needs no extra synchronization.
    pub fn set_mutation_observer(&mut self, observer: MutationObserver) {
        self.observer = Some(observer);
    }

    /// Opens a session on top of a recovered data directory: the graph and
    /// version counter continue exactly where the previous process stopped
    /// (the version **must not** restart at zero — downstream caches key on
    /// it), and subsequent mutations append to the recovered WAL.
    ///
    /// `params` carries the caller's query settings (alpha, epsilon); its
    /// thresholds are refreshed against the recovered graph size on the
    /// first node-count-changing mutation, like any other session.
    pub fn from_recovered(recovered: Recovered, params: RwrParams, config: ResAccConfig) -> Self {
        let Recovered {
            graph,
            version,
            store,
            epoch,
            ..
        } = recovered;
        let mut session = Self::with_config(graph, params, config);
        session.version = AtomicU64::new(version);
        let opts = *store.options();
        session.durability = Some(store);
        session.epoch = AtomicU64::new(epoch);
        if opts.group_commit {
            session.group_commit = Some(GroupCommit::new(Duration::from_millis(
                opts.group_commit_window_ms,
            )));
        }
        session
    }

    /// The durability store, when this session persists its mutations.
    pub fn durability(&self) -> Option<&Durability> {
        self.durability.as_ref()
    }

    /// The current graph, behind a read guard.
    pub fn graph(&self) -> GraphGuard<'_> {
        GraphGuard(self.state.read())
    }

    /// The session parameters (a copy; parameters only change when a
    /// mutation resizes the node set).
    pub fn params(&self) -> RwrParams {
        self.state.read().params
    }

    /// The engine configuration.
    pub fn config(&self) -> ResAccConfig {
        *self.engine.config()
    }

    /// Number of mutations applied so far. Bumped exactly once per
    /// `insert_edges` / `delete_edges` / `delete_node` call, under the
    /// write lock, before the mutation becomes visible to readers.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The replication epoch this session is at (0 until a failover ever
    /// happens). Lock-free; stamped into every replication frame.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// `Some((epoch, leader))` when this session is fenced: it observed a
    /// higher epoch and refuses every mutation until it demotes (or wins a
    /// later election via [`RwrSession::bump_epoch`]).
    pub fn fence_info(&self) -> Option<(u64, String)> {
        let fence = self.fence.lock();
        fence
            .as_ref()
            .map(|leader| (self.epoch.load(Ordering::Acquire), leader.clone()))
    }

    /// True when fenced (shorthand over [`RwrSession::fence_info`]).
    pub fn is_fenced(&self) -> bool {
        self.fence.lock().is_some()
    }

    /// Raise-only epoch adoption: a replica that learns the leader's epoch
    /// from a handshake or frame records it here (durably, when a store is
    /// attached) so a later promotion bumps *past* it. Lower or equal
    /// epochs are ignored — the epoch never regresses. Returns the
    /// session's epoch after adoption.
    pub fn adopt_epoch(&self, observed: u64) -> Result<u64, DurabilityError> {
        let fence = self.fence.lock();
        let current = self.epoch.load(Ordering::Acquire);
        if observed <= current {
            return Ok(current);
        }
        if let Some(store) = &self.durability {
            epoch::write_epoch(store.dir(), observed)?;
        }
        self.epoch.store(observed, Ordering::Release);
        drop(fence);
        Ok(observed)
    }

    /// The promotion step: durably bumps the epoch by one and clears any
    /// fence, returning the new epoch. The epoch reaches disk *before* this
    /// returns (and before the caller flips writable), so a SIGKILL
    /// immediately after promotion still recovers the bumped epoch — the
    /// old primary can never re-fence this node backwards. Armed crash
    /// point `promote-post-epoch` parks right after the durable write.
    pub fn bump_epoch(&self) -> Result<u64, DurabilityError> {
        let mut fence = self.fence.lock();
        let next = self.epoch.load(Ordering::Acquire) + 1;
        if let Some(store) = &self.durability {
            epoch::write_epoch(store.dir(), next)?;
        }
        crate::durability::crash_point("promote-post-epoch", || {});
        self.epoch.store(next, Ordering::Release);
        *fence = None;
        Ok(next)
    }

    /// Fences this session at `observed` (which must be ≥ the current
    /// epoch; the caller verified it saw a higher epoch): adopts the epoch
    /// durably and records `leader` (possibly empty) so every subsequent
    /// mutation bounces with [`DurabilityError::Fenced`]. Idempotent.
    pub fn fence(&self, observed: u64, leader: &str) -> Result<(), DurabilityError> {
        let mut fence = self.fence.lock();
        let current = self.epoch.load(Ordering::Acquire);
        if observed > current {
            if let Some(store) = &self.durability {
                epoch::write_epoch(store.dir(), observed)?;
            }
            self.epoch.store(observed, Ordering::Release);
        }
        // A later probe may carry the leader a first (replica-handshake)
        // fencing didn't know; never overwrite a known leader with "".
        match fence.as_ref() {
            Some(existing) if !existing.is_empty() && leader.is_empty() => {}
            _ => *fence = Some(leader.to_string()),
        }
        Ok(())
    }

    /// Lifts the fence *without* changing the epoch — the final step of a
    /// completed demotion, after which the node follows the new leader as
    /// a replica (the replication stream applies mutations through
    /// [`RwrSession::apply_mutation`] again; local writes are bounced at
    /// the service layer by the read-only role).
    pub fn clear_fence(&self) {
        *self.fence.lock() = None;
    }

    /// Demotes a fenced ex-primary's *history* to the leader's version:
    /// truncates every WAL record above `leader_version`, deletes
    /// snapshots above it, and rolls the in-memory graph back to exactly
    /// that version — unless a replica acknowledged records above it
    /// (`max_acked > leader_version`), in which case this refuses with
    /// [`DurabilityError::Diverged`] and changes nothing: truncating
    /// acknowledged history silently is the one thing failover must never
    /// do. Returns the number of records truncated (0 when this node never
    /// got ahead of the leader). The session stays fenced either way; the
    /// caller lifts the fence once its role has flipped to replica.
    pub fn demote_to(&self, leader_version: u64, max_acked: u64) -> Result<u64, DurabilityError> {
        let mut state = self.state.write();
        let version = self.version.load(Ordering::Acquire);
        if version <= leader_version {
            return Ok(0); // nothing divergent; follow the leader from here
        }
        let (epoch, leader) = self
            .fence_info()
            .unwrap_or_else(|| (self.epoch(), String::new()));
        let diverged = || DurabilityError::Diverged {
            epoch,
            leader: leader.clone(),
            local_version: version,
            leader_version,
            max_acked,
        };
        if max_acked > leader_version {
            return Err(diverged());
        }
        let Some(store) = &self.durability else {
            // No on-disk history to rebuild the pre-divergence state from;
            // refuse loudly rather than serve a forked graph as truth.
            return Err(diverged());
        };
        let (graph, dropped) = store.rollback_to(leader_version)?;
        if graph.num_nodes() != state.graph.num_nodes() {
            state.params = RwrParams::for_graph(graph.num_nodes());
        }
        state.graph = graph;
        self.version.store(leader_version, Ordering::Release);
        // The rollback jumped the version counter backwards: retained
        // deltas describe discarded history.
        self.deltas.lock().clear();
        Ok(dropped)
    }

    /// Checks a workspace out of the pool, sized for `n` nodes.
    fn checkout(&self, n: usize) -> ForwardState {
        let mut pool = self.pool.lock();
        while let Some(ws) = pool.pop() {
            if ws.len() == n {
                return ws;
            }
            // Sized for a pre-mutation node count: discard.
        }
        drop(pool);
        ForwardState::new(n)
    }

    /// Returns a workspace to the pool for reuse.
    fn check_in(&self, ws: ForwardState) {
        self.pool.lock().push(ws);
    }

    /// Answers an SSRWR query against the current graph.
    ///
    /// Concurrent-safe: takes the read lock for the duration of the query,
    /// so many queries run in parallel and mutations wait their turn.
    pub fn query(&self, source: NodeId, seed: u64) -> ResAccResult {
        self.query_versioned(source, seed).0
    }

    /// Like [`RwrSession::query`], also returning the graph version the
    /// query ran against. The version is read under the same read lock as
    /// the query itself, so the pair is consistent even while a mutator
    /// thread is waiting — callers that cache results by version need this
    /// to avoid stamping a result with a neighbouring version.
    pub fn query_versioned(&self, source: NodeId, seed: u64) -> (ResAccResult, u64) {
        self.try_query_versioned(source, seed, &Cancel::never())
            .expect("never-cancel token cannot abort and sources are caller-validated")
    }

    /// The fallible query path: validates `source` against the node count
    /// **under the same read lock the query runs under** (so a concurrent
    /// [`RwrSession::delete_node`] / future node-removing mutation cannot
    /// invalidate the check between validation and execution), and honours a
    /// cooperative [`Cancel`] token. Returns the typed [`QueryError`] on
    /// out-of-range sources, deadline expiry, or explicit cancellation; the
    /// checked-out workspace is reset and returned to the pool either way.
    pub fn try_query_versioned(
        &self,
        source: NodeId,
        seed: u64,
        cancel: &Cancel,
    ) -> Result<(ResAccResult, u64), QueryError> {
        let state = self.state.read();
        let version = self.version.load(Ordering::Acquire);
        let mut ws = self.checkout(state.graph.num_nodes());
        let result = self
            .engine
            .query_guarded(&state.graph, source, &state.params, seed, &mut ws, cancel);
        drop(state);
        if result.is_err() {
            // An aborted query leaves mid-phase residues behind; scrub them
            // so the next checkout starts clean.
            ws.reset();
        }
        self.check_in(ws);
        result.map(|r| (r, version))
    }

    /// The `k` most relevant nodes w.r.t. `source`.
    pub fn top_k(&self, source: NodeId, k: usize, seed: u64) -> Vec<(NodeId, f64)> {
        top_k(&self.query(source, seed).scores, k)
    }

    /// Applies one mutation: WAL-append (durable before anything else, when
    /// a store is attached), then rebuild the CSR, then bump the version —
    /// all under the write lock, so readers never observe a half-applied
    /// mutation and the log is always *ahead* of memory. Returns the new
    /// version; an `Err` means the append failed and **nothing changed**
    /// (the graph, version, and WAL are exactly as before).
    ///
    /// A snapshot-write failure after a successful append is reported to
    /// stderr but does not fail the mutation: the mutation is already
    /// durable in the WAL, and snapshots only bound replay time.
    ///
    /// With group commit enabled (`DurabilityOptions::group_commit`),
    /// concurrent callers coalesce: one of them leads the batch, appends
    /// every queued record behind a single shared fsync, applies them in
    /// version order, and releases all acks — the ordering contract
    /// (durable → applied → observer → ack) is identical, only the fsync
    /// count drops.
    pub fn apply_mutation(&self, op: &MutationOp) -> Result<u64, DurabilityError> {
        if let Some(gc) = &self.group_commit {
            return self.apply_grouped(gc, op);
        }
        let mut state = self.state.write();
        // Fenced: a newer primary exists, so accepting this write would
        // fork acknowledged history. Checked under the write lock so a
        // fence landing concurrently with a mutation serializes cleanly.
        if let Some((epoch, leader)) = self.fence_info() {
            return Err(DurabilityError::Fenced { epoch, leader });
        }
        let next = self.version.load(Ordering::Acquire) + 1;
        if let Some(store) = &self.durability {
            store.log_mutation(next, op)?;
        }
        self.apply_logged(&mut state, next, op);
        if let Some(store) = &self.durability {
            if store.should_snapshot(next) {
                if let Err(e) = store.write_snapshot(&state.graph, next) {
                    eprintln!("snapshot at version {next} failed (mutation is WAL-durable): {e}");
                }
            }
        }
        Ok(next)
    }

    /// The shared post-durability half of a mutation: applies `op` as
    /// version `next` under the caller's write lock. The WAL record for
    /// `next` is already durable when this runs (single or batched path —
    /// this is what keeps the log ahead of memory in both).
    fn apply_logged(&self, state: &mut SessionState, next: u64, op: &MutationOp) {
        // Capture the pre-mutation out-rows of the touched sources for the
        // delta log: edge-level ops are offset-upgradeable, `delete_node`
        // (which also rewrites every in-neighbour's row) is not.
        let captured: Option<Vec<(NodeId, Vec<NodeId>)>> = match op {
            MutationOp::InsertEdges(edges) | MutationOp::DeleteEdges(edges) => {
                let n = state.graph.num_nodes();
                if edges
                    .iter()
                    .any(|&(u, v)| u as usize >= n || v as usize >= n)
                {
                    None
                } else {
                    let mut sources: Vec<NodeId> = edges.iter().map(|&(u, _)| u).collect();
                    sources.sort_unstable();
                    sources.dedup();
                    Some(
                        sources
                            .into_iter()
                            .map(|u| (u, state.graph.out_neighbors(u).to_vec()))
                            .collect(),
                    )
                }
            }
            MutationOp::DeleteNode(_) => None,
        };
        let graph = op.apply(&state.graph);
        let change = match captured {
            Some(rows) if graph.num_nodes() == state.graph.num_nodes() => DeltaChange::Rows(rows),
            _ => DeltaChange::Unsupported,
        };
        if graph.num_nodes() != state.graph.num_nodes() {
            state.params = RwrParams::for_graph(graph.num_nodes());
            // Pooled workspaces are sized for the old node count; they are
            // discarded lazily by `checkout`'s length check.
        }
        state.graph = graph;
        self.version.store(next, Ordering::Release);
        // Still under the write lock: the log sees every version exactly
        // once, in order.
        self.deltas.lock().record(next, change);
        if let Some(observer) = &self.observer {
            // Still under the write lock: observers see a gap-free,
            // version-ordered stream of durable mutations.
            observer(next, op);
        }
    }

    /// The group-commit caller path: enqueue, then either lead a batch or
    /// wait for a leader to carry this entry. See [`GroupCommit`].
    fn apply_grouped(&self, gc: &GroupCommit, op: &MutationOp) -> Result<u64, DurabilityError> {
        let slot: CommitSlot = Arc::new(Mutex::new(None));
        let mut st = gc.lock();
        st.queue.push(GcEntry {
            op: op.clone(),
            slot: slot.clone(),
        });
        loop {
            if let Some(result) = slot.lock().take() {
                return result;
            }
            if st.committing {
                // A leader is mid-commit; it either carries our entry (we
                // find the slot filled on wake) or leaves it queued for
                // the next round.
                st = gc
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            // No commit in flight: lead this batch.
            st.committing = true;
            drop(st);
            if !gc.window.is_zero() {
                // Hold the batch open so concurrent callers can join;
                // pure latency-for-batch-size trade, durability unchanged.
                std::thread::sleep(gc.window);
            }
            let batch = std::mem::take(&mut gc.lock().queue);
            self.commit_batch(batch);
            st = gc.lock();
            st.committing = false;
            drop(st);
            gc.cv.notify_all();
            return slot
                .lock()
                .take()
                .expect("group-commit leader fills its own slot");
        }
    }

    /// Commits one group-commit batch: a single write-lock acquisition, a
    /// single fence check, one batched WAL append behind one fsync, then
    /// the in-order applies and ack releases. On append failure the WAL
    /// rolled the whole batch back, so every caller gets an `Err` and
    /// nothing changed — the same all-or-nothing contract as a single
    /// failed append.
    fn commit_batch(&self, batch: Vec<GcEntry>) {
        if batch.is_empty() {
            return;
        }
        let mut state = self.state.write();
        if let Some((epoch, leader)) = self.fence_info() {
            for entry in &batch {
                *entry.slot.lock() = Some(Err(DurabilityError::Fenced {
                    epoch,
                    leader: leader.clone(),
                }));
            }
            return;
        }
        let base = self.version.load(Ordering::Acquire);
        if let Some(store) = &self.durability {
            let records: Vec<(u64, MutationOp)> = batch
                .iter()
                .enumerate()
                .map(|(i, entry)| (base + 1 + i as u64, entry.op.clone()))
                .collect();
            if let Err(e) = store.log_batch(&records) {
                for entry in &batch {
                    *entry.slot.lock() = Some(Err(clone_err(&e)));
                }
                return;
            }
        }
        // Every record is durable; apply in version order and release each
        // ack. The observer fires per-op inside `apply_logged`, still in
        // version order with no gaps — replication publishes the batch
        // only after the shared fsync, record by record.
        for (i, entry) in batch.iter().enumerate() {
            let next = base + 1 + i as u64;
            self.apply_logged(&mut state, next, &entry.op);
            *entry.slot.lock() = Some(Ok(next));
        }
        if let Some(store) = &self.durability {
            // One snapshot decision per batch, at the batch tip: the
            // per-version graphs for interior versions no longer exist,
            // and snapshots are an optimization, not a correctness need.
            let tip = base + batch.len() as u64;
            if (base + 1..=tip).any(|v| store.should_snapshot(v)) {
                if let Err(e) = store.write_snapshot(&state.graph, tip) {
                    eprintln!("snapshot at version {tip} failed (batch is WAL-durable): {e}");
                }
            }
        }
    }

    /// Replaces the session's graph wholesale with a snapshot at `version`
    /// — the replica bootstrap path. The snapshot is persisted to this
    /// session's own store *before* it becomes visible (so a crash right
    /// after never regresses below what the replica acknowledged), then the
    /// graph is swapped, parameters are refreshed exactly as a node-count-
    /// changing mutation would, and the version counter jumps to `version`.
    ///
    /// Unlike [`RwrSession::apply_mutation`], the mutation observer is
    /// *not* invoked: a snapshot is not part of the op stream.
    ///
    /// Errors only on a persistence failure, in which case nothing changed.
    pub fn install_snapshot(&self, graph: CsrGraph, version: u64) -> Result<(), DurabilityError> {
        let mut state = self.state.write();
        if let Some(store) = &self.durability {
            store.write_snapshot(&graph, version)?;
        }
        if graph.num_nodes() != state.graph.num_nodes() {
            state.params = RwrParams::for_graph(graph.num_nodes());
        }
        state.graph = graph;
        self.version.store(version, Ordering::Release);
        // A snapshot jumps the version counter: spans across it can never
        // be rolled forward, so the retained deltas are useless.
        self.deltas.lock().clear();
        Ok(())
    }

    /// Rolls a score vector cached at `from_version` forward to the current
    /// graph by offset propagation ([`crate::dynamic`]), pushing until the
    /// signed residual drops below `delta` per out-edge. Returns the
    /// upgraded vector (with its incremental error claim) and the version
    /// it is now valid at.
    ///
    /// Errs when the span contains a non-edge-level mutation
    /// ([`UpgradeError::Unsupported`]) or is no longer covered by the
    /// session's delta window ([`UpgradeError::WindowExceeded`]) — callers
    /// fall back to a cold query.
    pub fn try_upgrade_scores(
        &self,
        scores: &[f64],
        from_version: u64,
        delta: f64,
    ) -> Result<(Upgraded, u64), UpgradeError> {
        let state = self.state.read();
        let version = self.version.load(Ordering::Acquire);
        if from_version > version {
            return Err(UpgradeError::WindowExceeded);
        }
        if scores.len() != state.graph.num_nodes() {
            return Err(UpgradeError::Unsupported);
        }
        if from_version == version {
            return Ok((
                Upgraded {
                    scores: scores.to_vec(),
                    err_bound: 0.0,
                    pushes: 0,
                },
                version,
            ));
        }
        let rows = self.deltas.lock().rows_between(from_version, version)?;
        let mut ws = self.checkout(state.graph.num_nodes());
        let alpha = state.params.alpha;
        let upgraded = dynamic::upgrade_scores(&state.graph, scores, &rows, alpha, delta, &mut ws);
        drop(state);
        self.check_in(ws);
        Ok((upgraded, version))
    }

    /// Writes a snapshot at the current version and compacts the WAL — the
    /// clean-shutdown path. After a checkpoint, a restart loads the snapshot
    /// and replays zero WAL records. No-op without a durability store.
    ///
    /// Safe to call from any thread at any time: concurrent checkpoints
    /// (and periodic snapshots) serialize on the store's snapshot mutex
    /// inside [`Durability::write_snapshot`], so they can never interleave
    /// writes into the same temp file.
    pub fn checkpoint(&self) -> Result<(), DurabilityError> {
        let Some(store) = &self.durability else {
            return Ok(());
        };
        // The read lock excludes concurrent mutations (they take the write
        // lock), so graph and version are a consistent pair.
        let state = self.state.read();
        let version = self.version.load(Ordering::Acquire);
        store.write_snapshot(&state.graph, version)
    }

    /// Inserts directed edges (existing edges are deduplicated).
    ///
    /// Panics if the durability append fails; use
    /// [`RwrSession::apply_mutation`] for the fallible path.
    pub fn insert_edges(&self, edges: &[(NodeId, NodeId)]) {
        self.apply_mutation(&MutationOp::InsertEdges(edges.to_vec()))
            .expect("WAL append failed");
    }

    /// Deletes directed edges (absent edges are ignored).
    ///
    /// Panics if the durability append fails; use
    /// [`RwrSession::apply_mutation`] for the fallible path.
    pub fn delete_edges(&self, edges: &[(NodeId, NodeId)]) {
        self.apply_mutation(&MutationOp::DeleteEdges(edges.to_vec()))
            .expect("WAL append failed");
    }

    /// Isolates a node: removes all its in- and out-edges. **Ids stay
    /// stable** — the node is not removed from the id space, so a later
    /// `insert_edges` touching it deterministically *resurrects* it (the
    /// edge is accepted and the node is reachable again). This is a pinned
    /// contract: WAL replay applies the same `delete_node` + `insert_edges`
    /// ops and must land on a bit-identical graph, which rules out any
    /// nondeterministic or id-shifting delete. See DESIGN.md §11.
    ///
    /// Panics if the durability append fails; use
    /// [`RwrSession::apply_mutation`] for the fallible path.
    pub fn delete_node(&self, node: NodeId) {
        self.apply_mutation(&MutationOp::DeleteNode(node))
            .expect("WAL append failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resacc_graph::gen;
    use std::sync::Arc;

    #[test]
    fn query_reflects_mutations_immediately() {
        let session = RwrSession::new(gen::cycle(6));
        let before = session.query(0, 1);
        assert!(before.scores[3] > 0.0);
        // Cut the cycle between 2 and 3: node 3 becomes unreachable from 0.
        session.delete_edges(&[(2, 3)]);
        assert_eq!(session.version(), 1);
        let after = session.query(0, 1);
        assert_eq!(after.scores[3], 0.0);
        let sum: f64 = after.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn insert_creates_reachability() {
        let session = RwrSession::new(gen::path(4)); // 0→1→2→3
        session.insert_edges(&[(3, 0)]); // close the loop
        assert!(session.graph().has_edge(3, 0));
        let r = session.query(3, 2);
        assert!(r.scores[0] > 0.0);
    }

    #[test]
    fn node_deletion_isolates() {
        let session = RwrSession::new(gen::complete(5));
        session.delete_node(2);
        let r = session.query(0, 3);
        assert_eq!(r.scores[2], 0.0);
        assert_eq!(session.graph().out_degree(2), 0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn top_k_and_guarantee_after_updates() {
        let session = RwrSession::new(gen::barabasi_albert(200, 3, 9));
        session.delete_node(5);
        session.insert_edges(&[(0, 100), (100, 0)]);
        assert_eq!(session.version(), 2);
        let top = session.top_k(0, 5, 7);
        assert_eq!(top[0].0, 0);
        // Guarantee still holds on the mutated graph.
        let exact = crate::exact::exact_rwr(&session.graph(), 0, session.params().alpha);
        let r = session.query(0, 11);
        for v in 0..200usize {
            if exact[v] > session.params().delta {
                let rel = (r.scores[v] - exact[v]).abs() / exact[v];
                assert!(rel <= session.params().epsilon, "node {v}: {rel}");
            }
        }
    }

    #[test]
    fn repeated_queries_reuse_workspace() {
        let session = RwrSession::new(gen::erdos_renyi(100, 600, 4));
        let a = session.query(0, 5).scores;
        let _ = session.query(7, 6);
        let b = session.query(0, 5).scores;
        assert_eq!(a, b, "workspace reuse must not leak state");
    }

    #[test]
    fn every_mutation_kind_bumps_version() {
        let session = RwrSession::new(gen::complete(6));
        assert_eq!(session.version(), 0);
        session.insert_edges(&[(0, 1)]); // no-op edge content, still a mutation
        assert_eq!(session.version(), 1);
        session.delete_edges(&[(0, 1)]);
        assert_eq!(session.version(), 2);
        session.delete_node(3);
        assert_eq!(session.version(), 3);
        session.delete_edges(&[(9, 9)]); // absent edge: still bumps
        assert_eq!(session.version(), 4);
    }

    #[test]
    fn upgraded_scores_track_mutations_within_claimed_error() {
        let session = RwrSession::new(gen::barabasi_albert(150, 3, 21));
        let cached = session.query(4, 9).scores;
        let at = session.version();
        session.insert_edges(&[(4, 120), (60, 4)]);
        session.delete_edges(&[(4, 120)]);
        let (up, version) = session
            .try_upgrade_scores(&cached, at, 1e-5)
            .expect("edge-level span must upgrade");
        assert_eq!(version, session.version());
        // The upgraded vector must agree with a fresh query to within the
        // offset claim plus both engine approximations (triangle bound).
        let fresh = session.query(4, 9).scores;
        let params = session.params();
        for (t, (a, b)) in up.scores.iter().zip(&fresh).enumerate() {
            let tol = up.err_bound + params.epsilon * (b + a) + 2.0 * params.delta;
            let diff = (a - b).abs();
            assert!(diff <= tol, "node {t}: {diff} > {tol}");
        }
    }

    #[test]
    fn upgrade_refuses_unsupported_and_stale_spans() {
        use crate::dynamic::UpgradeError;
        let session = RwrSession::new(gen::erdos_renyi(80, 400, 13));
        let cached = session.query(0, 1).scores;
        session.delete_node(40);
        assert_eq!(
            session.try_upgrade_scores(&cached, 0, 1e-4).unwrap_err(),
            UpgradeError::Unsupported
        );
        // A from-version ahead of the session is nonsense: refused.
        assert_eq!(
            session.try_upgrade_scores(&cached, 99, 1e-4).unwrap_err(),
            UpgradeError::WindowExceeded
        );
        // Same-version "upgrade" is free and exact.
        let v = session.version();
        let fresh = session.query(0, 1).scores;
        let (up, at) = session.try_upgrade_scores(&fresh, v, 1e-4).unwrap();
        assert_eq!(at, v);
        assert_eq!(up.err_bound, 0.0);
        assert_eq!(up.scores, fresh);
    }

    #[test]
    fn concurrent_queries_match_sequential() {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(300, 4, 2)));
        let expected: Vec<Vec<f64>> =
            (0..8u32).map(|s| session.query(s, s as u64).scores).collect();
        let got: Vec<Vec<f64>> = crossbeam::scope(|scope| {
            let handles: Vec<_> = (0..8u32)
                .map(|s| {
                    let session = session.clone();
                    scope.spawn(move |_| session.query(s, s as u64).scores)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        assert_eq!(expected, got, "per-seed determinism must survive sharing");
    }

    #[test]
    fn concurrent_queries_and_mutations_stay_consistent() {
        // Readers hammer one source while a writer flips an edge; every
        // observed score vector must be valid for SOME version (mass 1.0,
        // never a torn graph).
        let session = Arc::new(RwrSession::new(gen::cycle(8)));
        crossbeam::scope(|scope| {
            for t in 0..4u64 {
                let session = session.clone();
                scope.spawn(move |_| {
                    for i in 0..40 {
                        let r = session.query(0, t * 1000 + i);
                        let sum: f64 = r.scores.iter().sum();
                        assert!((sum - 1.0).abs() < 1e-9, "torn read: mass {sum}");
                    }
                });
            }
            let writer = session.clone();
            scope.spawn(move |_| {
                for _ in 0..20 {
                    writer.delete_edges(&[(2, 3)]);
                    writer.insert_edges(&[(2, 3)]);
                }
            });
        })
        .unwrap();
        assert_eq!(session.version(), 40);
    }

    #[test]
    fn expired_deadline_aborts_with_typed_error() {
        let session = RwrSession::new(gen::barabasi_albert(5_000, 4, 2));
        let already_expired = Cancel::at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let err = session.try_query_versioned(0, 1, &already_expired).unwrap_err();
        assert_eq!(err, QueryError::DeadlineExceeded);
        // The session (and its workspace pool) is immediately reusable, and
        // the aborted run leaves no residue behind to corrupt the result.
        let clean = session.query(0, 1).scores;
        let fresh = RwrSession::new(gen::barabasi_albert(5_000, 4, 2))
            .query(0, 1)
            .scores;
        assert_eq!(clean, fresh, "abort must not leak workspace state");
    }

    #[test]
    fn completing_under_deadline_is_bit_identical() {
        let session = RwrSession::new(gen::barabasi_albert(400, 3, 6));
        let (plain, v1) = session.query_versioned(9, 42);
        let generous = Cancel::after(std::time::Duration::from_secs(3600));
        let (guarded, v2) = session.try_query_versioned(9, 42, &generous).unwrap();
        assert_eq!(plain.scores, guarded.scores);
        assert_eq!(v1, v2);
    }

    #[test]
    fn out_of_range_source_is_typed_not_panic() {
        let session = RwrSession::new(gen::cycle(10));
        let err = session
            .try_query_versioned(10, 1, &Cancel::never())
            .unwrap_err();
        assert_eq!(
            err,
            QueryError::SourceOutOfRange {
                source: 10,
                nodes: 10
            }
        );
        assert_eq!(err.to_string(), "source 10 out of range (n = 10)");
    }

    #[test]
    fn manual_cancel_aborts_inflight_style_token() {
        let session = RwrSession::new(gen::barabasi_albert(2_000, 4, 3));
        let token = Cancel::manual();
        token.cancel();
        let err = session.try_query_versioned(0, 7, &token).unwrap_err();
        assert_eq!(err, QueryError::Cancelled);
    }

    #[test]
    fn pool_discards_stale_workspaces_on_resize() {
        // delete_node keeps n stable, so exercise the resize path directly
        // through queries against differently-sized graphs via params: the
        // pool must never hand a workspace of the wrong size to the engine.
        let session = RwrSession::new(gen::cycle(10));
        let r1 = session.query(0, 1);
        assert_eq!(r1.scores.len(), 10);
        // All current mutations preserve n; the length check still guards
        // the invariant the engine relies on.
        session.delete_node(9);
        let r2 = session.query(0, 1);
        assert_eq!(r2.scores.len(), 10);
    }

    #[test]
    fn delete_node_then_insert_edges_deterministically_resurrects() {
        // The pinned contract: delete_node isolates but never removes the
        // id, so a later insert touching that id is accepted and brings the
        // node back — identically every time, which is what lets WAL replay
        // reproduce history bit-for-bit.
        let session = RwrSession::new(gen::complete(6));
        session.delete_node(2);
        assert_eq!(session.graph().out_degree(2) + session.graph().in_degree(2), 0);
        session.insert_edges(&[(0, 2), (2, 4)]);
        assert!(session.graph().has_edge(0, 2));
        assert!(session.graph().has_edge(2, 4));
        let r = session.query(0, 7);
        assert!(r.scores[2] > 0.0, "resurrected node is reachable again");
        // Determinism: an independent session replaying the same ops lands
        // on the same graph bytes.
        let replay = RwrSession::new(gen::complete(6));
        replay.delete_node(2);
        replay.insert_edges(&[(0, 2), (2, 4)]);
        let a = resacc_graph::binary::to_bytes(&session.graph());
        let b = resacc_graph::binary::to_bytes(&replay.graph());
        let (a, b): (&[u8], &[u8]) = (&a, &b);
        assert_eq!(a, b);
    }

    #[test]
    fn durable_session_survives_reopen_with_version_and_graph_intact() {
        use crate::durability::{open_dir, DurabilityOptions};
        let dir = std::env::temp_dir().join(format!("resacc-sess-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurabilityOptions {
            fsync: false,
            snapshot_every: 0, ..Default::default()
        };
        let base = || Ok(gen::erdos_renyi(40, 160, 3));
        let expected = {
            let rec = open_dir(&dir, opts, base).unwrap();
            let params = RwrParams::for_graph(rec.graph.num_nodes());
            let session = RwrSession::from_recovered(rec, params, ResAccConfig::default());
            session.insert_edges(&[(0, 39), (5, 7)]);
            session.delete_node(3);
            session.insert_edges(&[(3, 0)]);
            assert_eq!(session.version(), 3);
            session.query(0, 11).scores
        }; // dropped without checkpoint: recovery must rebuild from the WAL
        let rec = open_dir(&dir, opts, base).unwrap();
        assert_eq!(rec.stats.wal_records_replayed, 3);
        let params = RwrParams::for_graph(rec.graph.num_nodes());
        let session = RwrSession::from_recovered(rec, params, ResAccConfig::default());
        assert_eq!(session.version(), 3, "version continues, never restarts");
        assert_eq!(
            session.query(0, 11).scores,
            expected,
            "recovered graph answers bit-identically"
        );
        // A checkpoint makes the next recovery replay nothing.
        session.checkpoint().unwrap();
        let rec2 = open_dir(&dir, opts, base).unwrap();
        assert_eq!(rec2.stats.wal_records_replayed, 0);
        assert_eq!(rec2.version, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn grouped_session(dir: &std::path::Path, window_ms: u64) -> RwrSession {
        use crate::durability::{open_dir, DurabilityOptions};
        let opts = DurabilityOptions {
            fsync: true,
            snapshot_every: 0,
            group_commit: true,
            group_commit_window_ms: window_ms,
        };
        let rec = open_dir(dir, opts, || Ok(gen::erdos_renyi(40, 160, 3))).unwrap();
        let params = RwrParams::for_graph(rec.graph.num_nodes());
        RwrSession::from_recovered(rec, params, ResAccConfig::default())
    }

    #[test]
    fn group_commit_coalesces_concurrent_mutations_without_losing_any() {
        use crate::durability::{open_dir, DurabilityOptions};
        let dir = std::env::temp_dir().join(format!("resacc-sess-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Arc::new(grouped_session(&dir, 2));
        let threads = 8;
        let per_thread = 4;
        crossbeam::scope(|scope| {
            for t in 0..threads {
                let session = session.clone();
                scope.spawn(move |_| {
                    for i in 0..per_thread {
                        session
                            .apply_mutation(&MutationOp::InsertEdges(vec![(
                                t as u32,
                                (i + 1) as u32,
                            )]))
                            .unwrap();
                    }
                });
            }
        })
        .unwrap();
        let total = (threads * per_thread) as u64;
        assert_eq!(session.version(), total);
        let store = session.durability().unwrap();
        assert_eq!(store.records_appended(), total, "every mutation logged");
        let batches = store.batches_committed();
        assert!(batches >= 1 && batches <= total, "batches: {batches}");
        assert!(
            batches < total,
            "32 concurrent mutations with a 2ms window never coalesced"
        );
        // The log is a gap-free version sequence a restart replays exactly.
        let expected = session.query(0, 7).scores;
        drop(session);
        let rec = open_dir(&dir, DurabilityOptions::default(), || {
            Ok(gen::erdos_renyi(40, 160, 3))
        })
        .unwrap();
        assert_eq!(rec.version, total);
        let params = RwrParams::for_graph(rec.graph.num_nodes());
        let reopened = RwrSession::from_recovered(rec, params, ResAccConfig::default());
        assert_eq!(reopened.query(0, 7).scores, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_failed_append_fails_cleanly_and_retries() {
        let dir = std::env::temp_dir().join(format!("resacc-sess-gcfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = grouped_session(&dir, 0);
        let op = MutationOp::InsertEdges(vec![(0, 39)]);
        session.durability().unwrap().inject_append_failure(5);
        assert!(matches!(
            session.apply_mutation(&op),
            Err(DurabilityError::Io(_))
        ));
        assert_eq!(session.version(), 0, "failed batch left no trace");
        // The rollback was clean: the retry commits.
        assert_eq!(session.apply_mutation(&op).unwrap(), 1);
        assert_eq!(session.durability().unwrap().batches_committed(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_fence_bounces_the_whole_batch() {
        let dir = std::env::temp_dir().join(format!("resacc-sess-gcfence-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = grouped_session(&dir, 0);
        session.fence(4, "leader:9").unwrap();
        match session.apply_mutation(&MutationOp::DeleteNode(3)) {
            Err(DurabilityError::Fenced { epoch, leader }) => {
                assert_eq!((epoch, leader.as_str()), (4, "leader:9"));
            }
            other => panic!("expected Fenced, got {other:?}"),
        }
        assert_eq!(session.version(), 0);
        assert_eq!(session.durability().unwrap().records_appended(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_observer_sees_gap_free_version_order() {
        let dir = std::env::temp_dir().join(format!("resacc-sess-gcobs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut session = grouped_session(&dir, 1);
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        session.set_mutation_observer(Box::new(move |version, _op| {
            sink.lock().push(version);
        }));
        let session = Arc::new(session);
        crossbeam::scope(|scope| {
            for t in 0..6u32 {
                let session = session.clone();
                scope.spawn(move |_| {
                    for _ in 0..3 {
                        session
                            .apply_mutation(&MutationOp::InsertEdges(vec![(t, t + 10)]))
                            .unwrap();
                    }
                });
            }
        })
        .unwrap();
        let versions = seen.lock().clone();
        assert_eq!(
            versions,
            (1..=18u64).collect::<Vec<_>>(),
            "observer stream must be version-ordered with no gaps, even across batches"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_snapshot_policy_fires_at_batch_tip() {
        use crate::durability::{open_dir, DurabilityOptions};
        let dir = std::env::temp_dir().join(format!("resacc-sess-gcsnap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurabilityOptions {
            fsync: true,
            snapshot_every: 2,
            group_commit: true,
            group_commit_window_ms: 0,
        };
        let rec = open_dir(&dir, opts, || Ok(gen::cycle(12))).unwrap();
        let params = RwrParams::for_graph(rec.graph.num_nodes());
        let session = RwrSession::from_recovered(rec, params, ResAccConfig::default());
        for i in 0..4u32 {
            session
                .apply_mutation(&MutationOp::InsertEdges(vec![(i, i + 6)]))
                .unwrap();
        }
        assert!(
            session.durability().unwrap().snapshots_written() >= 1,
            "snapshot-every must still trigger on the grouped path"
        );
        drop(session);
        let rec = open_dir(&dir, opts, || panic!("snapshot must exist")).unwrap();
        assert_eq!(rec.version, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fenced_session_bounces_mutations_until_cleared() {
        use crate::durability::MutationOp;
        let session = RwrSession::new(gen::cycle(6));
        session.fence(5, "10.0.0.9:7000").unwrap();
        assert!(session.is_fenced());
        assert_eq!(session.epoch(), 5);
        match session.apply_mutation(&MutationOp::InsertEdges(vec![(0, 3)])) {
            Err(DurabilityError::Fenced { epoch, leader }) => {
                assert_eq!(epoch, 5);
                assert_eq!(leader, "10.0.0.9:7000");
            }
            other => panic!("expected Fenced, got {other:?}"),
        }
        assert_eq!(session.version(), 0, "fenced write left no trace");
        // A later fence with an unknown leader must not erase a known one.
        session.fence(5, "").unwrap();
        assert_eq!(session.fence_info(), Some((5, "10.0.0.9:7000".to_string())));
        session.clear_fence();
        assert!(!session.is_fenced());
        session.apply_mutation(&MutationOp::InsertEdges(vec![(0, 3)])).unwrap();
        assert_eq!(session.version(), 1);
        assert_eq!(session.epoch(), 5, "clearing the fence keeps the epoch");
    }

    #[test]
    fn epoch_adoption_is_raise_only_and_bump_clears_fence() {
        let session = RwrSession::new(gen::path(4));
        assert_eq!(session.adopt_epoch(3).unwrap(), 3);
        assert_eq!(session.adopt_epoch(1).unwrap(), 3, "epochs never regress");
        assert_eq!(session.epoch(), 3);
        session.fence(4, "left:1").unwrap();
        assert_eq!(session.bump_epoch().unwrap(), 5);
        assert!(!session.is_fenced(), "promotion lifts the fence");
    }

    #[test]
    fn demote_truncates_unacked_tail_but_refuses_acked_divergence() {
        use crate::durability::{open_dir, DurabilityOptions, MutationOp};
        let dir = std::env::temp_dir().join(format!("resacc-sess-demote-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurabilityOptions {
            fsync: false,
            snapshot_every: 0, ..Default::default()
        };
        let base = || Ok(gen::erdos_renyi(20, 80, 5));
        let rec = open_dir(&dir, opts, base).unwrap();
        let params = RwrParams::for_graph(rec.graph.num_nodes());
        let session = RwrSession::from_recovered(rec, params, ResAccConfig::default());
        session.apply_mutation(&MutationOp::InsertEdges(vec![(0, 19)])).unwrap();
        session.apply_mutation(&MutationOp::InsertEdges(vec![(1, 18)])).unwrap();
        let clean = session.query(0, 13).scores.clone();
        session.checkpoint().unwrap(); // anchor snapshot at version 2
        // Split-brain tail: three writes the new leader never saw.
        for k in 0..3u32 {
            session
                .apply_mutation(&MutationOp::InsertEdges(vec![(2 + k, 17 - k)]))
                .unwrap();
        }
        assert_eq!(session.version(), 5);
        session.fence(9, "leader:1").unwrap();
        // Acked divergence: refuse loudly rather than drop history.
        match session.demote_to(2, 4) {
            Err(DurabilityError::Diverged {
                epoch,
                local_version,
                leader_version,
                max_acked,
                ..
            }) => {
                assert_eq!((epoch, local_version, leader_version, max_acked), (9, 5, 2, 4));
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
        assert_eq!(session.version(), 5, "refusal leaves state untouched");
        // Unacked divergence: roll the tail away and land on the leader's tip.
        assert_eq!(session.demote_to(2, 2).unwrap(), 3);
        assert_eq!(session.version(), 2);
        assert_eq!(
            session.query(0, 13).scores,
            clean,
            "post-rollback scores are bit-identical to the pre-divergence state"
        );
        // Already behind the leader: nothing to truncate.
        assert_eq!(session.demote_to(10, 2).unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_session_refuses_demotion_below_its_version() {
        use crate::durability::MutationOp;
        let session = RwrSession::new(gen::cycle(5));
        session.apply_mutation(&MutationOp::InsertEdges(vec![(0, 2)])).unwrap();
        session.apply_mutation(&MutationOp::InsertEdges(vec![(1, 3)])).unwrap();
        session.fence(2, "leader:2").unwrap();
        assert!(matches!(
            session.demote_to(1, 0),
            Err(DurabilityError::Diverged { .. })
        ));
    }
}
