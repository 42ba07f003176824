//! A sharded, content-addressed store of stage artifacts shared by
//! the CLI training path and the inference server.
//!
//! The store replaces the old single feature-stack cache: instead of
//! one opaque `PreparedStack` entry per design, every intermediate
//! stage of the pipeline ([`Stage`]) lands here under its own
//! fingerprint, so an edit invalidates exactly the artifacts whose
//! inputs changed. A current-vector-only what-if reuses the assembled
//! MNA system, the prepared solver (AMG hierarchy) and the structural
//! feature maps verbatim and recomputes only the rough solve and the
//! stack assembly.
//!
//! Concurrency model (inherited from the old cache, now per
//! `(stage, key)` pair): the key space is split across independently
//! locked shards, eviction is LRU per stage per shard, and misses are
//! single-flighted — concurrent requests for the same artifact
//! compute it once and share the result. Hit/miss/coalesced/eviction
//! counters are tracked per stage and feed the server's `/metrics`
//! endpoint; every lookup also emits a `stage_cache` trace span
//! tagged with the stage and outcome, so a warm what-if run is
//! visibly free of `mna_assembly` / `amg_setup` spans and full of
//! `stage_cache` hits.

use crate::pipeline::PreparedStack;
use crate::stages::{RoughSolution, Stage};
use irf_features::{GeometryMaps, ResistanceMaps};
use irf_pg::{PgStructure, PowerGrid};
use irf_sparse::SolverSetup;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One cached artifact. Every variant is an `Arc`, so hits are
/// refcount bumps, never deep copies.
#[derive(Debug, Clone)]
pub enum StageArtifact {
    /// A parsed design ([`Stage::Parsed`]).
    Parsed(Arc<PowerGrid>),
    /// An assembled MNA system ([`Stage::Assembled`]).
    Assembled(Arc<PgStructure>),
    /// A prepared solver handle ([`Stage::SolverSetup`]).
    Setup(Arc<SolverSetup>),
    /// A truncated rough solve ([`Stage::Rough`]).
    Rough(Arc<RoughSolution>),
    /// Geometry-only structural maps ([`Stage::Structural`]).
    Structural(Arc<GeometryMaps>),
    /// Resistance-dependent structural maps ([`Stage::Resistance`]).
    Resistance(Arc<ResistanceMaps>),
    /// A fully assembled feature stack ([`Stage::Stack`]).
    Stack(Arc<PreparedStack>),
}

impl StageArtifact {
    /// The stage this artifact belongs to.
    #[must_use]
    pub fn stage(&self) -> Stage {
        match self {
            StageArtifact::Parsed(_) => Stage::Parsed,
            StageArtifact::Assembled(_) => Stage::Assembled,
            StageArtifact::Setup(_) => Stage::SolverSetup,
            StageArtifact::Rough(_) => Stage::Rough,
            StageArtifact::Structural(_) => Stage::Structural,
            StageArtifact::Resistance(_) => Stage::Resistance,
            StageArtifact::Stack(_) => Stage::Stack,
        }
    }
}

/// Monotonic per-stage event counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Lookups that found the artifact.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Misses served by another caller's in-flight computation.
    pub coalesced: u64,
    /// Artifacts invalidated by LRU pressure (capacity evictions).
    pub evictions: u64,
}

#[derive(Default)]
struct StageStats {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

type Key = (Stage, u64);

struct LruInner {
    /// (stage, fingerprint) -> (last-use tick, artifact).
    map: HashMap<Key, (u64, StageArtifact)>,
    tick: u64,
}

/// One independently locked slice of the store.
struct Shard {
    inner: Mutex<LruInner>,
    /// Per-stage capacity of this shard.
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            inner: Mutex::new(LruInner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
        }
    }

    fn get(&self, key: Key) -> Option<StageArtifact> {
        // A poisoned lock means some leader panicked mid-operation;
        // the map itself is still structurally sound (every mutation
        // is a single HashMap call), so recover the guard rather than
        // cascading the panic into every waiter.
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(&key).map(|(last, artifact)| {
            *last = tick;
            artifact.clone()
        })
    }

    /// Inserts an artifact; returns `true` when a same-stage entry
    /// was evicted to make room.
    fn insert(&self, key: Key, artifact: StageArtifact) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        let mut evicted = false;
        let stage_len = inner.map.keys().filter(|(s, _)| *s == key.0).count();
        if stage_len >= self.capacity && !inner.map.contains_key(&key) {
            // O(len) scan is fine: shard capacities are small (tens
            // of designs at most), and eviction is off the request
            // fast path. Eviction is per stage, so a burst of stacks
            // never pushes out solver setups.
            if let Some(&victim) = inner
                .map
                .iter()
                .filter(|((s, _), _)| *s == key.0)
                .min_by_key(|(_, (last, _))| *last)
                .map(|(k, _)| k)
            {
                inner.map.remove(&victim);
                evicted = true;
            }
        }
        inner.map.insert(key, (tick, artifact));
        evicted
    }
}

/// Keys currently being computed by [`StageStore::get_or_compute`].
struct InFlight {
    keys: Mutex<HashSet<Key>>,
    done: Condvar,
}

/// Removes `key` from the in-flight set on drop (including panic
/// unwinds of the compute closure) and wakes every waiter.
struct InFlightGuard<'a> {
    inflight: &'a InFlight,
    key: Key,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut keys = self.inflight.keys.lock().unwrap_or_else(|e| e.into_inner());
        keys.remove(&self.key);
        self.inflight.done.notify_all();
    }
}

/// Thread-safe, bounded, content-addressed store of [`StageArtifact`]s
/// keyed by `(stage, fingerprint)`.
///
/// Sharded by fingerprint (`shard = key % n_shards`) so concurrent
/// lookups for different designs do not contend on one mutex;
/// eviction is LRU per stage *per shard*, which approximates global
/// per-stage LRU for the well-mixed FNV fingerprints used as keys.
/// [`StageStore::get_or_compute`] single-flights misses per
/// `(stage, key)` pair: concurrent requests compute the artifact once
/// and share it.
pub struct StageStore {
    shards: Vec<Shard>,
    capacity: usize,
    inflight: InFlight,
    stats: [StageStats; 7],
}

impl fmt::Debug for StageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageStore")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("coalesced", &self.coalesced())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl StageStore {
    /// Creates a store holding at most `capacity` artifacts *per
    /// stage* (minimum 1), sharded across up to 8 locks. "Per stage"
    /// keeps the capacity knob meaning "about this many designs",
    /// exactly as it did for the old feature-stack cache.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        StageStore::with_shards(capacity, capacity.clamp(1, 8))
    }

    /// Creates a store with an explicit shard count (minimum 1 each
    /// for capacity and shards). Per-stage capacity is distributed
    /// evenly; a single shard gives exact global LRU order.
    #[must_use]
    pub fn with_shards(capacity: usize, n_shards: usize) -> Self {
        let capacity = capacity.max(1);
        let n_shards = n_shards.clamp(1, capacity);
        let per_shard = capacity.div_ceil(n_shards);
        StageStore {
            shards: (0..n_shards).map(|_| Shard::new(per_shard)).collect(),
            capacity,
            inflight: InFlight {
                keys: Mutex::new(HashSet::new()),
                done: Condvar::new(),
            },
            stats: Default::default(),
        }
    }

    fn shard(&self, key: Key) -> &Shard {
        &self.shards[(key.1 % self.shards.len() as u64) as usize]
    }

    fn stats(&self, stage: Stage) -> &StageStats {
        &self.stats[stage.index()]
    }

    /// Looks up an artifact, refreshing its recency on a hit.
    #[must_use]
    pub fn get(&self, stage: Stage, key: u64) -> Option<StageArtifact> {
        let mut span = irf_trace::span("stage_cache");
        span.attr("stage", stage.label());
        match self.shard((stage, key)).get((stage, key)) {
            Some(artifact) => {
                self.stats(stage).hits.fetch_add(1, Ordering::Relaxed);
                irf_trace::request::note_cache(true);
                span.attr("outcome", "hit");
                Some(artifact)
            }
            None => {
                self.stats(stage).misses.fetch_add(1, Ordering::Relaxed);
                irf_trace::request::note_cache(false);
                span.attr("outcome", "miss");
                None
            }
        }
    }

    /// Inserts an artifact, evicting the least recently used
    /// same-stage entry of its shard when that shard is full.
    /// Re-inserting an existing key refreshes its value and recency.
    pub fn insert(&self, stage: Stage, key: u64, artifact: StageArtifact) {
        debug_assert_eq!(artifact.stage(), stage, "artifact filed under wrong stage");
        if self.shard((stage, key)).insert((stage, key), artifact) {
            self.stats(stage).evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Returns the cached artifact for `(stage, key)`, computing and
    /// inserting it via `compute` on a miss. Concurrent misses on the
    /// *same* pair are single-flighted: one caller runs `compute`,
    /// the rest block until the result lands and share it (counted as
    /// coalesced). Misses on different pairs compute concurrently.
    ///
    /// If `compute` panics, the panic propagates to its caller and
    /// waiting threads fall back to computing for themselves.
    pub fn get_or_compute(
        &self,
        stage: Stage,
        key: u64,
        compute: impl FnOnce() -> StageArtifact,
    ) -> StageArtifact {
        if let Some(artifact) = self.get(stage, key) {
            return artifact;
        }
        let pair = (stage, key);
        // Claim the pair, or wait for whoever holds it.
        loop {
            let mut keys = self.inflight.keys.lock().unwrap_or_else(|e| e.into_inner());
            if keys.insert(pair) {
                break;
            }
            let mut waited = keys;
            loop {
                waited = self
                    .inflight
                    .done
                    .wait(waited)
                    .unwrap_or_else(|e| e.into_inner());
                if !waited.contains(&pair) {
                    break;
                }
            }
            drop(waited);
            // The leader finished (or unwound). On success the
            // artifact is in the store; otherwise loop back and claim
            // the pair ourselves.
            if let Some(artifact) = self.shard(pair).get(pair) {
                self.stats(stage).coalesced.fetch_add(1, Ordering::Relaxed);
                // The request got the artifact without computing it —
                // a hit from its point of view.
                irf_trace::request::note_cache(true);
                return artifact;
            }
        }
        let _guard = InFlightGuard {
            inflight: &self.inflight,
            key: pair,
        };
        let artifact = compute();
        self.insert(stage, key, artifact.clone());
        artifact
    }

    /// Typed [`Stage::Parsed`] lookup without compute (the parse path
    /// is fallible, so callers parse on miss and
    /// [`StageStore::insert_parsed`] on success).
    #[must_use]
    pub fn get_parsed(&self, key: u64) -> Option<Arc<PowerGrid>> {
        match self.get(Stage::Parsed, key) {
            Some(StageArtifact::Parsed(grid)) => Some(grid),
            _ => None,
        }
    }

    /// Typed [`Stage::Parsed`] insert.
    pub fn insert_parsed(&self, key: u64, grid: Arc<PowerGrid>) {
        self.insert(Stage::Parsed, key, StageArtifact::Parsed(grid));
    }

    /// Typed [`Stage::Assembled`] get-or-compute.
    pub fn assembled(
        &self,
        key: u64,
        compute: impl FnOnce() -> Arc<PgStructure>,
    ) -> Arc<PgStructure> {
        match self.get_or_compute(
            Stage::Assembled,
            key,
            || StageArtifact::Assembled(compute()),
        ) {
            StageArtifact::Assembled(v) => v,
            other => unreachable!("stage key tagged Assembled held {:?}", other.stage()),
        }
    }

    /// Typed [`Stage::SolverSetup`] get-or-compute.
    pub fn solver_setup(
        &self,
        key: u64,
        compute: impl FnOnce() -> Arc<SolverSetup>,
    ) -> Arc<SolverSetup> {
        match self.get_or_compute(Stage::SolverSetup, key, || StageArtifact::Setup(compute())) {
            StageArtifact::Setup(v) => v,
            other => unreachable!("stage key tagged SolverSetup held {:?}", other.stage()),
        }
    }

    /// Typed [`Stage::Rough`] get-or-compute.
    pub fn rough(
        &self,
        key: u64,
        compute: impl FnOnce() -> Arc<RoughSolution>,
    ) -> Arc<RoughSolution> {
        match self.get_or_compute(Stage::Rough, key, || StageArtifact::Rough(compute())) {
            StageArtifact::Rough(v) => v,
            other => unreachable!("stage key tagged Rough held {:?}", other.stage()),
        }
    }

    /// Typed [`Stage::Structural`] get-or-compute (geometry maps).
    pub fn structural(
        &self,
        key: u64,
        compute: impl FnOnce() -> Arc<GeometryMaps>,
    ) -> Arc<GeometryMaps> {
        match self.get_or_compute(Stage::Structural, key, || {
            StageArtifact::Structural(compute())
        }) {
            StageArtifact::Structural(v) => v,
            other => unreachable!("stage key tagged Structural held {:?}", other.stage()),
        }
    }

    /// Typed [`Stage::Resistance`] get-or-compute.
    pub fn resistance(
        &self,
        key: u64,
        compute: impl FnOnce() -> Arc<ResistanceMaps>,
    ) -> Arc<ResistanceMaps> {
        match self.get_or_compute(Stage::Resistance, key, || {
            StageArtifact::Resistance(compute())
        }) {
            StageArtifact::Resistance(v) => v,
            other => unreachable!("stage key tagged Resistance held {:?}", other.stage()),
        }
    }

    /// Non-counting probe: refreshes recency on success but records
    /// neither a hit nor a miss.
    fn peek(&self, stage: Stage, key: u64) -> Option<StageArtifact> {
        self.shard((stage, key)).get((stage, key))
    }

    /// Non-counting probe for a warm [`Stage::Assembled`] artifact —
    /// used by the topology-delta fast path to locate its *base*
    /// system. Refreshes recency on success but records neither a hit
    /// nor a miss: base-artifact probes are opportunistic and must not
    /// distort the per-stage counters the incremental contract is
    /// asserted against.
    #[must_use]
    pub fn peek_assembled(&self, key: u64) -> Option<Arc<PgStructure>> {
        match self.peek(Stage::Assembled, key) {
            Some(StageArtifact::Assembled(v)) => Some(v),
            _ => None,
        }
    }

    /// Non-counting probe for a warm [`Stage::SolverSetup`] artifact —
    /// the base hierarchy a topology edit's AMG setup is rebuilt from;
    /// see [`StageStore::peek_assembled`].
    #[must_use]
    pub fn peek_solver_setup(&self, key: u64) -> Option<Arc<SolverSetup>> {
        match self.peek(Stage::SolverSetup, key) {
            Some(StageArtifact::Setup(v)) => Some(v),
            _ => None,
        }
    }

    /// Non-counting probe for a warm [`Stage::Resistance`] artifact —
    /// the base maps a topology edit refreshes its shortest-path
    /// distances from; see [`StageStore::peek_assembled`].
    #[must_use]
    pub fn peek_resistance(&self, key: u64) -> Option<Arc<ResistanceMaps>> {
        match self.peek(Stage::Resistance, key) {
            Some(StageArtifact::Resistance(v)) => Some(v),
            _ => None,
        }
    }

    /// Typed [`Stage::Stack`] get-or-compute.
    pub fn stack(
        &self,
        key: u64,
        compute: impl FnOnce() -> Arc<PreparedStack>,
    ) -> Arc<PreparedStack> {
        match self.get_or_compute(Stage::Stack, key, || StageArtifact::Stack(compute())) {
            StageArtifact::Stack(v) => v,
            other => unreachable!("stage key tagged Stack held {:?}", other.stage()),
        }
    }

    /// Number of cached artifacts across all stages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.inner.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cached artifacts of one stage.
    #[must_use]
    pub fn stage_len(&self, stage: Stage) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.inner
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .map
                    .keys()
                    .filter(|(st, _)| *st == stage)
                    .count()
            })
            .sum()
    }

    /// Maximum number of cached artifacts per stage.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Event counts for one stage.
    #[must_use]
    pub fn stage_counters(&self, stage: Stage) -> StageCounters {
        let s = self.stats(stage);
        StageCounters {
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            coalesced: s.coalesced.load(Ordering::Relaxed),
            evictions: s.evictions.load(Ordering::Relaxed),
        }
    }

    /// Total lookups that found an artifact, across all stages.
    #[must_use]
    pub fn hits(&self) -> u64 {
        Stage::ALL
            .iter()
            .map(|s| self.stage_counters(*s).hits)
            .sum()
    }

    /// Total lookups that missed, across all stages.
    #[must_use]
    pub fn misses(&self) -> u64 {
        Stage::ALL
            .iter()
            .map(|s| self.stage_counters(*s).misses)
            .sum()
    }

    /// Total computations saved by single-flighting, across stages.
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        Stage::ALL
            .iter()
            .map(|s| self.stage_counters(*s).coalesced)
            .sum()
    }

    /// Total artifacts invalidated by LRU pressure, across stages.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        Stage::ALL
            .iter()
            .map(|s| self.stage_counters(*s).evictions)
            .sum()
    }

    /// Hit fraction in `[0, 1]` (`0.0` before any lookup).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let total = h + self.misses() as f64;
        if total > 0.0 {
            h / total
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> StageArtifact {
        StageArtifact::Stack(Arc::new(PreparedStack {
            fingerprint: 0,
            features: irf_features::FeatureStack::default(),
            rough: irf_pg::GridMap::new(1, 1),
            solve_report: irf_sparse::SolveSummary {
                converged: false,
                iterations: 0,
                residual: 0.0,
                setup_seconds: 0.0,
                solve_seconds: 0.0,
                trace: irf_sparse::cg::ConvergenceTrace::default(),
            },
            solve_seconds: 0.0,
            feature_seconds: 0.0,
        }))
    }

    fn rough(fp: u64) -> StageArtifact {
        StageArtifact::Rough(Arc::new(RoughSolution {
            fingerprint: fp,
            drops: Vec::new(),
            node_of: Arc::from([]),
            report: irf_sparse::SolveSummary {
                converged: false,
                iterations: 0,
                residual: 0.0,
                setup_seconds: 0.0,
                solve_seconds: 0.0,
                trace: irf_sparse::cg::ConvergenceTrace::default(),
            },
            solve_seconds: 0.0,
        }))
    }

    #[test]
    fn lru_evicts_least_recently_used_within_a_stage() {
        // One shard pins exact global LRU order.
        let store = StageStore::with_shards(2, 1);
        store.insert(Stage::Stack, 1, stack());
        store.insert(Stage::Stack, 2, stack());
        assert!(store.get(Stage::Stack, 1).is_some()); // refresh 1; 2 is now LRU
        store.insert(Stage::Stack, 3, stack()); // evicts 2
        assert!(store.get(Stage::Stack, 1).is_some());
        assert!(store.get(Stage::Stack, 2).is_none());
        assert!(store.get(Stage::Stack, 3).is_some());
        assert_eq!(store.stage_len(Stage::Stack), 2);
        assert_eq!(store.stage_counters(Stage::Stack).evictions, 1);
    }

    #[test]
    fn stages_do_not_evict_each_other() {
        let store = StageStore::with_shards(1, 1);
        store.insert(Stage::Stack, 1, stack());
        store.insert(Stage::Rough, 1, rough(1));
        // Both live: capacity is per stage, and identical fingerprints
        // in different stages are distinct keys.
        assert!(store.get(Stage::Stack, 1).is_some());
        assert!(store.get(Stage::Rough, 1).is_some());
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 0);
    }

    #[test]
    fn sharded_store_retrieves_across_shards() {
        let store = StageStore::with_shards(16, 4);
        for key in 0..12u64 {
            store.insert(Stage::Stack, key, stack());
        }
        assert_eq!(store.len(), 12);
        for key in 0..12u64 {
            assert!(store.get(Stage::Stack, key).is_some(), "key {key}");
        }
    }

    #[test]
    fn get_or_compute_single_flights_concurrent_misses() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        let store = Arc::new(StageStore::new(4));
        let computes = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let store = Arc::clone(&store);
                let computes = Arc::clone(&computes);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    store.get_or_compute(Stage::Stack, 42, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough that the
                        // other threads pile up behind it.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        stack()
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "exactly one thread computes"
        );
        // Every other thread is served by the leader's work: normally
        // all 7 coalesce onto the in-flight computation; a thread
        // scheduled late enough can land an ordinary hit instead.
        assert_eq!(
            store.coalesced() + store.hits(),
            7,
            "everyone else shares the leader's result"
        );
        let first = match &results[0] {
            StageArtifact::Stack(s) => Arc::clone(s),
            _ => unreachable!(),
        };
        for r in &results[1..] {
            match r {
                StageArtifact::Stack(s) => {
                    assert!(Arc::ptr_eq(&first, s), "all callers share one artifact");
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn get_or_compute_recovers_from_a_panicking_leader() {
        let store = Arc::new(StageStore::new(4));
        let c2 = Arc::clone(&store);
        let leader = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_compute(Stage::Stack, 7, || panic!("compute failed"))
            }));
            assert!(result.is_err());
        });
        leader.join().unwrap();
        // The key must not be stuck in-flight: a later caller computes.
        let got = store.get_or_compute(Stage::Stack, 7, stack);
        assert!(store.get(Stage::Stack, 7).is_some());
        drop(got);
    }

    #[test]
    fn peeks_find_artifacts_without_touching_the_counters() {
        let store = StageStore::new(4);
        assert!(store.peek_assembled(5).is_none());
        assert!(store.peek_resistance(5).is_none());
        let structure = Arc::new(irf_pg::PgStructure {
            matrix: Arc::new(irf_sparse::CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0)])),
            index_of: Arc::from([Some(0)]),
            node_of: Arc::from([0]),
        });
        store.insert(Stage::Assembled, 5, StageArtifact::Assembled(structure));
        assert!(store.peek_assembled(5).is_some());
        // Wrong-stage key: a peek never cross-reads another stage.
        assert!(store.peek_resistance(5).is_none());
        assert_eq!(store.hits(), 0, "peeks must not count as hits");
        assert_eq!(store.misses(), 0, "peeks must not count as misses");
    }

    #[test]
    fn counters_track_hits_and_misses_per_stage() {
        let store = StageStore::new(4);
        assert!(store.get(Stage::Stack, 9).is_none());
        store.insert(Stage::Stack, 9, stack());
        assert!(store.get(Stage::Stack, 9).is_some());
        assert!(store.get(Stage::Stack, 9).is_some());
        let c = store.stage_counters(Stage::Stack);
        assert_eq!((c.hits, c.misses), (2, 1));
        assert_eq!(store.stage_counters(Stage::Rough), StageCounters::default());
        assert!((store.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
