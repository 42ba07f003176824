//! Shortest-path resistance to the voltage sources.
//!
//! This is the costliest structural feature (the
//! `feature/shortest_path_resistance` span dominates `feature_stack`
//! time in traces), so the module is built for parallel reuse:
//!
//! - the adjacency is precomputed once as a CSR [`ResistanceGraph`]
//!   whose edge weights are *resistances* (no per-edge divide inside
//!   the pass's inner loop) and shared immutably by every pass;
//! - each pad's pass borrows a per-thread scratch arena for its
//!   `dist` vector and FIFO work queue (`settle`: no heap unless a pass
//!   spends its budget), so a fan-out allocates O(nodes) once per
//!   worker thread instead of once per pad;
//! - the per-pad passes run as independent tasks on the deterministic
//!   pool, and the partial accumulators are folded in fixed chunk
//!   order ([`irf_runtime::par_reduce`]), so the result is bitwise
//!   identical at any thread count.
//!
//! # Refreshing instead of recomputing
//!
//! A what-if topology edit changes a handful of segment resistances,
//! and most of them sit on nobody's shortest path. [`PadDistances`]
//! keeps the per-pad distance arrays of a *base* grid so that an edit
//! of it pays for what it moves ([`PadDistances::refreshed`]) instead
//! of re-running every pass.
//!
//! Why the bits do not depend on the visiting order, and why the
//! refreshed bits equal a from-scratch pass: a pass computes,
//! per node, the minimum over paths of the left-to-right floating-point
//! sum of the path's resistances. `fl(a + r)` is monotone in `a` and
//! never below `a` for `r >= 0`, which is all Dijkstra's proof needs,
//! so that minimum is what *any* correct label-correcting procedure
//! ends on — there is one answer, and it has one bit pattern. The
//! loop keeps one invariant: a node that is not queued has relaxed
//! every edge at its current label, so when nothing is queued the
//! labels are that minimum. This, and the loop's termination, need
//! finite non-negative weights: the `resistor` check both ingest paths
//! share (`irf_pg::streaming`) rejects anything not finite and positive.
//! The refresh starts from the base array instead of from infinity:
//!
//! 1. every *increased* segment that is tight in the base array
//!    (`fl(d[a] + r_old)` has the bits of `d[b]`, either direction) may
//!    have carried shortest paths, so everything hanging below it
//!    through tight edges is invalidated (an over-approximation —
//!    harmless, the answer is unique) and re-seeded from its
//!    neighbours under the new weights;
//! 2. both endpoints of every *decreased* segment are relaxed;
//! 3. the one pass loop (`settle`, the one the cold pass runs)
//!    propagates from there.
//!
//! What survives untouched is an upper bound some real path of the
//! edited grid attains, and every edge ends relaxed, so the loop ends
//! on the unique answer. A pad whose changes touch more than a fifth
//! of the nodes (`REFRESH_MAX_TOUCHED_SHARE`) runs the plain full pass
//! instead, a pad no change reaches shares the base's array, and the
//! per-node average is re-folded whole by the same `average_per_node`
//! the cold path uses.

use crate::error::FeatureError;
use irf_pg::raster::divide_by_counts;
use irf_pg::{GridMap, PowerGrid, TileTable};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, OnceLock};

/// How many pads the *average* shortest-path computation visits
/// individually before falling back to the single multi-source pass.
const MAX_PADS_FOR_AVERAGE: usize = 32;

/// Share of the nodes one pad's changes may *touch* — nodes invalidated
/// below tight increased segments, plus decreased segments that already
/// beat an endpoint's distance — before that pad runs the plain full
/// pass instead. Both counts are known before anything is re-relaxed
/// (the invalidation walk stops the moment the share is passed), so a
/// hopeless refresh wastes at most this share of one pass.
///
/// Measured on the 91 160-node / 13-pad benchmark base (release, one
/// thread, fall-back disabled; EXPERIMENTS.md "Why the shortest-path
/// pass is FIFO"), per pad as refresh time against one full FIFO pass,
/// median over random m2-strap and via edits: increases touching
/// 10-15 % of the nodes cost 0.48, 15-20 % 0.67, 20-25 % 0.95, 25-30 %
/// 1.25, 40-60 % 2.1 — the full pass is three times cheaper than the
/// heap pass that put the crossing near 45 %. A fifth keeps increases
/// below the full pass. Decreases touch only their improving segments
/// and cost what they move (0.26 at 20-25 % of the distances, 0.77 at
/// 40-60 %, 1.95 past 60 %), which this rule does not see.
const REFRESH_MAX_TOUCHED_SHARE: f64 = 0.2;

/// Pads folded per reduction chunk. Fixed — never derived from the
/// thread count — so the accumulation grouping, and therefore every
/// floating-point sum, is identical at any parallelism.
const PADS_PER_CHUNK: usize = 4;

/// CSR-form bidirectional adjacency with precomputed edge
/// resistances: built once per grid and shared by every concurrent
/// pass. Edge weights come straight from [`Segment::ohms`],
/// dropping the `1.0 / conductance` divide the naive adjacency paid
/// on every edge visit.
///
/// [`Segment::ohms`]: irf_pg::Segment::ohms
#[derive(Debug, Clone)]
pub struct ResistanceGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    resistances: Vec<f64>,
}

impl ResistanceGraph {
    /// Builds the adjacency from the grid's segments. Per node, edges
    /// appear in segment order, matching the `Vec<Vec<_>>` adjacency
    /// this replaces.
    #[must_use]
    pub fn new(grid: &PowerGrid) -> Self {
        let n = grid.nodes.len();
        let mut offsets = vec![0usize; n + 1];
        for s in &grid.segments {
            offsets[s.a + 1] += 1;
            offsets[s.b + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut targets = vec![0u32; offsets[n]];
        let mut resistances = vec![0.0f64; offsets[n]];
        for s in &grid.segments {
            targets[cursor[s.a]] = s.b as u32;
            resistances[cursor[s.a]] = s.ohms;
            cursor[s.a] += 1;
            targets[cursor[s.b]] = s.a as u32;
            resistances[cursor[s.b]] = s.ohms;
            cursor[s.b] += 1;
        }
        ResistanceGraph {
            offsets,
            targets,
            resistances,
        }
    }

    /// Node count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn neighbors(&self, node: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.offsets[node]..self.offsets[node + 1];
        self.targets[range.clone()]
            .iter()
            .zip(&self.resistances[range])
            .map(|(&t, &r)| (t as usize, r))
    }

    /// Relaxes every edge of `node`, handing each neighbour whose label
    /// dropped, with that label, to `improved`.
    fn relax(&self, dist: &mut [f64], node: usize, mut improved: impl FnMut(usize, f64)) {
        let d = dist[node];
        for (next, resistance) in self.neighbors(node) {
            let nd = d + resistance;
            if nd < dist[next] {
                dist[next] = nd;
                improved(next, nd);
            }
        }
    }
}

/// Queue pops a pass may spend per node before [`settle`] escalates to
/// its heap. FIFO pops each node once on every grid this repository
/// generates; resistances spread over decades re-pop each ~100 times.
const FIFO_POPS_PER_NODE: usize = 2;

/// The nodes whose edges are not yet relaxed at their current label:
/// a FIFO queue with an in-queue flag per node (so it never outgrows
/// the node count), and the heap a pass that spends its budget ends on.
#[derive(Default)]
struct Frontier {
    queue: VecDeque<u32>,
    queued: Vec<bool>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Frontier {
    /// Empties the frontier for a pass over `n` nodes.
    fn reset(&mut self, n: usize) {
        self.queue.clear();
        self.queued.clear();
        self.queued.resize(n, false);
        self.heap.clear();
    }

    /// Queues `node` unless it already waits.
    fn push(&mut self, node: usize) {
        if !self.queued[node] {
            self.queued[node] = true;
            self.queue.push_back(node as u32);
        }
    }
}

/// Per-thread scratch arena: the distance vector and frontier are
/// reused across passes on the same worker, so a 32-pad fan-out
/// performs 1-2 large allocations per thread instead of 32.
/// `invalidated` and `marked` serve the refresh: the nodes one pad's
/// increases invalidated, and a per-node flag (source or invalidated)
/// cleared at the start of every pass.
#[derive(Default)]
struct Scratch {
    dist: Vec<f64>,
    frontier: Frontier,
    invalidated: Vec<u32>,
    marked: Vec<bool>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// What one [`settle`] did: nodes popped and relaxed (once per pop),
/// and whether the FIFO budget ran out so the heap finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Settled {
    pops: usize,
    escalated: bool,
}

/// The one shortest-path loop, shared by the cold pass and the refresh
/// (its invariant is in the module docs). It pops in FIFO order
/// (Bellman-Ford-Moore) until the queue empties or `budget` pops are
/// spent; then the still-queued nodes go into a heap, keyed on
/// `f64::to_bits` (which orders non-negative labels as numbers), and
/// the loop finishes label-setting from the current labels, popping
/// each node at most once more.
fn settle(
    graph: &ResistanceGraph,
    dist: &mut [f64],
    frontier: &mut Frontier,
    budget: usize,
) -> Settled {
    let mut pops = 0;
    while pops < budget {
        let Some(node) = frontier.queue.pop_front() else {
            break;
        };
        pops += 1;
        frontier.queued[node as usize] = false;
        graph.relax(dist, node as usize, |next, _| frontier.push(next));
    }
    let escalated = !frontier.queue.is_empty();
    while let Some(node) = frontier.queue.pop_front() {
        frontier.queued[node as usize] = false;
        frontier
            .heap
            .push(Reverse((dist[node as usize].to_bits(), node)));
    }
    while let Some(Reverse((key, node))) = frontier.heap.pop() {
        if key == dist[node as usize].to_bits() {
            pops += 1;
            graph.relax(dist, node as usize, |next, label| {
                frontier.heap.push(Reverse((label.to_bits(), next as u32)));
            });
        }
    }
    Settled { pops, escalated }
}

/// Runs one full pass from `sources` in the calling thread's scratch
/// arena and hands the finished distance slice to `f`
/// (`f64::INFINITY` marks unreachable nodes).
fn full_pass<R>(graph: &ResistanceGraph, sources: &[usize], f: impl FnOnce(&[f64]) -> R) -> R {
    SCRATCH.with(|cell| {
        let Scratch { dist, frontier, .. } = &mut *cell.borrow_mut();
        let n = graph.len();
        dist.clear();
        dist.resize(n, f64::INFINITY);
        frontier.reset(n);
        for &s in sources {
            dist[s] = 0.0;
            frontier.push(s);
        }
        settle(graph, dist, frontier, FIFO_POPS_PER_NODE * n);
        f(dist)
    })
}

/// Adds the passes a caller is about to run to
/// `irf_sp_pad_passes_total`: full passes from a source set actually
/// run (each FIFO, with its heap finish if it escalates), so a
/// multi-source design counts one and a refresh only its fall-backs.
fn count_passes(passes: usize) {
    if passes > 0 {
        irf_trace::registry().counter_add("irf_sp_pad_passes_total", &[], passes as f64);
    }
}

/// The source set of each pass over `grid`: one pass per pad, or one
/// multi-source pass when the pads exceed [`MAX_PADS_FOR_AVERAGE`].
fn pass_sources(grid: &PowerGrid) -> Vec<Vec<usize>> {
    let pads = grid.pads.iter().map(|p| p.node);
    if grid.pads.len() > MAX_PADS_FOR_AVERAGE {
        vec![pads.collect()]
    } else {
        pads.map(|p| vec![p]).collect()
    }
}

/// Shortest paths with edge weight = segment resistance from the given
/// source set; returns per-node cumulative resistance
/// (`f64::INFINITY` for unreachable nodes).
///
/// # Errors
///
/// Returns [`FeatureError::NoPads`] when `sources` is empty.
pub fn resistance_distances(grid: &PowerGrid, sources: &[usize]) -> Result<Vec<f64>, FeatureError> {
    if sources.is_empty() {
        return Err(FeatureError::NoPads);
    }
    let graph = ResistanceGraph::new(grid);
    Ok(full_pass(&graph, sources, <[f64]>::to_vec))
}

/// The paper's shortest-path resistance map: "the average of the
/// cumulative resistance from each node to voltage sources". For each
/// pad we run a resistance-weighted shortest-path pass and average the per-node
/// results; grids with very many pads fall back to the single
/// multi-source (minimum) pass to bound setup cost. Node values are
/// rasterized with per-tile means; unreachable nodes are skipped.
///
/// # Errors
///
/// Returns [`FeatureError::NoPads`] when the grid has no pads.
///
/// # Panics
///
/// Panics if `tiles` was not built from `grid`'s nodes.
pub fn shortest_path_resistance_map(
    grid: &PowerGrid,
    tiles: &TileTable,
) -> Result<GridMap, FeatureError> {
    let values = shortest_path_resistance_per_node(grid)?;
    Ok(rasterize_per_node(&values, tiles))
}

/// Rasterizes precomputed per-node shortest-path values with per-tile
/// means, skipping unreachable (infinite) nodes. Split out so the
/// feature extractor can fan the passes out at top level and
/// rasterize later inside its own task. Always splats the whole die:
/// per-tile `f32` sums depend on the order nodes arrive in, so a
/// refreshed value array is re-splatted whole, never patched.
///
/// # Panics
///
/// Panics if `values.len()` is not the node count `tiles` was built
/// from.
#[must_use]
pub fn rasterize_per_node(values: &[f64], tiles: &TileTable) -> GridMap {
    let tile = tiles.tiles();
    assert_eq!(values.len(), tile.len(), "one value per node");
    let raster = tiles.raster();
    let mut sum = GridMap::new(raster.width(), raster.height());
    let data = sum.data_mut();
    let mut count = vec![0f32; data.len()];
    for (&t, &v) in tile.iter().zip(values) {
        if v.is_finite() {
            data[t as usize] += v as f32;
            count[t as usize] += 1.0;
        }
    }
    divide_by_counts(data, &count);
    sum
}

/// The one per-node fold: the average over `pads` distance arrays of
/// `n` nodes each, `f64::INFINITY` where no pad reaches. `visit(p,
/// sink)` hands pad `p`'s array to `sink` exactly once — the cold path
/// runs the pass there, the refresh reads a stored array — and the
/// summation order is pinned either way: chunks of [`PADS_PER_CHUNK`]
/// summed from zero in pad order, chunks folded left to right.
fn average_per_node(
    n: usize,
    pads: usize,
    visit: impl Fn(usize, &mut dyn FnMut(&[f64])) + Sync,
) -> Vec<f64> {
    let (acc, reachable) = irf_runtime::par_reduce(
        pads,
        PADS_PER_CHUNK,
        (vec![0.0f64; n], vec![0u32; n]),
        |chunk| {
            let mut acc = vec![0.0f64; n];
            let mut reachable = vec![0u32; n];
            for pad in chunk {
                visit(pad, &mut |dist| {
                    for ((a, r), &d) in acc.iter_mut().zip(reachable.iter_mut()).zip(dist) {
                        if d.is_finite() {
                            *a += d;
                            *r += 1;
                        }
                    }
                });
            }
            (acc, reachable)
        },
        |(mut acc, mut reachable), (acc_p, reachable_p)| {
            // In-order elementwise merge; the sums stay nonnegative,
            // so folding into the zero init is bit-exact.
            for (a, b) in acc.iter_mut().zip(&acc_p) {
                *a += b;
            }
            for (a, b) in reachable.iter_mut().zip(&reachable_p) {
                *a += b;
            }
            (acc, reachable)
        },
    );
    acc.iter()
        .zip(&reachable)
        .map(|(&a, &r)| {
            if r > 0 {
                a / f64::from(r)
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Per-node average shortest-path resistance (see
/// [`shortest_path_resistance_map`]). The per-pad passes fan out
/// across the deterministic pool; the partial accumulators are folded
/// in fixed chunk order, so the result is bitwise identical at any
/// thread count. Holds at most `PADS_PER_CHUNK` partial sums per
/// worker and no per-pad array — a cold analysis retains none of the
/// state [`PadDistances`] keeps for a base.
///
/// # Errors
///
/// Returns [`FeatureError::NoPads`] when the grid has no pads.
pub fn shortest_path_resistance_per_node(grid: &PowerGrid) -> Result<Vec<f64>, FeatureError> {
    if grid.pads.is_empty() {
        return Err(FeatureError::NoPads);
    }
    let graph = ResistanceGraph::new(grid);
    let sources = pass_sources(grid);
    count_passes(sources.len());
    if let [all_pads] = sources.as_slice() {
        // One pass — multi-source, or a one-pad design — is its own
        // average: `(0 + d) / 1` has the bits of `d`.
        return Ok(full_pass(&graph, all_pads, <[f64]>::to_vec));
    }
    Ok(average_per_node(graph.len(), sources.len(), |pad, sink| {
        full_pass(&graph, &sources[pad], sink);
    }))
}

/// One segment whose resistance differs, bit for bit, between a base
/// grid and an edit of it.
#[derive(Debug, Clone, Copy)]
struct SegmentChange {
    a: usize,
    b: usize,
    old: f64,
    new: f64,
}

/// The segments whose `ohms` differ between `base` and `edited`, or
/// `None` when the two grids differ in anything else the resistance
/// maps depend on (the node table, segment endpoints, pad nodes) — then
/// nothing of the base can be refreshed. An edit made on a clone shares
/// the base's node table, which makes that comparison one pointer.
fn changed_segments(base: &PowerGrid, edited: &PowerGrid) -> Option<Vec<SegmentChange>> {
    let same_shape = base.nodes == edited.nodes
        && base.segments.len() == edited.segments.len()
        && base.pads.len() == edited.pads.len()
        && base
            .pads
            .iter()
            .zip(&edited.pads)
            .all(|(p, q)| p.node == q.node);
    if !same_shape {
        return None;
    }
    let mut changes = Vec::new();
    for (old, new) in base.segments.iter().zip(&edited.segments) {
        if (old.a, old.b) != (new.a, new.b) {
            return None;
        }
        if old.ohms.to_bits() != new.ohms.to_bits() {
            changes.push(SegmentChange {
                a: old.a,
                b: old.b,
                old: old.ohms,
                new: new.ohms,
            });
        }
    }
    Some(changes)
}

/// What one [`PadDistances::refreshed`] call did — the attributes of
/// the `feature/shortest_path_resistance` span that say why an edit
/// was cheap (or was not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Segments whose `ohms` differ from the base's, bit for bit.
    pub changed_segments: usize,
    /// Nodes the pass loop popped again, summed over the refreshed
    /// pads (a node popped twice counts twice; a full pass pops every
    /// reachable node, and those are not counted here).
    pub settled: usize,
    /// Pads whose invalidated set passed the fall-back share and ran
    /// the plain full pass.
    pub full_passes: usize,
}

/// The outcome of one pad's refresh.
enum PadRefresh {
    /// No change reaches this pad's distances: share the base's array.
    Unchanged,
    /// The refreshed array, and how many nodes were settled again.
    Refreshed(Vec<f64>, usize),
    /// The changes reach past the fall-back share of the nodes: run
    /// the plain full pass over the edited grid.
    Hopeless,
}

/// The adjacency of the base and of the edited grid, each built when
/// the first pad needs it: an edit no pad feels builds neither, one
/// with only decreases never builds the base's.
struct RefreshGraphs<'a> {
    base: &'a PowerGrid,
    edited: &'a PowerGrid,
    base_graph: OnceLock<ResistanceGraph>,
    edited_graph: OnceLock<ResistanceGraph>,
}

impl RefreshGraphs<'_> {
    fn base_graph(&self) -> &ResistanceGraph {
        self.base_graph
            .get_or_init(|| ResistanceGraph::new(self.base))
    }

    fn edited_graph(&self) -> &ResistanceGraph {
        self.edited_graph
            .get_or_init(|| ResistanceGraph::new(self.edited))
    }
}

/// Refreshes one pass's distance array `base` (computed on the base
/// grid, from `sources`) to the weights of the edited grid; see the
/// module docs for why the result has the bits of a full pass.
fn refresh_pass(
    graphs: &RefreshGraphs<'_>,
    changes: &[SegmentChange],
    sources: &[usize],
    base: &[f64],
) -> PadRefresh {
    SCRATCH.with(|cell| {
        let Scratch {
            frontier,
            invalidated,
            marked,
            ..
        } = &mut *cell.borrow_mut();
        let n = base.len();
        marked.clear();
        marked.resize(n, false);
        invalidated.clear();

        // Sources keep distance zero whatever the weights are.
        for &s in sources {
            marked[s] = true;
        }
        // Heads of tight increased segments: their distance may have
        // come through the segment (unreachable endpoints, infinite on
        // both sides of any edge, have nothing to lose). Decreased
        // segments that already beat an endpoint's distance.
        let mut improving = 0;
        for c in changes {
            let (da, db) = (base[c.a], base[c.b]);
            if c.new > c.old {
                if da.is_finite() {
                    for (from, to) in [(da, c.b), (db, c.a)] {
                        if from + c.old == base[to] && !marked[to] {
                            marked[to] = true;
                            invalidated.push(to as u32);
                        }
                    }
                }
            } else if da + c.new < db || db + c.new < da {
                improving += 1;
            }
        }
        // Everything hanging below a head through edges tight in the
        // base array; `invalidated` doubles as the work list. The walk
        // stops as soon as the fall-back share is passed.
        let limit = (n as f64 * REFRESH_MAX_TOUCHED_SHARE) as usize;
        if !invalidated.is_empty() {
            let old = graphs.base_graph();
            let mut next = 0;
            while next < invalidated.len() && invalidated.len() + improving <= limit {
                let v = invalidated[next] as usize;
                next += 1;
                for (w, resistance) in old.neighbors(v) {
                    if !marked[w] && base[v] + resistance == base[w] {
                        marked[w] = true;
                        invalidated.push(w as u32);
                    }
                }
            }
        }
        if invalidated.is_empty() && improving == 0 {
            return PadRefresh::Unchanged;
        }
        if invalidated.len() + improving > limit {
            return PadRefresh::Hopeless;
        }

        let new = graphs.edited_graph();
        frontier.reset(n);
        let mut dist = base.to_vec();
        for &v in invalidated.iter() {
            dist[v as usize] = f64::INFINITY;
        }
        // Re-seed each invalidated node from its neighbours under the
        // new weights (still-invalid neighbours are infinite and drop
        // out; re-seeded ones are as good a bound as survivors).
        for &v in invalidated.iter() {
            let v = v as usize;
            let best = new
                .neighbors(v)
                .map(|(u, resistance)| dist[u] + resistance)
                .fold(f64::INFINITY, f64::min);
            if best < f64::INFINITY {
                dist[v] = best;
                frontier.push(v);
            }
        }
        for c in changes.iter().filter(|c| c.new < c.old) {
            for (from, to) in [(c.a, c.b), (c.b, c.a)] {
                let nd = dist[from] + c.new;
                if nd < dist[to] {
                    dist[to] = nd;
                    frontier.push(to);
                }
            }
        }
        let settled = settle(new, &mut dist, frontier, FIFO_POPS_PER_NODE * n);
        PadRefresh::Refreshed(dist, settled.pops)
    })
}

/// The per-pad distance arrays of one grid: the state a topology edit
/// refreshes instead of re-running every pass. One array per
/// pad, or a single array when the pads exceed the per-pad limit and
/// the multi-source pass ran. `pads x nodes x 8` bytes — kept for a
/// *base* design once an edit of it asks, never by a cold analysis.
#[derive(Clone)]
pub struct PadDistances {
    passes: Vec<Arc<[f64]>>,
}

impl std::fmt::Debug for PadDistances {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PadDistances")
            .field("passes", &self.passes.len())
            .field("nodes", &self.passes.first().map_or(0, |p| p.len()))
            .finish()
    }
}

impl PadDistances {
    /// Runs every pass over `grid` and keeps the arrays.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::NoPads`] when the grid has no pads.
    pub fn compute(grid: &PowerGrid) -> Result<Self, FeatureError> {
        if grid.pads.is_empty() {
            return Err(FeatureError::NoPads);
        }
        let graph = ResistanceGraph::new(grid);
        let sources = pass_sources(grid);
        count_passes(sources.len());
        let tasks: Vec<_> = sources
            .iter()
            .map(|s| {
                let graph = &graph;
                move || full_pass(graph, s, |dist| Arc::<[f64]>::from(dist))
            })
            .collect();
        Ok(PadDistances {
            passes: irf_runtime::par_map(tasks),
        })
    }

    /// The distance array of each pass, in pad order (one array for a
    /// multi-source design).
    pub fn passes(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.passes.iter().map(|p| &**p)
    }

    /// The per-node average of the arrays — the bits
    /// [`shortest_path_resistance_per_node`] returns for the grid they
    /// belong to.
    #[must_use]
    pub fn per_node(&self) -> Vec<f64> {
        match self.passes.as_slice() {
            [single] => single.to_vec(),
            passes => average_per_node(passes[0].len(), passes.len(), |pad, sink| {
                sink(&passes[pad]);
            }),
        }
    }

    /// `true` when every array is the very allocation `other` holds —
    /// what [`PadDistances::refreshed`] returns when the edit moved no
    /// distance of any pad, so everything derived from `other`'s arrays
    /// still stands.
    #[must_use]
    pub fn shares_every_pass_with(&self, other: &PadDistances) -> bool {
        self.passes.len() == other.passes.len()
            && self
                .passes
                .iter()
                .zip(&other.passes)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// The arrays of `edited`, an `ohms`-only edit of `base`, refreshed
    /// from these (which must be `base`'s): every array has the bits a
    /// full pass over `edited` computes. Pads no change reaches share
    /// their array with `self`; `self` is never written.
    ///
    /// Returns `None` when `edited` differs from `base` in more than
    /// segment resistances (or these arrays do not fit `base`) — the
    /// caller then computes from scratch.
    #[must_use]
    pub fn refreshed(
        &self,
        base: &PowerGrid,
        edited: &PowerGrid,
    ) -> Option<(PadDistances, RefreshStats)> {
        let sources = pass_sources(base);
        let fits = sources.len() == self.passes.len()
            && self.passes.iter().all(|p| p.len() == base.nodes.len());
        if !fits {
            return None;
        }
        let changes = changed_segments(base, edited)?;
        let mut stats = RefreshStats {
            changed_segments: changes.len(),
            ..RefreshStats::default()
        };
        if changes.is_empty() {
            return Some((self.clone(), stats));
        }
        let graphs = RefreshGraphs {
            base,
            edited,
            base_graph: OnceLock::new(),
            edited_graph: OnceLock::new(),
        };
        // Per pad: the array, nodes settled again, full passes run.
        let tasks: Vec<_> = sources
            .iter()
            .zip(&self.passes)
            .map(|(s, dist)| {
                let (graphs, changes) = (&graphs, &changes);
                move || match refresh_pass(graphs, changes, s, dist) {
                    PadRefresh::Unchanged => (Arc::clone(dist), 0, 0),
                    PadRefresh::Refreshed(dist, settled) => (dist.into(), settled, 0),
                    PadRefresh::Hopeless => {
                        let graph = graphs.edited_graph();
                        (full_pass(graph, s, |d| Arc::<[f64]>::from(d)), 0, 1)
                    }
                }
            })
            .collect();
        let passes = irf_runtime::par_map(tasks)
            .into_iter()
            .map(|(dist, settled, full_passes)| {
                stats.settled += settled;
                stats.full_passes += full_passes;
                dist
            })
            .collect();
        count_passes(stats.full_passes);
        Some((PadDistances { passes }, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irf_pg::grid_from_spice_reader;

    /// pad --0.5-- a --0.5-- b, plus a second pad at b's far side.
    fn chain() -> PowerGrid {
        let src = "\
V1 p 0 1.0
R1 p a 0.5
R2 a b 0.5
I1 b 0 1m
";
        grid_from_spice_reader(src.as_bytes()).unwrap()
    }

    #[test]
    fn distances_accumulate_resistance() {
        let g = chain();
        let pad = g.pads[0].node;
        let d = resistance_distances(&g, &[pad]).unwrap();
        // node order: p, a, b
        assert_eq!(d[pad], 0.0);
        assert!((d[1] - 0.5).abs() < 1e-12);
        assert!((d[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unreachable_nodes_are_infinite() {
        let src = "V1 p 0 1.0\nR1 p a 1.0\nR2 x y 1.0\nI1 a 0 1m\n";
        let g = grid_from_spice_reader(src.as_bytes()).unwrap();
        let d = resistance_distances(&g, &[g.pads[0].node]).unwrap();
        assert!(d.iter().filter(|v| !v.is_finite()).count() == 2);
    }

    #[test]
    fn average_over_two_pads() {
        let src = "\
V1 p 0 1.0
V2 q 0 1.0
R1 p a 1.0
R2 a q 3.0
I1 a 0 1m
";
        let g = grid_from_spice_reader(src.as_bytes()).unwrap();
        let v = shortest_path_resistance_per_node(&g).unwrap();
        // node a: 1.0 from p, 3.0 from q -> average 2.0.
        let a_idx = g
            .nodes
            .iter()
            .position(|n| n.name == "a")
            .expect("node a exists");
        assert!((v[a_idx] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn map_rasterizes_reachable_nodes() {
        let g = chain();
        let m = shortest_path_resistance_map(&g, &TileTable::new(&g, 1, 1)).unwrap();
        // Mean of 0.0, 0.5, 1.0.
        assert!((f64::from(m.get(0, 0)) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn shortest_path_prefers_low_resistance_route() {
        // Two routes from pad to t: direct 5 ohm, detour 1+1 = 2 ohm.
        let src = "\
V1 p 0 1.0
R1 p t 5.0
R2 p m 1.0
R3 m t 1.0
I1 t 0 1m
";
        let g = grid_from_spice_reader(src.as_bytes()).unwrap();
        let d = resistance_distances(&g, &[g.pads[0].node]).unwrap();
        let t_idx = g.nodes.iter().position(|n| n.name == "t").unwrap();
        assert!((d[t_idx] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn padless_grid_is_an_error_not_a_panic() {
        let g = PowerGrid::default();
        assert_eq!(
            shortest_path_resistance_per_node(&g),
            Err(FeatureError::NoPads)
        );
        assert_eq!(resistance_distances(&g, &[]), Err(FeatureError::NoPads));
        assert_eq!(
            shortest_path_resistance_map(&g, &TileTable::new(&g, 1, 1)),
            Err(FeatureError::NoPads)
        );
    }

    #[test]
    fn csr_graph_matches_the_naive_adjacency() {
        let g = chain();
        let graph = ResistanceGraph::new(&g);
        let naive = g.adjacency();
        assert_eq!(graph.len(), g.nodes.len());
        for (node, edges) in naive.iter().enumerate() {
            let got: Vec<usize> = graph.neighbors(node).map(|(t, _)| t).collect();
            let want: Vec<usize> = edges.iter().map(|&(t, _)| t).collect();
            assert_eq!(got, want, "edge order at node {node}");
            for ((_, r), &(_, cond)) in graph.neighbors(node).zip(edges) {
                assert!((r - 1.0 / cond).abs() < 1e-15);
            }
        }
    }

    /// One pass of [`settle`] from `sources` on its own frontier, with
    /// the given pop budget.
    fn pass(graph: &ResistanceGraph, sources: &[usize], budget: usize) -> (Vec<f64>, Settled) {
        let mut dist = vec![f64::INFINITY; graph.len()];
        let mut frontier = Frontier::default();
        frontier.reset(graph.len());
        for &s in sources {
            dist[s] = 0.0;
            frontier.push(s);
        }
        let settled = settle(graph, &mut dist, &mut frontier, budget);
        (dist, settled)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A `side x side` mesh, one pad in a corner, every resistance
    /// log-uniform over `decades` decades above 10 mOhm.
    fn decade_mesh(side: usize, decades: f64, seed: u64) -> PowerGrid {
        let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(seed);
        let mut src = String::from("V1 n0_0 0 1.0\n");
        let mut k = 0;
        for y in 0..side {
            for x in 0..side {
                for (nx, ny) in [(x + 1, y), (x, y + 1)] {
                    if nx < side && ny < side {
                        let ohms = 0.01 * 10f64.powf(decades * rng.random::<f64>());
                        src.push_str(&format!("R{k} n{x}_{y} n{nx}_{ny} {ohms:e}\n"));
                        k += 1;
                    }
                }
            }
        }
        grid_from_spice_reader(src.as_bytes()).unwrap()
    }

    #[test]
    fn fifo_pass_pops_each_node_once_on_a_synthetic_grid() {
        use irf_data::synth::{synthesize, SynthSpec};
        let g = synthesize(&SynthSpec::scaled_to_nodes(4000, 5));
        let graph = ResistanceGraph::new(&g);
        let n = graph.len();
        let pads: Vec<usize> = g.pads.iter().map(|p| p.node).collect();
        for &pad in &pads {
            let (dist, settled) = pass(&graph, &[pad], FIFO_POPS_PER_NODE * n);
            assert!(dist.iter().all(|d| d.is_finite()), "every node reachable");
            let once = Settled {
                pops: n,
                escalated: false,
            };
            assert_eq!(settled, once, "pad {pad}");
        }
        // Waves from several sources cross, so a multi-source pass
        // re-pops some nodes, but stays well inside the budget.
        let (_, settled) = pass(&graph, &pads, FIFO_POPS_PER_NODE * n);
        assert!(
            !settled.escalated && settled.pops < n + n / 4,
            "{settled:?}"
        );
    }

    #[test]
    fn a_decade_spread_mesh_escalates_and_keeps_the_bits() {
        let g = decade_mesh(40, 6.0, 11);
        let graph = ResistanceGraph::new(&g);
        let (n, pad) = (graph.len(), g.pads[0].node);
        let (shipped, settled) = pass(&graph, &[pad], FIFO_POPS_PER_NODE * n);
        assert!(settled.escalated, "{settled:?}");
        // The heap finish pops each node at most once more.
        assert!(settled.pops <= (FIFO_POPS_PER_NODE + 1) * n, "{settled:?}");
        let (heap_only, _) = pass(&graph, &[pad], 0);
        assert_eq!(bits(&shipped), bits(&heap_only));
        let (fifo_only, unbounded) = pass(&graph, &[pad], usize::MAX);
        assert!(!unbounded.escalated && unbounded.pops > settled.pops);
        assert_eq!(bits(&shipped), bits(&fifo_only));
        let mut cold = Vec::new();
        full_pass(&graph, &[pad], |d| cold.extend_from_slice(d));
        assert_eq!(bits(&shipped), bits(&cold));
    }

    #[test]
    fn fanout_matches_serial_accumulation_for_many_pads() {
        // 9 pads -> 3 reduction chunks; the averaged result must agree
        // with a plain serial per-pad loop to strict tolerance.
        let mut src = String::new();
        for i in 0..9 {
            src.push_str(&format!("V{i} p{i} 0 1.0\n"));
            src.push_str(&format!("R{i} p{i} mid {}\n", 0.25 * (i + 1) as f64));
        }
        src.push_str("Rl mid t 0.5\nI1 t 0 1m\n");
        let g = grid_from_spice_reader(src.as_bytes()).unwrap();
        let fanned = shortest_path_resistance_per_node(&g).unwrap();
        let mut acc = vec![0.0; g.nodes.len()];
        for pad in &g.pads {
            let d = resistance_distances(&g, &[pad.node]).unwrap();
            for (a, di) in acc.iter_mut().zip(&d) {
                *a += di;
            }
        }
        for (f, a) in fanned.iter().zip(&acc) {
            assert!((f - a / 9.0).abs() < 1e-12);
        }
    }
}
