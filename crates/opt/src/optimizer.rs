//! The closed optimization loop: beam search over candidate plans,
//! batched through the stage-graph [`AnalysisSession`] machinery.
//!
//! Each iteration expands every beam state with its top generated
//! candidates, evaluates the expansions in one batch (model inference
//! when a predictor is attached, the rough numerical map otherwise),
//! pools old and new states, and keeps the Pareto-best `k` by
//! `(worst drop, metal cost, fingerprint)`. Child analyses re-anchor
//! on their parent's warm artifacts — and, when warm-starting is on,
//! seed the rough solve from the *base* design's [`RoughSolution`] —
//! so each evaluation costs a fraction of a cold analysis. The loop is fully
//! deterministic: candidate order, tie-breaking and stopping depend
//! only on (grid, config, seed state), never on thread count or cache
//! contents.

use crate::candidates::{Candidate, CandidateGenerator};
use crate::cost::CostModel;
use ir_fusion::{
    AnalysisSession, EditError, FeatureError, IrFusionPipeline, PreparedStack, RoughSolution,
    TopologyDelta,
};
use irf_pg::{GridMap, PowerGrid};
use std::sync::Arc;

/// Batch evaluation hook: maps prepared stacks to predicted drop maps,
/// one per stack (e.g. the serving layer's model forward). When absent
/// the optimizer scores states by their rough numerical maps.
pub type BatchPredictor<'a> = &'a dyn Fn(&[Arc<PreparedStack>]) -> Vec<GridMap>;

/// Tuning knobs and budgets for one [`Optimizer::run`].
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// The worst-case IR drop (volts) the loop drives toward.
    pub target_max_drop: f64,
    /// Total metal budget; states whose cumulative cost would exceed
    /// it are never evaluated.
    pub metal_budget: f64,
    /// Beam width `k` — how many states survive each iteration.
    pub beam_width: usize,
    /// Hard cap on loop iterations.
    pub max_iterations: usize,
    /// Hard cap on analysis evaluations (the baseline counts as one).
    pub max_evaluations: usize,
    /// How many top candidates each beam state expands per iteration.
    pub candidates_per_state: usize,
    /// Warm-start each child's rough solve from the base design's
    /// [`RoughSolution`] (see
    /// [`AnalysisSession::with_rough_warm_start`]).
    pub warm_start: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            target_max_drop: 0.0,
            metal_budget: f64::INFINITY,
            beam_width: 2,
            max_iterations: 8,
            max_evaluations: 64,
            candidates_per_state: 6,
            warm_start: true,
        }
    }
}

/// Why the loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A state met the drop target; the cheapest such state won.
    TargetMet,
    /// Every remaining candidate would exceed the metal budget.
    BudgetExhausted,
    /// An iteration failed to strictly improve the best worst-drop.
    NoImprovement,
    /// The iteration cap was reached.
    IterationLimit,
    /// The evaluation cap was reached.
    EvaluationLimit,
}

impl StopReason {
    /// Stable lowercase label for reports and metrics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StopReason::TargetMet => "target_met",
            StopReason::BudgetExhausted => "budget_exhausted",
            StopReason::NoImprovement => "no_improvement",
            StopReason::IterationLimit => "iteration_limit",
            StopReason::EvaluationLimit => "evaluation_limit",
        }
    }
}

/// One row of the optimization trajectory: the best state after an
/// iteration's pool-and-prune.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Candidate evaluations spent in this iteration.
    pub evaluated: usize,
    /// Best worst-case drop in the beam after this iteration.
    pub best_max_drop: f64,
    /// Metal cost of that best state.
    pub best_cost: f64,
    /// Untagged design fingerprint of that best state.
    pub best_fingerprint: u64,
    /// Candidate labels applied along that state's path, in order.
    pub best_labels: Vec<String>,
}

/// The winning plan of a run.
#[derive(Debug, Clone)]
pub struct WinnerPlan {
    /// The optimized grid, ready for registration / follow-up what-ifs.
    pub grid: Arc<PowerGrid>,
    /// Every topology delta applied, in application order.
    pub deltas: Vec<TopologyDelta>,
    /// Candidate labels along the winning path, in order.
    pub labels: Vec<String>,
    /// Worst-case drop of the winner under the run's evaluator.
    pub max_drop: f64,
    /// Cumulative metal cost of the winning plan.
    pub metal_cost: f64,
    /// Untagged design fingerprint of the winning grid.
    pub fingerprint: u64,
}

/// Everything [`Optimizer::run`] produces: the winner, the stop
/// condition, and the full per-iteration trajectory.
#[derive(Debug, Clone)]
pub struct OptimizationReport {
    /// Worst-case drop of the unedited base design.
    pub baseline_max_drop: f64,
    /// The configured drop target.
    pub target_max_drop: f64,
    /// The configured metal budget.
    pub metal_budget: f64,
    /// Why the loop stopped.
    pub stop_reason: StopReason,
    /// Whether the winner meets the drop target.
    pub target_met: bool,
    /// Total analysis evaluations spent (baseline included).
    pub evaluations: usize,
    /// Per-iteration best-state records, in order.
    pub trajectory: Vec<IterationRecord>,
    /// The winning plan.
    pub winner: WinnerPlan,
}

impl OptimizationReport {
    /// Order-sensitive checksum over the whole trajectory and the
    /// winner — byte-identical runs produce equal checksums, so this
    /// is what determinism tests and the bench gate assert on.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut words: Vec<u64> = Vec::new();
        for r in &self.trajectory {
            words.push(r.iteration as u64);
            words.push(r.evaluated as u64);
            words.push(r.best_max_drop.to_bits());
            words.push(r.best_cost.to_bits());
            words.push(r.best_fingerprint);
            for l in &r.best_labels {
                words.push(fnv1a(l.as_bytes()));
            }
        }
        words.push(self.winner.fingerprint);
        words.push(self.winner.max_drop.to_bits());
        words.push(self.winner.metal_cost.to_bits());
        words.push(self.evaluations as u64);
        words.push(fnv1a(self.stop_reason.label().as_bytes()));
        words.iter().fold(0u64, |h, &v| h.rotate_left(7) ^ v)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a run aborted (distinct from a normal [`StopReason`] stop).
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizeError {
    /// A generated delta was rejected by edit validation.
    Edit(EditError),
    /// The analysis pipeline rejected the design.
    Feature(FeatureError),
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::Edit(e) => write!(f, "edit rejected: {e}"),
            OptimizeError::Feature(e) => write!(f, "analysis failed: {e}"),
        }
    }
}

impl std::error::Error for OptimizeError {}

impl From<EditError> for OptimizeError {
    fn from(e: EditError) -> Self {
        OptimizeError::Edit(e)
    }
}

impl From<FeatureError> for OptimizeError {
    fn from(e: FeatureError) -> Self {
        OptimizeError::Feature(e)
    }
}

/// One live state of the beam.
struct BeamState {
    grid: Arc<PowerGrid>,
    deltas: Vec<TopologyDelta>,
    labels: Vec<String>,
    cost: f64,
    max_drop: f64,
    fingerprint: u64,
    rough: Arc<RoughSolution>,
}

/// The closed-loop PDN optimizer.
///
/// ```
/// use ir_fusion::{FusionConfig, IrFusionPipeline, StageStore};
/// use irf_data::{synthesize, SynthSpec};
/// use irf_opt::{Optimizer, OptimizerConfig};
/// use irf_pg::PowerGrid;
/// use std::sync::Arc;
///
/// let grid = Arc::new(synthesize(&SynthSpec::default()));
/// let pipeline =
///     IrFusionPipeline::new(FusionConfig::tiny()).with_cache(Arc::new(StageStore::new(64)));
/// let base_drop = f64::from(pipeline.session(Arc::clone(&grid)).prepare()?.rough.max());
/// let report = Optimizer::new(
///     &pipeline,
///     OptimizerConfig {
///         target_max_drop: base_drop * 0.9,
///         metal_budget: 1e6,
///         ..OptimizerConfig::default()
///     },
/// )
/// .run(grid)?;
/// assert!(report.winner.max_drop <= report.baseline_max_drop);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Optimizer<'a> {
    pipeline: &'a IrFusionPipeline,
    config: OptimizerConfig,
    predictor: Option<BatchPredictor<'a>>,
}

impl<'a> Optimizer<'a> {
    /// An optimizer over `pipeline`, generating candidates with
    /// [`CandidateGenerator`] and pricing them with [`CostModel`].
    #[must_use]
    pub fn new(pipeline: &'a IrFusionPipeline, config: OptimizerConfig) -> Self {
        Optimizer {
            pipeline,
            config,
            predictor: None,
        }
    }

    /// Attaches a batch predictor; without one, states are scored by
    /// their rough numerical maps.
    #[must_use]
    pub fn with_predictor(mut self, predictor: BatchPredictor<'a>) -> Self {
        self.predictor = Some(predictor);
        self
    }

    fn evaluate(&self, stacks: &[Arc<PreparedStack>]) -> Vec<f64> {
        match self.predictor {
            Some(p) => p(stacks).iter().map(|m| f64::from(m.max())).collect(),
            None => stacks.iter().map(|s| f64::from(s.rough.max())).collect(),
        }
    }

    fn child_session(
        &self,
        state: &BeamState,
        candidate: &Candidate,
        base_rough: &Arc<RoughSolution>,
    ) -> Result<AnalysisSession<'a>, OptimizeError> {
        let mut session = self
            .pipeline
            .session(Arc::clone(&state.grid))
            .with_topology_deltas(&candidate.deltas)?;
        if self.config.warm_start {
            // Seed from the *root* rough solution, not the parent's:
            // a warm solve may stop as soon as it reaches its seed's
            // residual, so chaining seeds down a beam path would let
            // each generation coast on the last one's answer and
            // under-report its own edit. Anchoring every child to the
            // base keeps the early exit honest — it only fires when
            // the cumulative edit really is small.
            session = session.with_rough_warm_start(Arc::clone(base_rough));
        }
        Ok(session)
    }

    /// Runs the closed loop from `base`, returning the winner and the
    /// full trajectory. Deterministic: two runs with the same base,
    /// config and pipeline produce byte-identical reports at any
    /// thread count and any cache state.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError`] when the base design is unanalyzable
    /// or a generated edit fails validation.
    pub fn run(&self, base: Arc<PowerGrid>) -> Result<OptimizationReport, OptimizeError> {
        let _span = irf_trace::span("optimize");
        let cfg = &self.config;
        let base_session = self.pipeline.session(Arc::clone(&base));
        let base_stack = base_session.prepare()?;
        let base_rough = base_session.rough_solution()?;
        let baseline_max_drop = self.evaluate(std::slice::from_ref(&base_stack))[0];
        let mut evaluations = 1usize;

        let mut beam = vec![BeamState {
            fingerprint: base_session.fingerprint(),
            grid: base,
            deltas: Vec::new(),
            labels: Vec::new(),
            cost: 0.0,
            max_drop: baseline_max_drop,
            rough: Arc::clone(&base_rough),
        }];
        let mut trajectory: Vec<IterationRecord> = Vec::new();
        let mut best_max_drop = baseline_max_drop;
        // All target-meeting states seen so far, for cheapest-winner
        // selection: (cost, fingerprint, beam-state payload).
        let mut met: Vec<BeamState> = Vec::new();
        if baseline_max_drop <= cfg.target_max_drop {
            met.push(clone_state(&beam[0]));
        }

        let mut stop = if met.is_empty() {
            None
        } else {
            Some(StopReason::TargetMet)
        };

        let mut iteration = 0usize;
        while stop.is_none() && iteration < cfg.max_iterations {
            iteration += 1;
            let mut span = irf_trace::span("opt_iteration");
            span.attr("iteration", iteration);

            // Expand every beam state with its affordable top
            // candidates, in deterministic order.
            let mut expansions: Vec<BeamState> = Vec::new();
            let mut stacks: Vec<Arc<PreparedStack>> = Vec::new();
            let mut hit_eval_limit = false;
            let mut over_budget = 0usize;
            'expand: for state in &beam {
                let mut candidates =
                    CandidateGenerator.generate(&state.grid, &state.rough.drops, &CostModel);
                let before = candidates.len();
                candidates.retain(|c| state.cost + c.cost <= cfg.metal_budget);
                over_budget += before - candidates.len();
                candidates.truncate(cfg.candidates_per_state);
                for candidate in &candidates {
                    if evaluations >= cfg.max_evaluations {
                        hit_eval_limit = true;
                        break 'expand;
                    }
                    let session = self.child_session(state, candidate, &base_rough)?;
                    let stack = session.prepare()?;
                    let rough = session.rough_solution()?;
                    evaluations += 1;
                    let mut deltas = state.deltas.clone();
                    deltas.extend_from_slice(&candidate.deltas);
                    let mut labels = state.labels.clone();
                    labels.push(candidate.label.clone());
                    expansions.push(BeamState {
                        fingerprint: session.fingerprint(),
                        grid: Arc::clone(session.grid()),
                        deltas,
                        labels,
                        cost: state.cost + candidate.cost,
                        max_drop: f64::NAN, // filled from the batch below
                        rough,
                    });
                    stacks.push(stack);
                }
            }

            if expansions.is_empty() {
                stop = Some(if hit_eval_limit {
                    StopReason::EvaluationLimit
                } else if over_budget > 0 {
                    StopReason::BudgetExhausted
                } else {
                    StopReason::NoImprovement
                });
                break;
            }

            // One batched evaluation for the whole iteration.
            let evaluated = stacks.len();
            let drops = self.evaluate(&stacks);
            for (state, drop) in expansions.iter_mut().zip(&drops) {
                state.max_drop = *drop;
                if *drop <= cfg.target_max_drop {
                    met.push(clone_state(state));
                }
            }

            // Pool, sort Pareto-first, dedup by design, prune to k.
            let mut pool: Vec<BeamState> = beam.drain(..).chain(expansions).collect();
            pool.sort_by(|a, b| {
                a.max_drop
                    .total_cmp(&b.max_drop)
                    .then(a.cost.total_cmp(&b.cost))
                    .then(a.fingerprint.cmp(&b.fingerprint))
            });
            let mut seen: Vec<u64> = Vec::new();
            pool.retain(|s| {
                if seen.contains(&s.fingerprint) {
                    false
                } else {
                    seen.push(s.fingerprint);
                    true
                }
            });
            pool.truncate(cfg.beam_width.max(1));
            beam = pool;

            let best = &beam[0];
            trajectory.push(IterationRecord {
                iteration,
                evaluated,
                best_max_drop: best.max_drop,
                best_cost: best.cost,
                best_fingerprint: best.fingerprint,
                best_labels: best.labels.clone(),
            });

            if !met.is_empty() {
                stop = Some(StopReason::TargetMet);
            } else if hit_eval_limit {
                stop = Some(StopReason::EvaluationLimit);
            } else if best.max_drop >= best_max_drop {
                stop = Some(StopReason::NoImprovement);
            }
            best_max_drop = best_max_drop.min(best.max_drop);
        }

        let stop_reason = stop.unwrap_or(StopReason::IterationLimit);

        // The winner: cheapest target-meeting state when the loop
        // closed, the Pareto-best beam state otherwise.
        let winner_state = if met.is_empty() {
            clone_state(&beam[0])
        } else {
            met.sort_by(|a, b| {
                a.cost
                    .total_cmp(&b.cost)
                    .then(a.max_drop.total_cmp(&b.max_drop))
                    .then(a.fingerprint.cmp(&b.fingerprint))
            });
            clone_state(&met[0])
        };
        let target_met = winner_state.max_drop <= cfg.target_max_drop;

        Ok(OptimizationReport {
            baseline_max_drop,
            target_max_drop: cfg.target_max_drop,
            metal_budget: cfg.metal_budget,
            stop_reason,
            target_met,
            evaluations,
            trajectory,
            winner: WinnerPlan {
                grid: winner_state.grid,
                deltas: winner_state.deltas,
                labels: winner_state.labels,
                max_drop: winner_state.max_drop,
                metal_cost: winner_state.cost,
                fingerprint: winner_state.fingerprint,
            },
        })
    }
}

fn clone_state(s: &BeamState) -> BeamState {
    BeamState {
        grid: Arc::clone(&s.grid),
        deltas: s.deltas.clone(),
        labels: s.labels.clone(),
        cost: s.cost,
        max_drop: s.max_drop,
        fingerprint: s.fingerprint,
        rough: Arc::clone(&s.rough),
    }
}
