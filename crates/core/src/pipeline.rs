//! The end-to-end analysis pipeline: parse -> rough solve -> feature
//! fusion -> model inference, decomposed into the stage graph of
//! [`crate::stages`] and cached per stage in a [`StageStore`].

use crate::config::FusionConfig;
use crate::stages::{
    apply_topology_deltas, conductance_fingerprint, currents_fingerprint, design_fingerprint,
    warm_stage_fingerprint, EditError, KeyParts, Prediction, RoughSolution, StagePlan,
    TopologyDelta,
};
use crate::store::StageStore;
use crate::train::TrainedModel;
use irf_data::golden::golden_drops;
use irf_data::Design;
use irf_features::{FeatureError, FeatureExtractor, FeatureStack};
use irf_nn::{Tape, Tensor};
use irf_pg::{GridMap, Load, PgStructure, PowerGrid};
use irf_sparse::{SolveReport, SolveSummary, Solver, SolverSetup};
use irf_trace::timed;
use std::sync::Arc;
use std::time::Instant;

/// A design prepared up to (but excluding) the golden label: feature
/// stack, rough numerical map, and the summary of the solve behind it
/// (its scalars and residual history; the solution vector stays with
/// the [`RoughSolution`]).
///
/// This is the label-free unit of work the [`StageStore`] stores under
/// [`crate::stages::Stage::Stack`] and the serving layer batches:
/// everything needed for inference, nothing that requires the golden
/// solution.
#[derive(Debug, Clone)]
pub struct PreparedStack {
    /// The [`design_fingerprint`] this stack was prepared under — the
    /// key it lives under in the stage store.
    pub fingerprint: u64,
    /// Extracted feature maps.
    pub features: FeatureStack,
    /// Rough bottom-layer drop map from the truncated solve (volts).
    pub rough: GridMap,
    /// Summary of the truncated solve.
    pub solve_report: SolveSummary,
    /// Seconds spent in the truncated numerical solve.
    pub solve_seconds: f64,
    /// Seconds spent extracting features.
    pub feature_seconds: f64,
}

impl PreparedStack {
    /// Features as a `(1, C, H, W)` tensor.
    #[must_use]
    pub fn feature_tensor(&self) -> Tensor {
        let (c, h, w, data) = self.features.to_nchw();
        Tensor::from_vec([1, c, h, w], data)
    }
}

/// A design prepared for training or inference: feature stack plus
/// golden label map.
#[derive(Debug, Clone)]
pub struct PreparedSample {
    /// Extracted feature maps.
    pub features: FeatureStack,
    /// Golden bottom-layer drop map (volts).
    pub label: GridMap,
    /// Rough bottom-layer drop map from the truncated solve (volts) —
    /// the base the residual fusion corrects.
    pub rough: GridMap,
    /// Seconds spent in the truncated numerical solve.
    pub solve_seconds: f64,
    /// Seconds spent extracting features.
    pub feature_seconds: f64,
}

impl PreparedSample {
    /// Rotated copy (augmentation).
    #[must_use]
    pub fn rotated(&self, quarters: u32) -> PreparedSample {
        PreparedSample {
            features: self.features.rotated(quarters),
            label: self.label.rotated(quarters),
            rough: self.rough.rotated(quarters),
            solve_seconds: self.solve_seconds,
            feature_seconds: self.feature_seconds,
        }
    }

    /// Features as a `(1, C, H, W)` tensor.
    #[must_use]
    pub fn feature_tensor(&self) -> Tensor {
        let (c, h, w, data) = self.features.to_nchw();
        Tensor::from_vec([1, c, h, w], data)
    }

    /// Label as a `(1, 1, H, W)` tensor, scaled by `scale`.
    #[must_use]
    pub fn label_tensor(&self, scale: f32) -> Tensor {
        let data = self.label.data().iter().map(|v| v * scale).collect();
        Tensor::from_vec([1, 1, self.label.height(), self.label.width()], data)
    }

    /// Residual target `(label - rough) * scale` as a `(1, 1, H, W)`
    /// tensor — what the fusion model learns to predict.
    #[must_use]
    pub fn residual_tensor(&self, scale: f32) -> Tensor {
        let data = self
            .label
            .data()
            .iter()
            .zip(self.rough.data())
            .map(|(l, r)| (l - r) * scale)
            .collect();
        Tensor::from_vec([1, 1, self.label.height(), self.label.width()], data)
    }
}

/// Result of one full analysis.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The rough numerical drop map (bottom layer) after the truncated
    /// solve — what a pure numerical flow at the same budget reports.
    pub rough_map: GridMap,
    /// The model-refined prediction, if a trained model was supplied.
    pub fused_map: Option<GridMap>,
    /// Summary of the truncated solve.
    pub solve_report: SolveSummary,
    /// Total wall-clock seconds (solve + features + inference).
    pub runtime_seconds: f64,
}

/// How a [`FeatureStackBuilder`] or [`AnalysisSession`] interacts
/// with the pipeline's attached [`StageStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Use the attached cache (single-flighted); a plain uncached
    /// preparation when none is attached.
    #[default]
    Shared,
    /// Always prepare fresh, never reading or populating the cache.
    Bypass,
}

/// Errors from the streaming preparation front door
/// ([`FeatureStackBuilder::prepare_spice_path`]): everything the
/// ingest half can raise (I/O, parse, grid modeling) plus the
/// downstream feature errors of the shared prepare path.
#[derive(Debug)]
pub enum StreamPrepareError {
    /// Reading, parsing, or modeling the SPICE file failed.
    Ingest(irf_pg::IngestError),
    /// The ingested grid was rejected by feature extraction.
    Feature(FeatureError),
}

impl std::fmt::Display for StreamPrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamPrepareError::Ingest(e) => write!(f, "streaming ingest failed: {e}"),
            StreamPrepareError::Feature(e) => write!(f, "feature extraction failed: {e}"),
        }
    }
}

impl std::error::Error for StreamPrepareError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamPrepareError::Ingest(e) => Some(e),
            StreamPrepareError::Feature(e) => Some(e),
        }
    }
}

impl From<irf_pg::IngestError> for StreamPrepareError {
    fn from(e: irf_pg::IngestError) -> Self {
        StreamPrepareError::Ingest(e)
    }
}

impl From<FeatureError> for StreamPrepareError {
    fn from(e: FeatureError) -> Self {
        StreamPrepareError::Feature(e)
    }
}

/// The accumulated edits of an [`AnalysisSession`] relative to its
/// base design, plus the base artifacts a topology-delta walk can
/// rebuild from.
///
/// Current deltas leave every topology-keyed fingerprint intact, so
/// they need no base hints — the warm artifacts are found under the
/// *same* keys. Topology deltas (strap/via/segment resistance edits)
/// change the assembled, solver-setup and resistance keys; the plan
/// remembers the grid and the keys those artifacts lived under
/// *before the first topology edit* so [`IrFusionPipeline`] can
/// re-stamp the edited conductances into the base CSR
/// ([`PgStructure::restamped`]) and refresh the per-pad shortest-path
/// distances from the base's
/// ([`FeatureExtractor::resistance_maps_from_base`]) instead of
/// computing either from scratch. The AMG setup of the re-stamped
/// matrix is rebuilt from the base's ([`irf_sparse::Solver::rebuild_from`]):
/// every level whose pairings provably still hold is carried over, and
/// only the coarse rows the edit touched are summed again. Chained
/// topology edits keep the original base hints: the base is the last
/// design that went through a full (or cached) assembly, and a
/// chain's diff against it is the union of its edits.
#[derive(Debug, Clone, Default)]
pub struct EditPlan {
    current_deltas: Vec<(usize, f64)>,
    topology_deltas: Vec<TopologyDelta>,
    /// The grid before the first topology delta, and its key plan.
    base: Option<(Arc<PowerGrid>, StagePlan)>,
    rough_seed: Option<Arc<RoughSolution>>,
}

impl EditPlan {
    /// Per-cell current deltas recorded so far (`(node, amps)` pairs).
    #[must_use]
    pub fn current_deltas(&self) -> &[(usize, f64)] {
        &self.current_deltas
    }

    /// Topology deltas recorded so far, in application order.
    #[must_use]
    pub fn topology_deltas(&self) -> &[TopologyDelta] {
        &self.topology_deltas
    }

    /// The [`crate::stages::Stage::Assembled`] key of the pre-edit
    /// base, once a topology delta has been recorded.
    #[must_use]
    pub fn base_assembled(&self) -> Option<u64> {
        self.base.as_ref().map(|(_, plan)| plan.assembled)
    }

    /// The [`crate::stages::Stage::SolverSetup`] key of the pre-edit
    /// base, once a topology delta has been recorded.
    #[must_use]
    pub fn base_solver_setup(&self) -> Option<u64> {
        self.base.as_ref().map(|(_, plan)| plan.solver_setup)
    }

    /// The [`crate::stages::Stage::Resistance`] key of the pre-edit
    /// base, once a topology delta has been recorded.
    #[must_use]
    pub fn base_resistance(&self) -> Option<u64> {
        self.base.as_ref().map(|(_, plan)| plan.resistance)
    }

    /// The base [`RoughSolution`] the rough solve is seeded from, when
    /// warm-starting was opted into via
    /// [`AnalysisSession::with_rough_warm_start`].
    #[must_use]
    pub fn rough_seed(&self) -> Option<&Arc<RoughSolution>> {
        self.rough_seed.as_ref()
    }

    /// `true` when no edits have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.current_deltas.is_empty() && self.topology_deltas.is_empty()
    }
}

/// Builder-style entry point for feature-stack preparation and
/// analysis — the one front door for one-shot work (for incremental
/// what-if re-analysis, see [`IrFusionPipeline::session`]).
///
/// Obtained from [`IrFusionPipeline::stack_builder`]; options select
/// thread count and cache policy (feature families are
/// [`FusionConfig::feature`]'s), and the terminal
/// methods ([`FeatureStackBuilder::prepare`],
/// [`FeatureStackBuilder::prepare_labelled`],
/// [`FeatureStackBuilder::analyze`]) return `Result` instead of
/// asserting — a padless grid surfaces as
/// [`FeatureError::NoPads`].
///
/// ```
/// use ir_fusion::{FusionConfig, IrFusionPipeline};
/// use irf_data::{synthesize, SynthSpec};
/// use irf_pg::PowerGrid;
///
/// let grid = synthesize(&SynthSpec::default());
/// let pipeline = IrFusionPipeline::new(FusionConfig::tiny());
/// let analysis = pipeline.stack_builder().analyze(&grid, None)?;
/// assert!(analysis.rough_map.max() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FeatureStackBuilder<'p> {
    pipeline: &'p IrFusionPipeline,
    threads: Option<usize>,
    cache: CachePolicy,
}

impl<'p> FeatureStackBuilder<'p> {
    fn new(pipeline: &'p IrFusionPipeline) -> Self {
        FeatureStackBuilder {
            pipeline,
            threads: None,
            cache: CachePolicy::Shared,
        }
    }

    /// Runs this builder's terminal call at an explicit thread count
    /// (`0` = automatic), restoring the ambient configuration
    /// afterwards. Results are bitwise identical at any setting; this
    /// only trades latency for core usage. The count is global for
    /// the duration of the call, so it is meant for CLI / batch use,
    /// not for mixing per-request inside one concurrent server.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Sets the cache policy (default [`CachePolicy::Shared`]).
    #[must_use]
    pub fn cache_policy(mut self, policy: CachePolicy) -> Self {
        self.cache = policy;
        self
    }

    /// Shorthand for `cache_policy(CachePolicy::Bypass)`.
    #[must_use]
    pub fn bypass_cache(self) -> Self {
        self.cache_policy(CachePolicy::Bypass)
    }

    /// The pipeline configuration with this builder's thread override
    /// applied — also what the cache fingerprint covers.
    fn effective_config(&self) -> FusionConfig {
        let mut config = *self.pipeline.config();
        if let Some(threads) = self.threads {
            config.num_threads = threads;
        }
        config
    }

    fn with_threads<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.threads {
            None => f(),
            Some(n) => {
                let previous = irf_runtime::configured_threads();
                irf_runtime::set_num_threads(n);
                let result = f();
                irf_runtime::set_num_threads(previous);
                result
            }
        }
    }

    /// Prepares the label-free stack: truncated solve, feature
    /// extraction, rough bottom-layer map — walking the stage graph
    /// through the attached [`StageStore`] under
    /// [`CachePolicy::Shared`] (each stage keyed by its own
    /// fingerprint, single-flighting concurrent misses).
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::NoPads`] when the grid has no pads.
    pub fn prepare(&self, grid: &PowerGrid) -> Result<Arc<PreparedStack>, FeatureError> {
        let config = self.effective_config();
        let store = match self.cache {
            CachePolicy::Shared => self.pipeline.cache().map(Arc::as_ref),
            CachePolicy::Bypass => None,
        };
        let plan = StagePlan::for_design(grid, &config);
        self.with_threads(|| {
            self.pipeline
                .staged_prepare(&config, grid, &plan, store, None)
        })
    }

    /// Prepares the label-free stack straight from a SPICE file on
    /// disk, streaming cards into the grid model without ever holding
    /// the netlist text (or any whole-netlist structure) in memory —
    /// the front door for paper-size designs whose source files dwarf
    /// the working set of the solve itself. Downstream of ingest this
    /// is exactly [`FeatureStackBuilder::prepare`]: same stage graph,
    /// same cache keys, bitwise-identical stack.
    ///
    /// # Errors
    ///
    /// Returns [`StreamPrepareError::Ingest`] when the file cannot be
    /// read, parsed, or modeled as a grid, and
    /// [`StreamPrepareError::Feature`] for downstream feature errors
    /// (today only [`FeatureError::NoPads`]).
    pub fn prepare_spice_path(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Arc<PreparedStack>, StreamPrepareError> {
        let grid = irf_pg::grid_from_spice_path(path)?;
        Ok(self.prepare(&grid)?)
    }

    /// Prepares a labelled sample (training path): the cached stack
    /// plus the rasterized golden solution.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::NoPads`] when the grid has no pads.
    ///
    /// # Panics
    ///
    /// Panics if `golden.len() != grid.nodes.len()`.
    pub fn prepare_labelled(
        &self,
        grid: &PowerGrid,
        golden: &[f64],
    ) -> Result<PreparedSample, FeatureError> {
        let stack = self.prepare(grid)?;
        let label = self.pipeline.label_map(grid, golden);
        Ok(PreparedSample {
            features: stack.features.clone(),
            label,
            rough: stack.rough.clone(),
            solve_seconds: stack.solve_seconds,
            feature_seconds: stack.feature_seconds,
        })
    }

    /// Analyzes a grid, optionally refining with a trained model.
    ///
    /// In residual mode (the fusion default), the model's signed
    /// correction is added to the rough numerical map and the result
    /// clamped at zero; in absolute mode the model output *is* the
    /// prediction. Pure-ML baselines (absolute prediction, numerical
    /// channels off) skip the solve entirely, keeping the runtime
    /// column honest.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::NoPads`] when the grid has no pads.
    pub fn analyze(
        &self,
        grid: &PowerGrid,
        model: Option<&TrainedModel>,
    ) -> Result<Analysis, FeatureError> {
        let _span = irf_trace::span("analyze_grid");
        let started = Instant::now();
        let config = self.effective_config();
        let needs_solve = config.feature.numerical || model.is_none_or(|t| t.residual);
        let stack = if needs_solve {
            self.prepare(grid)?
        } else {
            self.with_threads(|| {
                let extractor = FeatureExtractor::new(config.feature);
                let drops = vec![0.0; grid.nodes.len()];
                let features = extractor.extract(grid, &drops)?;
                let raster = extractor.rasterizer(grid);
                let rough =
                    irf_features::solution::bottom_layer_solution_map(grid, &drops, &raster);
                Ok(Arc::new(PreparedStack {
                    fingerprint: design_fingerprint(grid, &config),
                    features,
                    rough,
                    solve_report: SolveSummary {
                        converged: false,
                        iterations: 0,
                        residual: f64::INFINITY,
                        setup_seconds: 0.0,
                        solve_seconds: 0.0,
                        trace: irf_sparse::cg::ConvergenceTrace::default(),
                    },
                    solve_seconds: 0.0,
                    feature_seconds: 0.0,
                }))
            })?
        };
        let fused_map =
            model.map(|trained| self.with_threads(|| self.pipeline.predict(trained, &stack)));
        let runtime_seconds = started.elapsed().as_secs_f64();
        Ok(Analysis {
            rough_map: stack.rough.clone(),
            fused_map,
            solve_report: stack.solve_report.clone(),
            runtime_seconds,
        })
    }
}

/// The IR-Fusion pipeline. See the crate-level example.
#[derive(Debug, Clone)]
pub struct IrFusionPipeline {
    config: FusionConfig,
    cache: Option<Arc<StageStore>>,
}

impl IrFusionPipeline {
    /// Creates a pipeline. The configured `num_threads` is applied to
    /// the global parallel runtime (`0` = auto; see
    /// [`FusionConfig::num_threads`]).
    #[must_use]
    pub fn new(config: FusionConfig) -> Self {
        irf_runtime::set_num_threads(config.num_threads);
        IrFusionPipeline {
            config,
            cache: None,
        }
    }

    /// Attaches a stage-artifact store: subsequent
    /// [`FeatureStackBuilder::prepare`] and [`AnalysisSession`] calls
    /// (and everything built on them — `prepare`, `analyze`) reuse previously computed stage artifacts whose
    /// fingerprints still match.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<StageStore>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached stage-artifact store, if any.
    #[must_use]
    pub fn cache(&self) -> Option<&Arc<StageStore>> {
        self.cache.as_ref()
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &FusionConfig {
        &self.config
    }

    /// The configured solver, tolerance pinned below reach so the
    /// iteration budget is the only stop.
    fn solver(&self) -> Solver {
        Solver::new(self.config.solver_kind)
            .with_amg_params(self.config.amg)
            .with_tolerance(1e-12)
            .with_max_iterations(self.config.solver_iterations)
    }

    /// Runs the truncated AMG-PCG solve, returning per-node drops.
    #[must_use]
    pub fn rough_solution(&self, grid: &PowerGrid) -> (Vec<f64>, SolveReport) {
        let _span = irf_trace::span("rough_solve");
        let structure = PgStructure::build(grid);
        let setup = self.solver().prepare(&structure.matrix);
        let rhs = structure.rhs(&grid.loads);
        let report = setup.solve(&structure.matrix, &rhs);
        let drops = structure.expand_solution(&report.x);
        (drops, report)
    }

    /// One stage-graph walk: every artifact is fetched from `store`
    /// under its own fingerprint in `plan` (computing on miss,
    /// single-flighted) or computed directly when `store` is `None`.
    /// Because each stage's compute is the *same* code the cold path
    /// runs, a walk over warm artifacts is bitwise identical to a cold
    /// analysis at any thread count. `edit` carries an
    /// [`AnalysisSession`]'s base hints so topology-delta misses can
    /// rebuild incrementally.
    fn staged_prepare(
        &self,
        config: &FusionConfig,
        grid: &PowerGrid,
        plan: &StagePlan,
        store: Option<&StageStore>,
        edit: Option<&EditPlan>,
    ) -> Result<Arc<PreparedStack>, FeatureError> {
        if grid.pads.is_empty() {
            return Err(FeatureError::NoPads);
        }
        let build = || self.build_stack(config, grid, plan, store, edit);
        Ok(match store {
            Some(s) => s.stack(plan.stack, build),
            None => build(),
        })
    }

    /// Computes the [`PreparedStack`] for one design, pulling every
    /// upstream artifact through `store` when attached. Pads must have
    /// been checked by the caller.
    ///
    /// On an [`crate::stages::Stage::Assembled`] or
    /// [`crate::stages::Stage::Resistance`] miss with base hints in
    /// `edit`, the compute closure first tries the incremental route —
    /// re-stamping the edited conductances into the warm base CSR
    /// ([`PgStructure::restamped`]), refreshing the per-pad
    /// shortest-path distances from the warm base maps
    /// ([`FeatureExtractor::resistance_maps_from_base`]) — and falls
    /// back to the cold build when the base is gone or structurally
    /// incompatible. A [`crate::stages::Stage::SolverSetup`] miss runs
    /// a cold setup of the (re-stamped) matrix. Both incremental routes
    /// are bitwise identical to their cold counterparts, so the
    /// determinism contract is unaffected. The refreshed maps keep no
    /// distance arrays: those stay with the base, which every later
    /// edit of it refreshes from.
    fn build_stack(
        &self,
        config: &FusionConfig,
        grid: &PowerGrid,
        plan: &StagePlan,
        store: Option<&StageStore>,
        edit: Option<&EditPlan>,
    ) -> Arc<PreparedStack> {
        let extractor = FeatureExtractor::new(config.feature);
        let (rough, solve_seconds) = timed(|| self.rough_walk(grid, plan, store, edit));
        let (stack, feature_seconds) = timed(|| {
            let geometry = || {
                Arc::new(
                    extractor
                        .geometry(grid)
                        .expect("pads checked by staged_prepare"),
                )
            };
            let geometry = match store {
                Some(s) => s.structural(plan.structural, geometry),
                None => geometry(),
            };
            let resistance = || {
                let base = store.zip(edit).and_then(|(s, e)| {
                    let (base_grid, base_plan) = e.base.as_ref()?;
                    if base_plan.resistance == plan.resistance {
                        return None;
                    }
                    Some((base_grid.as_ref(), s.peek_resistance(base_plan.resistance)?))
                });
                let base = base.as_ref().map(|(base_grid, base)| (*base_grid, &**base));
                let maps = extractor.resistance_maps_with(grid, &geometry, base);
                Arc::new(maps.expect("pads checked by staged_prepare"))
            };
            let resistance = match store {
                Some(s) => s.resistance(plan.resistance, resistance),
                None => resistance(),
            };
            let features = extractor
                .extract_with_parts(grid, &rough.drops, &geometry, &resistance)
                .expect("pads checked by staged_prepare");
            let rough_map = irf_features::solution::bottom_layer_solution_map_tiled(
                &rough.drops,
                geometry.tile_table(),
            );
            (features, rough_map)
        });
        let registry = irf_trace::registry();
        registry.counter_add(
            "irf_stage_seconds_total",
            &[("stage", "rough_solve")],
            solve_seconds,
        );
        registry.counter_add(
            "irf_stage_seconds_total",
            &[("stage", "features")],
            feature_seconds,
        );
        let (features, rough_map) = stack;
        Arc::new(PreparedStack {
            fingerprint: plan.stack,
            features,
            rough: rough_map,
            solve_report: rough.report.clone(),
            solve_seconds,
            feature_seconds,
        })
    }

    /// The stage walk up to (and including) the rough solve: assembled
    /// system, prepared solver, rough solution — each fetched from
    /// `store` under its key in `plan` or computed on miss. `plan` must
    /// already carry the edit's effective keys (seed-tagged when the
    /// session opted into a warm start); when the edit carries a
    /// rough seed, the solve is warm-started under the tagged key.
    fn rough_walk(
        &self,
        grid: &PowerGrid,
        plan: &StagePlan,
        store: Option<&StageStore>,
        edit: Option<&EditPlan>,
    ) -> Arc<RoughSolution> {
        let assemble = || {
            if let (Some(s), Some(base_key)) = (store, edit.and_then(EditPlan::base_assembled)) {
                if base_key != plan.assembled {
                    if let Some(base) = s.peek_assembled(base_key) {
                        if let Some(restamped) = base.restamped(grid) {
                            return Arc::new(restamped);
                        }
                    }
                }
            }
            Arc::new(PgStructure::build(grid))
        };
        let structure = match store {
            Some(s) => s.assembled(plan.assembled, assemble),
            None => assemble(),
        };
        let prepare = || {
            let base = store.zip(edit.and_then(EditPlan::base_solver_setup));
            let base = base.and_then(|(s, key)| s.peek_solver_setup(key));
            Arc::new(match base {
                Some(base) => self.solver().rebuild_from(&base, &structure.matrix),
                None => self.solver().prepare(&structure.matrix),
            })
        };
        let setup = match store {
            Some(s) => s.solver_setup(plan.solver_setup, prepare),
            None => prepare(),
        };
        let solve = || {
            if let Some(seed) = edit.and_then(EditPlan::rough_seed) {
                if let Some(warm) =
                    self.warm_rough_stage(grid, &structure, &setup, plan.rough, seed)
                {
                    return Arc::new(warm);
                }
            }
            Arc::new(self.rough_stage(grid, &structure, &setup, plan.rough))
        };
        match store {
            Some(s) => s.rough(plan.rough, solve),
            None => solve(),
        }
    }

    /// The warm-started [`crate::stages::Stage::Rough`] compute: the
    /// truncated solve starts from the seed's solution vector (gathered
    /// back out of its drops, [`RoughSolution::reduced_solution`]) and stops
    /// as soon as the relative residual matches the seed's final
    /// residual (never looser than the configured tolerance, never more
    /// iterations than the configured budget). Returns `None` when the
    /// seed's reduced dimension disagrees with the assembled system —
    /// a geometry change — so the caller falls back to the cold
    /// compute under the same tagged key, keeping the result a pure
    /// function of (grid, config, seed) regardless of cache state.
    fn warm_rough_stage(
        &self,
        grid: &PowerGrid,
        structure: &PgStructure,
        setup: &SolverSetup,
        fingerprint: u64,
        seed: &RoughSolution,
    ) -> Option<RoughSolution> {
        if seed.node_of.len() != structure.dim() {
            return None;
        }
        let _span = irf_trace::span("rough_solve_warm");
        let t0 = Instant::now();
        let rhs = structure.rhs(&grid.loads);
        let relaxed = setup.with_stopping(
            seed.report.residual.max(setup.tolerance()),
            setup.max_iterations(),
        );
        let (x, report) = relaxed
            .solve_with_guess(&structure.matrix, &rhs, seed.reduced_solution())
            .into_parts();
        Some(RoughSolution {
            fingerprint,
            drops: structure.expand_solution(&x),
            node_of: Arc::clone(&structure.node_of),
            report,
            solve_seconds: t0.elapsed().as_secs_f64(),
        })
    }

    /// The [`crate::stages::Stage::Rough`] compute: right-hand side
    /// from the current loads, truncated solve on the prepared setup,
    /// solution expanded back to full node space.
    fn rough_stage(
        &self,
        grid: &PowerGrid,
        structure: &PgStructure,
        setup: &SolverSetup,
        fingerprint: u64,
    ) -> RoughSolution {
        let _span = irf_trace::span("rough_solve");
        let t0 = Instant::now();
        let rhs = structure.rhs(&grid.loads);
        let (x, report) = setup.solve(&structure.matrix, &rhs).into_parts();
        RoughSolution {
            fingerprint,
            drops: structure.expand_solution(&x),
            node_of: Arc::clone(&structure.node_of),
            report,
            solve_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Opens an incremental what-if session on a design. The session
    /// holds the base grid and composes edits into one [`EditPlan`]:
    /// [`AnalysisSession::with_currents`] /
    /// [`AnalysisSession::with_current_deltas`] swap only the load
    /// vector, so a re-analysis reuses the assembled system, the
    /// prepared solver and the structural maps from the attached
    /// store; [`AnalysisSession::with_topology_deltas`] edits strap /
    /// via / segment resistances, reusing the parsed design and the
    /// geometry maps outright and rebuilding the assembled system and
    /// the solver setup incrementally from the warm base artifacts.
    #[must_use]
    pub fn session(&self, grid: Arc<PowerGrid>) -> AnalysisSession<'_> {
        AnalysisSession {
            pipeline: self,
            keys: KeyParts::of(&grid, &self.config),
            grid,
            cache: CachePolicy::Shared,
            plan: EditPlan::default(),
        }
    }

    /// Starts a [`FeatureStackBuilder`] — the front door for stack
    /// preparation and analysis. Options (thread count, cache policy)
    /// are builder methods; terminals return
    /// `Result` so padless grids surface as [`FeatureError::NoPads`]
    /// instead of a panic deep in feature extraction.
    #[must_use]
    pub fn stack_builder(&self) -> FeatureStackBuilder<'_> {
        FeatureStackBuilder::new(self)
    }

    /// Prepares a labelled design (training path).
    ///
    /// # Panics
    ///
    /// Panics if the design's grid has no pads; use
    /// [`FeatureStackBuilder::prepare_labelled`] to handle that case
    /// as a `Result`.
    #[must_use]
    pub fn prepare(&self, design: &Design) -> PreparedSample {
        self.stack_builder()
            .prepare_labelled(&design.grid, &design.golden)
            .expect("design grid has pads")
    }

    /// Runs model inference on one prepared stack, applying the
    /// residual (or absolute) postprocessing.
    ///
    /// Equivalent to `predict_batch(trained, &[stack])[0]`, bit for
    /// bit.
    #[must_use]
    pub fn predict(&self, trained: &TrainedModel, stack: &PreparedStack) -> GridMap {
        self.predict_batch(trained, &[stack])
            .pop()
            .expect("predict_batch returns one map per stack")
    }

    /// Runs ONE batched forward pass over `stacks` and postprocesses
    /// each sample against its own rough map.
    ///
    /// The batched pass is bitwise identical to calling
    /// [`IrFusionPipeline::predict`] on each stack sequentially, at any
    /// thread count: every tape operation computes per-sample values
    /// with the same serial inner loops regardless of batch size. This
    /// is the contract that lets the serving layer run a request's
    /// stacks in chunks (and what `tests/integration_batch.rs`
    /// asserts).
    ///
    /// # Panics
    ///
    /// Panics if the stacks disagree on feature shape.
    #[must_use]
    pub fn predict_batch(&self, trained: &TrainedModel, stacks: &[&PreparedStack]) -> Vec<GridMap> {
        if stacks.is_empty() {
            return Vec::new();
        }
        let mut span = irf_trace::span("nn_forward");
        span.attr("batch", stacks.len());
        let inputs: Vec<Tensor> = stacks.iter().map(|s| s.feature_tensor()).collect();
        let batched = Tensor::concat_batch(&inputs);
        let [_, _, h, w] = batched.shape();
        let mut tape = Tape::new();
        let x = tape.input(batched);
        let y = trained.model.forward(&mut tape, &trained.store, x);
        let pred = tape.value(y);
        drop(span);
        let scale = trained.label_scale;
        let inv = if scale > 0.0 { 1.0 / scale } else { 1.0 };
        pred.split_batch()
            .iter()
            .zip(stacks)
            .map(|(sample, stack)| {
                if trained.residual {
                    let data = sample
                        .data()
                        .iter()
                        .zip(stack.rough.data())
                        .map(|(corr, rough)| (rough + corr * inv).max(0.0))
                        .collect();
                    GridMap::from_vec(w, h, data)
                } else {
                    GridMap::from_vec(w, h, sample.data().iter().map(|v| v * inv).collect())
                }
            })
            .collect()
    }

    /// Golden analysis via the exact direct solver (a [`Design`] holds
    /// its golden drops already: see [`IrFusionPipeline::label_map`]).
    #[must_use]
    pub fn golden_map(&self, grid: &PowerGrid) -> GridMap {
        self.label_map(grid, &golden_drops(grid))
    }

    /// The bottom-layer map of per-node `drops` at this pipeline's
    /// feature resolution: how training labels and golden maps are
    /// drawn.
    ///
    /// # Panics
    ///
    /// Panics if `drops.len() != grid.nodes.len()`.
    #[must_use]
    pub fn label_map(&self, grid: &PowerGrid, drops: &[f64]) -> GridMap {
        let raster = FeatureExtractor::new(self.config.feature).rasterizer(grid);
        irf_features::solution::bottom_layer_solution_map(grid, drops, &raster)
    }
}

/// An incremental what-if session: a base design plus edits, analyzed
/// through the stage graph so unchanged artifacts are reused from the
/// pipeline's attached [`StageStore`].
///
/// The session owns an `Arc` of the effective grid and an [`EditPlan`]
/// composing every recorded edit. `with_currents` /
/// `with_current_deltas` clone the grid once and swap only its load
/// vector, leaving topology, vias and pads — and therefore the
/// assembled MNA system, the prepared solver and the structural
/// feature maps — fingerprint-identical to the base.
/// [`AnalysisSession::with_topology_deltas`] edits strap / via /
/// segment resistances: the parsed design and the geometry maps stay
/// warm (their fingerprints cover only node/segment *placement*), and
/// the assembled system and solver setup are rebuilt incrementally
/// from the recorded base artifacts instead of from scratch.
///
/// ```
/// use ir_fusion::{FusionConfig, IrFusionPipeline, StageStore};
/// use irf_data::{synthesize, SynthSpec};
/// use irf_pg::PowerGrid;
/// use std::sync::Arc;
///
/// let grid = Arc::new(synthesize(&SynthSpec::default()));
/// let pipeline =
///     IrFusionPipeline::new(FusionConfig::tiny()).with_cache(Arc::new(StageStore::new(4)));
/// let cold = pipeline.session(Arc::clone(&grid)).prepare()?;
/// // Bump one cell current: only the rough solve and stack rebuild.
/// let warm = pipeline
///     .session(grid)
///     .with_current_deltas(&[(0, 1e-3)])
///     .prepare()?;
/// assert_ne!(cold.fingerprint, warm.fingerprint);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisSession<'p> {
    pipeline: &'p IrFusionPipeline,
    grid: Arc<PowerGrid>,
    /// The component digests of `grid` under the pipeline
    /// configuration: hashed once when the session opens, then each
    /// edit replaces only the digest of what it changed.
    keys: KeyParts,
    cache: CachePolicy,
    plan: EditPlan,
}

impl AnalysisSession<'_> {
    /// The effective grid this session analyzes.
    #[must_use]
    pub fn grid(&self) -> &Arc<PowerGrid> {
        &self.grid
    }

    /// The [`design_fingerprint`] of the effective grid under the
    /// pipeline configuration — the key a prepared stack lives under.
    /// Read from the carried key plan; nothing is re-hashed.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.stage_plan().stack
    }

    /// The key plan of the effective grid — equal to
    /// [`StagePlan::for_design`] of [`AnalysisSession::grid`] under the
    /// pipeline configuration, composed from the digests the session
    /// carries instead of re-hashing the grid.
    #[must_use]
    pub fn stage_plan(&self) -> StagePlan {
        StagePlan::from_parts(&self.keys)
    }

    /// The stage keys this session resolves under: its
    /// [`AnalysisSession::stage_plan`], except that a session opted
    /// into a warm-started rough solve tags the rough and stack keys
    /// with [`warm_stage_fingerprint`] so warm-started artifacts never
    /// shadow (or get shadowed by) their bitwise-cold counterparts.
    fn effective_plan(&self) -> StagePlan {
        let mut plan = self.stage_plan();
        if let Some(seed) = self.plan.rough_seed() {
            plan.rough = warm_stage_fingerprint(plan.rough, seed.fingerprint);
            plan.stack = warm_stage_fingerprint(plan.stack, seed.fingerprint);
        }
        plan
    }

    /// Swaps in a copy of the grid with edited loads (the copy shares
    /// the node table) and re-hashes the loads — the one digest a
    /// current edit changes.
    fn edit_loads(&mut self, edit: impl FnOnce(&mut Vec<Load>)) {
        let mut grid = (*self.grid).clone();
        edit(&mut grid.loads);
        self.keys.currents = currents_fingerprint(&grid.loads);
        self.grid = Arc::new(grid);
    }

    /// Sets the cache policy (default [`CachePolicy::Shared`]).
    #[must_use]
    pub fn cache_policy(mut self, policy: CachePolicy) -> Self {
        self.cache = policy;
        self
    }

    /// Replaces the whole load vector.
    #[must_use]
    pub fn with_currents(mut self, loads: Vec<Load>) -> Self {
        self.edit_loads(|grid_loads| *grid_loads = loads);
        self
    }

    /// Applies per-cell current deltas: for each `(node, amps)` pair
    /// the delta is added to that node's existing load, or a new load
    /// is created when the node drew no current before.
    #[must_use]
    pub fn with_current_deltas(mut self, deltas: &[(usize, f64)]) -> Self {
        self.edit_loads(|loads| {
            for &(node, amps) in deltas {
                match loads.iter_mut().find(|l| l.node == node) {
                    Some(load) => load.amps += amps,
                    None => loads.push(Load { node, amps }),
                }
            }
        });
        self.plan.current_deltas.extend_from_slice(deltas);
        self
    }

    /// Applies topology deltas — strap / via / segment resistance
    /// edits — to the effective grid, recording the pre-edit grid and
    /// stage keys so the next [`AnalysisSession::prepare`] can rebuild
    /// the assembled system and the solver setup, and refresh the
    /// shortest-path distances, incrementally from the warm base
    /// artifacts. Only the `ohms` are re-hashed: every other digest of
    /// the key plan is carried over. Validation is all-or-nothing:
    /// every delta in the batch is checked against the base grid before
    /// any is applied, so a failing batch applies none of them.
    ///
    /// Chained calls keep the *first* pre-edit base as the rebuild
    /// anchor — the last design that actually went through a full (or
    /// cached) assembly.
    ///
    /// # Errors
    ///
    /// Returns [`EditError`] when a delta references a layer pair or
    /// segment the base grid does not have, or carries a non-finite /
    /// non-positive value.
    pub fn with_topology_deltas(mut self, deltas: &[TopologyDelta]) -> Result<Self, EditError> {
        let mut grid = (*self.grid).clone();
        apply_topology_deltas(&mut grid, deltas)?;
        if self.plan.base.is_none() {
            self.plan.base = Some((Arc::clone(&self.grid), self.stage_plan()));
        }
        self.keys.conductance = conductance_fingerprint(&grid);
        self.grid = Arc::new(grid);
        self.plan.topology_deltas.extend_from_slice(deltas);
        Ok(self)
    }

    /// Opts this session into warm-starting the rough solve from a
    /// prior [`RoughSolution`] — typically the base analysis a
    /// sweep/optimize candidate was derived from. The solve starts at
    /// the seed's solution vector and stops once the relative residual
    /// matches the seed's final residual, so small conductance edits
    /// converge in a fraction of the truncated iteration budget.
    ///
    /// Warm-started results are *not* bitwise identical to cold
    /// analyses of the same design; they are therefore keyed under
    /// separate, seed-tagged stage fingerprints
    /// ([`crate::stages::warm_stage_fingerprint`]) and never observed
    /// by default-path sessions. For a fixed seed the result is fully
    /// deterministic — a pure function of (grid, config, seed)
    /// independent of cache state and thread count. A seed whose
    /// dimension disagrees with the edited design (a geometry change)
    /// is ignored and the tagged artifact is computed cold.
    #[must_use]
    pub fn with_rough_warm_start(mut self, seed: Arc<RoughSolution>) -> Self {
        self.plan.rough_seed = Some(seed);
        self
    }

    /// Runs the stage walk up to the rough solve and returns the
    /// (possibly warm-started) [`RoughSolution`] for the effective
    /// grid: per-node voltage drops in full node space plus the solve
    /// report. This is what a closed-loop optimizer needs to generate
    /// candidates from and to seed child sessions with.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::NoPads`] when the grid has no pads.
    pub fn rough_solution(&self) -> Result<Arc<RoughSolution>, FeatureError> {
        if self.grid.pads.is_empty() {
            return Err(FeatureError::NoPads);
        }
        let store = match self.cache {
            CachePolicy::Shared => self.pipeline.cache().map(Arc::as_ref),
            CachePolicy::Bypass => None,
        };
        Ok(self
            .pipeline
            .rough_walk(&self.grid, &self.effective_plan(), store, Some(&self.plan)))
    }

    /// The composed [`EditPlan`] recorded so far.
    #[must_use]
    pub fn edit_plan(&self) -> &EditPlan {
        &self.plan
    }

    /// Prepares the stack for the effective grid through the stage
    /// graph. With a warm store, a current-only edit skips SPICE
    /// parsing, MNA assembly and AMG setup entirely; a topology edit
    /// reuses the parsed design and geometry maps and rebuilds the
    /// assembled system / solver setup incrementally from the warm
    /// base artifacts recorded in the [`EditPlan`].
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::NoPads`] when the grid has no pads.
    pub fn prepare(&self) -> Result<Arc<PreparedStack>, FeatureError> {
        let store = match self.cache {
            CachePolicy::Shared => self.pipeline.cache().map(Arc::as_ref),
            CachePolicy::Bypass => None,
        };
        self.pipeline.staged_prepare(
            self.pipeline.config(),
            &self.grid,
            &self.effective_plan(),
            store,
            Some(&self.plan),
        )
    }

    /// Analyzes the effective grid, optionally refining with a
    /// trained model — the incremental counterpart of
    /// [`FeatureStackBuilder::analyze`].
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::NoPads`] when the grid has no pads.
    pub fn analyze(&self, model: Option<&TrainedModel>) -> Result<Analysis, FeatureError> {
        let _span = irf_trace::span("analyze_grid");
        let started = Instant::now();
        let stack = self.prepare()?;
        let fused_map = model.map(|trained| self.pipeline.predict(trained, &stack));
        let runtime_seconds = started.elapsed().as_secs_f64();
        Ok(Analysis {
            rough_map: stack.rough.clone(),
            fused_map,
            solve_report: stack.solve_report.clone(),
            runtime_seconds,
        })
    }

    /// Runs the model on the (possibly warm) stack, returning the
    /// fused map tagged with the stack fingerprint it came from.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::NoPads`] when the grid has no pads.
    pub fn predict(&self, model: &TrainedModel) -> Result<Prediction, FeatureError> {
        let stack = self.prepare()?;
        Ok(Prediction {
            fingerprint: stack.fingerprint,
            map: self.pipeline.predict(model, &stack),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FusionConfig;
    use irf_data::{synthesize, SynthSpec};
    use irf_metrics::mae;

    fn pipeline() -> IrFusionPipeline {
        IrFusionPipeline::new(FusionConfig::tiny())
    }

    fn grid() -> PowerGrid {
        synthesize(&SynthSpec::default())
    }

    #[test]
    fn rough_solution_respects_iteration_budget() {
        let p = pipeline();
        let (drops, report) = p.rough_solution(&grid());
        assert_eq!(report.iterations, 2);
        assert_eq!(drops.len(), grid().nodes.len());
    }

    #[test]
    fn more_iterations_approach_golden() {
        let g = grid();
        let golden = golden_drops(&g);
        let mut cfg = FusionConfig::tiny();
        let err_at = |k: usize, cfg: &mut FusionConfig| {
            cfg.solver_iterations = k;
            let p = IrFusionPipeline::new(*cfg);
            let (drops, _) = p.rough_solution(&g);
            drops
                .iter()
                .zip(&golden)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max)
        };
        let e2 = err_at(2, &mut cfg);
        let e8 = err_at(8, &mut cfg);
        assert!(e8 < e2, "k=8 ({e8:e}) should beat k=2 ({e2:e})");
    }

    #[test]
    fn prepare_produces_consistent_shapes() {
        let p = pipeline();
        let design = irf_data::Design::fake(1);
        let sample = p.prepare(&design);
        let (c, h, w, _) = sample.features.to_nchw();
        assert_eq!((h, w), (16, 16));
        assert_eq!(c, p.config().feature_channels(3));
        assert_eq!(sample.label.width(), 16);
        assert!(sample.label.max() > 0.0);
    }

    #[test]
    fn analyze_without_model_gives_rough_map_only() {
        let p = pipeline();
        let grid = synthesize(&SynthSpec::default());
        let a = p.stack_builder().analyze(&grid, None).expect("valid");
        assert!(a.fused_map.is_none());
        assert!(a.rough_map.max() > 0.0);
        assert!(a.runtime_seconds > 0.0);
    }

    #[test]
    fn rough_map_is_a_reasonable_estimate() {
        // Even at k=2 the rough map should correlate with golden.
        let p = pipeline();
        let g = grid();
        let a = p.stack_builder().analyze(&g, None).expect("grid has pads");
        let golden = p.golden_map(&g);
        let err = mae(a.rough_map.data(), golden.data());
        assert!(
            err < f64::from(golden.max()),
            "rough map error {err} should be below the peak drop"
        );
    }

    #[test]
    fn builder_reports_padless_grids_as_errors() {
        let p = pipeline();
        let g = PowerGrid::default();
        assert_eq!(
            p.stack_builder().prepare(&g).unwrap_err(),
            FeatureError::NoPads
        );
        assert_eq!(
            p.stack_builder().analyze(&g, None).unwrap_err(),
            FeatureError::NoPads
        );
    }

    #[test]
    fn builder_ablations_change_the_channel_count() {
        let p = pipeline();
        let g = grid();
        let full = p.stack_builder().prepare(&g).expect("pads");
        let mut config = *p.config();
        config.feature.numerical = false;
        config.feature.hierarchical = false;
        let ablated = IrFusionPipeline::new(config)
            .stack_builder()
            .prepare(&g)
            .expect("pads");
        let (c_full, ..) = full.features.to_nchw();
        let (c_ablated, ..) = ablated.features.to_nchw();
        assert!(
            c_ablated < c_full,
            "ablated stack ({c_ablated} ch) should be thinner than full ({c_full} ch)"
        );
    }

    #[test]
    fn builder_thread_override_restores_ambient_configuration() {
        let p = pipeline();
        let g = grid();
        let before = irf_runtime::configured_threads();
        let at2 = p.stack_builder().threads(2).prepare(&g).expect("pads");
        assert_eq!(irf_runtime::configured_threads(), before);
        let ambient = p.stack_builder().bypass_cache().prepare(&g).expect("pads");
        assert_eq!(at2.rough.data(), ambient.rough.data());
        assert_eq!(
            at2.features.to_nchw().3,
            ambient.features.to_nchw().3,
            "thread override must not change feature values"
        );
    }

    #[test]
    fn builder_shares_the_attached_cache() {
        let cache = Arc::new(StageStore::new(4));
        let p = pipeline().with_cache(Arc::clone(&cache));
        let g = grid();
        let a = p.stack_builder().prepare(&g).expect("pads");
        let b = p.stack_builder().prepare(&g).expect("pads");
        assert!(Arc::ptr_eq(&a, &b), "second prepare should be a cache hit");
        let c = p.stack_builder().bypass_cache().prepare(&g).expect("pads");
        assert!(!Arc::ptr_eq(&a, &c), "bypass must not read the cache");
    }

    #[test]
    fn session_current_edit_reuses_structure_and_setup() {
        use crate::stages::Stage;
        let cache = Arc::new(StageStore::new(4));
        let p = pipeline().with_cache(Arc::clone(&cache));
        let g = Arc::new(grid());
        let cold = p.session(Arc::clone(&g)).prepare().expect("pads");
        let warm_session = p.session(Arc::clone(&g)).with_current_deltas(&[(1, 2e-3)]);
        let warm = warm_session.prepare().expect("pads");
        assert_ne!(cold.fingerprint, warm.fingerprint);
        // The warm walk re-hit the topology-keyed artifacts...
        assert!(cache.stage_counters(Stage::Assembled).hits >= 1);
        assert!(cache.stage_counters(Stage::SolverSetup).hits >= 1);
        assert!(cache.stage_counters(Stage::Structural).hits >= 1);
        // ...but had to rerun the rough solve and stack assembly.
        assert_eq!(cache.stage_counters(Stage::Rough).misses, 2);
        assert_eq!(cache.stage_counters(Stage::Stack).misses, 2);
        // And the warm result matches a cold analysis of the same
        // edited design, bit for bit.
        let fresh = p
            .session(Arc::clone(warm_session.grid()))
            .cache_policy(CachePolicy::Bypass)
            .prepare()
            .expect("pads");
        assert_eq!(warm.rough.data(), fresh.rough.data());
        assert_eq!(warm.features.to_nchw().3, fresh.features.to_nchw().3);
    }

    #[test]
    fn a_strap_edit_keeps_only_what_it_changed() {
        use crate::stages::TopologyDelta;
        let cache = Arc::new(StageStore::new(4));
        let p = pipeline().with_cache(Arc::clone(&cache));
        let base = p.session(Arc::new(grid()));
        base.prepare().expect("pads");
        let edit = p
            .session(Arc::clone(base.grid()))
            .with_topology_deltas(&[TopologyDelta::Strap {
                layer: 1,
                scale: 0.8,
            }])
            .expect("valid deltas");
        edit.prepare().expect("pads");
        let (base_plan, plan) = (base.stage_plan(), edit.stage_plan());
        let base_structure = cache.peek_assembled(base_plan.assembled).expect("base");
        let structure = cache.peek_assembled(plan.assembled).expect("edited");
        let setup = cache.solver_setup(plan.solver_setup, || unreachable!("prepared above"));
        // The edited setup's finest operator is the edited matrix itself.
        let levels = setup.amg_hierarchy().expect("an AMG setup").levels();
        assert!(Arc::ptr_eq(&levels[0].a, &structure.matrix));
        // That matrix owns new values on the base's pattern, and the
        // edited structure holds the base's node maps.
        let (a, b) = (&structure.matrix, &base_structure.matrix);
        assert!(!Arc::ptr_eq(a, b));
        assert!(std::ptr::eq(a.row_ptr(), b.row_ptr()));
        assert!(std::ptr::eq(a.col_idx(), b.col_idx()));
        assert!(Arc::ptr_eq(&structure.index_of, &base_structure.index_of));
        assert!(Arc::ptr_eq(&structure.node_of, &base_structure.node_of));
        // The rough solution reads its vector through that same map.
        let rough = edit.rough_solution().expect("pads");
        assert!(Arc::ptr_eq(&rough.node_of, &structure.node_of));
        // The edited setup was rebuilt from the base's. Scaling a whole
        // layer keeps every pairing, so every level shares the base's
        // aggregation and sparsity pattern instead of owning copies.
        let base_setup = cache
            .peek_solver_setup(base_plan.solver_setup)
            .expect("base");
        let base_levels = base_setup.amg_hierarchy().expect("an AMG setup").levels();
        assert_eq!(levels.len(), base_levels.len());
        for (e, b) in levels.iter().zip(base_levels) {
            match (&e.agg, &b.agg) {
                (Some(e), Some(b)) => assert!(Arc::ptr_eq(e, b)),
                (e, b) => assert!(e.is_none() && b.is_none()),
            }
            assert!(std::ptr::eq(e.a.row_ptr(), b.a.row_ptr()));
            assert!(std::ptr::eq(e.a.col_idx(), b.a.col_idx()));
        }
    }

    #[test]
    fn a_session_carries_the_key_plan_of_its_effective_grid() {
        use crate::stages::TopologyDelta;
        let p = pipeline();
        let base = Arc::new(grid());
        let strap = TopologyDelta::Strap {
            layer: 1,
            scale: 0.8,
        };
        let segment = TopologyDelta::Segment {
            segment: 5,
            ohms: 0.123,
        };
        let mut doubled = base.loads.clone();
        for l in &mut doubled {
            l.amps *= 2.0;
        }
        let open = || p.session(Arc::clone(&base));
        let sessions = [
            ("unedited", open()),
            (
                "current",
                open().with_current_deltas(&[(1, 2e-3), (9, 1e-4)]),
            ),
            ("with_currents", open().with_currents(doubled.clone())),
            ("topology", open().with_topology_deltas(&[strap]).unwrap()),
            (
                "chained topology",
                open()
                    .with_topology_deltas(&[strap])
                    .unwrap()
                    .with_topology_deltas(&[segment])
                    .unwrap(),
            ),
            (
                "mixed",
                open()
                    .with_current_deltas(&[(2, 1e-3)])
                    .with_topology_deltas(&[segment, strap])
                    .unwrap()
                    .with_currents(doubled)
                    .with_current_deltas(&[(2, -5e-4)]),
            ),
        ];
        let mut seen = Vec::new();
        for (label, session) in &sessions {
            let want = StagePlan::for_design(session.grid(), p.config());
            assert_eq!(session.stage_plan(), want, "{label}");
            assert_eq!(session.fingerprint(), want.stack, "{label}");
            assert_eq!(
                session.fingerprint(),
                design_fingerprint(session.grid(), p.config()),
                "{label}"
            );
            let prepared = session.prepare().expect("pads");
            assert_eq!(prepared.fingerprint, session.fingerprint(), "{label}");
            assert!(!seen.contains(&want.stack), "{label} repeats a design");
            seen.push(want.stack);
        }
        // Every topology session anchors on the grid it was opened on.
        for (label, session) in &sessions[3..] {
            let plan = session.edit_plan();
            let base_plan = StagePlan::for_design(&base, p.config());
            assert_eq!(plan.base_assembled(), Some(base_plan.assembled), "{label}");
            assert_eq!(
                plan.base_resistance(),
                Some(base_plan.resistance),
                "{label}"
            );
        }
    }

    #[test]
    fn label_tensor_applies_scale() {
        let p = pipeline();
        let sample = p.prepare(&irf_data::Design::fake(2));
        let t1 = sample.label_tensor(1.0);
        let t100 = sample.label_tensor(100.0);
        let r = t100.data()[0] / t1.data()[0].max(1e-30);
        assert!(t1.data()[0] == 0.0 || (r - 100.0).abs() < 1e-3);
    }
}
