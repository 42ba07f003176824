//! The micro-batching queue: predict requests that are already waiting
//! when the batcher comes free — up to a batch size `B` — are executed
//! as ONE batched forward pass.
//!
//! The batcher never waits for company: it takes the first queued job
//! plus whatever backlog is behind it and runs. Requests that arrive
//! during a forward pass queue up and form the next batch, so batches
//! grow exactly when the forward pass is the bottleneck, and a lone
//! request pays no batching delay at all. (A per-sample forward costs
//! the same alone as in a batch of four — EXPERIMENTS.md, "Served hit"
//! — so idling for a fuller batch bought nothing.)
//!
//! Batching is free of accuracy consequences here: the batched forward
//! is bitwise identical to running each sample alone (asserted by
//! `tests/integration_batch.rs`), so the only observable effect is
//! throughput — one tape walk amortizes scheduling and parameter
//! traffic across all samples in flight.

use crate::log;
use crate::metrics::ServerMetrics;
use ir_fusion::{IrFusionPipeline, PreparedStack, TrainedModel};
use irf_pg::GridMap;
use irf_trace::timed;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// An atomically swappable trained model, shared between the batcher
/// and the `POST /v1/models/{name}/reload` endpoint.
///
/// The batcher reads the slot once per batch ([`ModelSlot::get`] clones
/// the inner `Arc` under a short lock), so a [`ModelSlot::swap`] never
/// disturbs a forward pass already in flight: batches collected before
/// the swap finish on the model they started with, batches collected
/// after it run on the new one. No request is dropped either way.
#[derive(Debug)]
pub struct ModelSlot {
    model: Mutex<Arc<TrainedModel>>,
}

impl ModelSlot {
    /// Wraps an initial model.
    #[must_use]
    pub fn new(model: TrainedModel) -> Self {
        ModelSlot {
            model: Mutex::new(Arc::new(model)),
        }
    }

    /// The current model (cheap `Arc` clone).
    #[must_use]
    pub fn get(&self) -> Arc<TrainedModel> {
        Arc::clone(&self.model.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Replaces the model. Takes effect from the next collected batch.
    pub fn swap(&self, model: TrainedModel) {
        *self.model.lock().unwrap_or_else(|e| e.into_inner()) = Arc::new(model);
    }
}

/// Tunables of the micro-batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum requests fused into one forward pass.
    pub max_batch: usize,
    /// Bound on queued-but-unbatched requests; submissions beyond it
    /// are rejected (the server answers 429).
    pub queue_capacity: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 4,
            queue_capacity: 64,
        }
    }
}

/// One queued inference request: the prepared stack to run, the model
/// slot to run it through, and the channel that receives the predicted
/// map.
pub struct PredictJob {
    /// Prepared features + rough map (label-free).
    pub stack: Arc<PreparedStack>,
    /// The model this job runs on, resolved by the handler. The
    /// batcher groups collected jobs by slot, so every executed
    /// forward batch runs on one model.
    pub slot: Arc<ModelSlot>,
    /// Id of the originating HTTP request (`0` when none). Carried
    /// explicitly: the batcher thread never inherits the handler's
    /// thread-local `irf_trace::request` scope.
    pub request: u64,
    /// When the job was queued; the batcher derives queue wait from it.
    pub submitted: Instant,
    /// Where the prediction (plus its accounting) is delivered.
    pub reply: mpsc::Sender<PredictReply>,
}

/// What the batcher delivers for one job: the prediction and the
/// accounting the access log and flight recorder attribute to the
/// originating request.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictReply {
    /// The predicted IR-drop map.
    pub map: GridMap,
    /// How long the job sat queued before its batch's forward started.
    pub queue_seconds: f64,
    /// Number of jobs fused into the same forward pass.
    pub batch_size: usize,
}

/// Why a submission was not queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — shed load (HTTP 429).
    QueueFull,
    /// The batcher has shut down (HTTP 503).
    Closed,
}

/// Handle to the batcher thread.
pub struct Batcher {
    tx: mpsc::SyncSender<PredictJob>,
    handle: JoinHandle<()>,
}

impl Batcher {
    /// Spawns the batcher thread. Each job carries the [`ModelSlot`]
    /// it resolved against (a named model); the batcher reads each
    /// distinct slot once per batch and a
    /// `POST /v1/models/{name}/reload` swaps slots in place.
    #[must_use]
    pub fn start(
        pipeline: IrFusionPipeline,
        config: BatchConfig,
        metrics: Arc<ServerMetrics>,
    ) -> Batcher {
        let (tx, rx) = mpsc::sync_channel::<PredictJob>(config.queue_capacity.max(1));
        let handle = std::thread::Builder::new()
            .name("irf-batcher".into())
            .spawn(move || run_batcher(&rx, &pipeline, config, &metrics))
            .expect("spawn batcher thread");
        Batcher { tx, handle }
    }

    /// A cloneable submission endpoint.
    #[must_use]
    pub fn sender(&self) -> mpsc::SyncSender<PredictJob> {
        self.tx.clone()
    }

    /// Drops the submission endpoint and joins the thread after it
    /// drains every queued job (provided all cloned senders are gone).
    pub fn shutdown(self) {
        let Batcher { tx, handle } = self;
        drop(tx);
        let _ = handle.join();
    }
}

/// Non-blocking submission helper shared by the server's handlers.
///
/// # Errors
///
/// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
/// [`SubmitError::Closed`] when the batcher is gone.
pub fn try_submit(tx: &mpsc::SyncSender<PredictJob>, job: PredictJob) -> Result<(), SubmitError> {
    match tx.try_send(job) {
        Ok(()) => Ok(()),
        Err(mpsc::TrySendError::Full(_)) => Err(SubmitError::QueueFull),
        Err(mpsc::TrySendError::Disconnected(_)) => Err(SubmitError::Closed),
    }
}

fn run_batcher(
    rx: &mpsc::Receiver<PredictJob>,
    pipeline: &IrFusionPipeline,
    config: BatchConfig,
    metrics: &ServerMetrics,
) {
    let max_batch = config.max_batch.max(1);
    loop {
        // Block for the first job; every sender gone means shutdown
        // (after the channel's remaining jobs have been drained).
        let first = match rx.recv() {
            Ok(job) => job,
            Err(mpsc::RecvError) => return,
        };
        // Batch from backlog: whatever is already queued rides along,
        // nothing is waited for.
        let mut jobs = vec![first];
        jobs.extend(rx.try_iter().take(max_batch - 1));
        // Partition the collected jobs into homogeneous groups — one
        // per distinct model slot, in arrival order — so a forward
        // batch never mixes models.
        let mut groups: Vec<(Arc<ModelSlot>, Vec<PredictJob>)> = Vec::new();
        for job in jobs {
            match groups
                .iter_mut()
                .find(|(slot, _)| Arc::ptr_eq(slot, &job.slot))
            {
                Some((_, group)) => group.push(job),
                None => {
                    let slot = Arc::clone(&job.slot);
                    groups.push((slot, vec![job]));
                }
            }
        }
        for (slot, jobs) in groups {
            let stacks: Vec<&PreparedStack> = jobs.iter().map(|j| j.stack.as_ref()).collect();
            // Resolve the model once per group: a concurrent reload
            // takes effect on the NEXT batch, never mid-forward.
            let model = slot.get();
            let batch_started = Instant::now();
            let (maps, seconds) = timed(|| pipeline.predict_batch(&model, &stacks));
            metrics.observe_batch(jobs.len());
            metrics.observe_stage("forward", seconds);
            let batch_size = jobs.len();
            if log::enabled(log::Level::Debug) {
                // The per-batch detail record names every fused request
                // so a slow forward can be pinned to its co-batched
                // peers.
                let ids: Vec<String> = jobs.iter().map(|j| format!("{:016x}", j.request)).collect();
                let ids = ids.join(",");
                log::debug(
                    "forward_batch",
                    &[
                        ("batch_size", batch_size.into()),
                        ("forward_seconds", seconds.into()),
                        ("requests", ids.as_str().into()),
                    ],
                );
            }
            for (job, map) in jobs.into_iter().zip(maps) {
                let queue_seconds = batch_started
                    .saturating_duration_since(job.submitted)
                    .as_secs_f64();
                // A handler that gave up (client disconnect) just
                // drops its receiver; that is not the batcher's
                // problem.
                let _ = job.reply.send(PredictReply {
                    map,
                    queue_seconds,
                    batch_size,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_fusion::FusionConfig;
    use irf_data::Dataset;
    use irf_models::ModelKind;

    #[test]
    fn batcher_serves_jobs_and_drains_on_shutdown() {
        let config = FusionConfig::tiny();
        let dataset = Dataset::generate(2, 2, 1, 7);
        let trained = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);
        let pipeline = IrFusionPipeline::new(config);
        let stack = Arc::new(
            pipeline
                .prepare_stack(&dataset.designs[0].grid)
                .expect("grid has pads"),
        );
        let expected = pipeline.predict(&trained, &stack);

        let metrics = Arc::new(ServerMetrics::new(4));
        let slot = Arc::new(ModelSlot::new(trained));
        let batcher = Batcher::start(
            pipeline,
            BatchConfig {
                max_batch: 4,
                queue_capacity: 8,
            },
            Arc::clone(&metrics),
        );
        let tx = batcher.sender();
        let mut replies = Vec::new();
        for seq in 0..3u64 {
            let (reply_tx, reply_rx) = mpsc::channel();
            try_submit(
                &tx,
                PredictJob {
                    stack: Arc::clone(&stack),
                    slot: Arc::clone(&slot),
                    request: seq + 1,
                    submitted: Instant::now(),
                    reply: reply_tx,
                },
            )
            .expect("queue has room");
            replies.push(reply_rx);
        }
        for rx in replies {
            let reply = rx.recv().expect("batcher replies");
            assert_eq!(
                reply.map, expected,
                "batched result must equal solo predict"
            );
            assert!(reply.batch_size >= 1 && reply.batch_size <= 3);
            assert!(reply.queue_seconds >= 0.0);
        }
        drop(tx);
        batcher.shutdown();
    }

    #[test]
    fn model_swap_takes_effect_on_the_next_batch() {
        let config = FusionConfig::tiny();
        let dataset = Dataset::generate(2, 2, 1, 7);
        let first = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);
        let mut longer = config;
        longer.train.epochs += 1;
        let second = ir_fusion::train(ModelKind::IrEdge, &dataset, &longer);
        let pipeline = IrFusionPipeline::new(config);
        let stack = Arc::new(
            pipeline
                .prepare_stack(&dataset.designs[0].grid)
                .expect("grid has pads"),
        );
        let from_first = pipeline.predict(&first, &stack);
        let from_second = pipeline.predict(&second, &stack);
        assert_ne!(from_first, from_second, "models must actually differ");

        let slot = Arc::new(ModelSlot::new(first));
        let metrics = Arc::new(ServerMetrics::new(4));
        let batcher = Batcher::start(pipeline, BatchConfig::default(), metrics);
        let tx = batcher.sender();

        let predict_once = |tx: &mpsc::SyncSender<PredictJob>| {
            let (reply_tx, reply_rx) = mpsc::channel();
            try_submit(
                tx,
                PredictJob {
                    stack: Arc::clone(&stack),
                    slot: Arc::clone(&slot),
                    request: 0,
                    submitted: Instant::now(),
                    reply: reply_tx,
                },
            )
            .expect("queue has room");
            reply_rx.recv().expect("batcher replies").map
        };

        assert_eq!(predict_once(&tx), from_first);
        slot.swap(second);
        assert_eq!(predict_once(&tx), from_second, "swap must be visible");
        drop(tx);
        batcher.shutdown();
    }

    /// A pipeline, one prepared design and a model trained for it.
    fn fixture() -> (IrFusionPipeline, Arc<PreparedStack>, TrainedModel) {
        let config = FusionConfig::tiny();
        let dataset = Dataset::generate(2, 2, 1, 7);
        let trained = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);
        let pipeline = IrFusionPipeline::new(config);
        let stack = pipeline
            .prepare_stack(&dataset.designs[0].grid)
            .expect("grid has pads");
        (pipeline, Arc::new(stack), trained)
    }

    /// Queues one job per slot in `slots` (all on `stack`), hangs up,
    /// and only then runs the batcher loop over the queue — so what the
    /// loop finds as backlog is exact, not a race. Replies come back in
    /// submission order.
    fn run_prequeued(
        pipeline: &IrFusionPipeline,
        max_batch: usize,
        stack: &Arc<PreparedStack>,
        slots: &[&Arc<ModelSlot>],
    ) -> Vec<PredictReply> {
        let config = BatchConfig {
            max_batch,
            queue_capacity: slots.len(),
        };
        let (tx, rx) = mpsc::sync_channel(config.queue_capacity);
        let replies: Vec<_> = slots
            .iter()
            .zip(1u64..)
            .map(|(slot, request)| {
                let (reply_tx, reply_rx) = mpsc::channel();
                try_submit(
                    &tx,
                    PredictJob {
                        stack: Arc::clone(stack),
                        slot: Arc::clone(slot),
                        request,
                        submitted: Instant::now(),
                        reply: reply_tx,
                    },
                )
                .expect("queue has room");
                reply_rx
            })
            .collect();
        drop(tx);
        run_batcher(&rx, pipeline, config, &ServerMetrics::new(max_batch));
        replies
            .into_iter()
            .map(|rx| rx.recv().expect("batcher replies"))
            .collect()
    }

    #[test]
    fn backlog_is_served_in_full_batches() {
        let (pipeline, stack, trained) = fixture();
        let expected = pipeline.predict(&trained, &stack);
        let slot = Arc::new(ModelSlot::new(trained));

        // Ten jobs waiting, four to a batch: ceil(10 / 4) = 3 batches.
        let replies = run_prequeued(&pipeline, 4, &stack, &[&slot; 10]);
        let sizes: Vec<usize> = replies.iter().map(|r| r.batch_size).collect();
        assert_eq!(sizes, [4, 4, 4, 4, 4, 4, 4, 4, 2, 2]);
        assert!(replies.iter().all(|r| r.map == expected));
    }

    #[test]
    fn a_lone_job_does_not_wait_for_company() {
        let (pipeline, stack, trained) = fixture();
        let slot = Arc::new(ModelSlot::new(trained));
        let metrics = Arc::new(ServerMetrics::new(4));
        let batcher = Batcher::start(pipeline, BatchConfig::default(), metrics);
        let tx = batcher.sender();
        // Fastest of five, so one descheduled wake-up cannot fail it; a
        // batcher that idles for company delays every one of them.
        let fastest = (0..5)
            .map(|_| {
                let (reply_tx, reply_rx) = mpsc::channel();
                try_submit(
                    &tx,
                    PredictJob {
                        stack: Arc::clone(&stack),
                        slot: Arc::clone(&slot),
                        request: 0,
                        submitted: Instant::now(),
                        reply: reply_tx,
                    },
                )
                .expect("queue has room");
                let reply = reply_rx.recv().expect("batcher replies");
                assert_eq!(reply.batch_size, 1);
                reply.queue_seconds
            })
            .fold(f64::INFINITY, f64::min);
        assert!(fastest < 2e-3, "lone job queued for {fastest} s");
        drop(tx);
        batcher.shutdown();
    }

    #[test]
    fn jobs_of_two_models_batch_homogeneously() {
        let (pipeline, stack, first) = fixture();
        let mut longer = FusionConfig::tiny();
        longer.train.epochs += 1;
        let second = ir_fusion::train(ModelKind::IrEdge, &Dataset::generate(2, 2, 1, 7), &longer);
        let expected_first = pipeline.predict(&first, &stack);
        let expected_second = pipeline.predict(&second, &stack);
        assert_ne!(expected_first, expected_second, "models must differ");

        let first_slot = Arc::new(ModelSlot::new(first));
        let second_slot = Arc::new(ModelSlot::new(second));
        // Interleave the two models in one collected batch; the
        // batcher must split it into two homogeneous groups of two.
        let replies = run_prequeued(
            &pipeline,
            8,
            &stack,
            &[&first_slot, &second_slot, &first_slot, &second_slot],
        );
        for (i, reply) in replies.iter().enumerate() {
            let expected = if i % 2 == 0 {
                &expected_first
            } else {
                &expected_second
            };
            assert_eq!(&reply.map, expected, "job {i} must ride its own model");
            assert_eq!(reply.batch_size, 2, "groups must not mix slots");
        }
    }
}
