//! Multi-streamed execution on the functional substrate (§IV-A).
//!
//! `k` persistent *executor* threads each process a micro-batch of the
//! training batch against a **single shared copy** of the layer weights
//! (`Arc<Block>` — exactly the paper's "only one copy of the model
//! parameters ... despite more than one training worker"). The driver walks
//! the layers; executors compute concurrently; per-layer gradients are
//! all-reduced in fixed executor order before the optimizer actor is
//! dispatched, so the result is deterministic for any interleaving.
//!
//! Step policy (clipping, LR schedule, optimizer dispatch, checkpointing)
//! lives in the shared [`Engine`]; this module is only the
//! [`MultiStreamBackend`] mechanism plus a thin facade.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use crossbeam_channel::{bounded, Receiver, Sender};
use stronghold_collective::order::{fold_owned, fold_with, tree_sum, FoldPlan};
use stronghold_model::block::{Block, BlockGrads};
use stronghold_model::config::ModelConfig;
use stronghold_model::transformer::{Transformer, TransformerGrads};
use stronghold_tensor::{scratch, PackedHalf, Precision, Tensor};

use crate::adam::{AdamParams, AdamState};
use crate::clip::GlobalNorm;
use crate::error::RuntimeError;
use crate::hooks::{HookCtx, HookPoint, HookRegistry};
use crate::host::autotune::{StallSignals, TuneLimits, Tuning};
use crate::host::engine::{
    Engine, EngineOptions, GradSink, ParamBackend, ResidentParamsMut, StepPlan, StepWorkspace,
    TrainingState,
};
use crate::optimpool::{LayerStore, OptimizerPool};
use crate::telemetry::{span_label, Telemetry};

/// Commands sent to an executor thread.
enum Cmd {
    /// Forward the executor's activations through the shared block.
    Forward(Arc<Block>),
    /// Backward the executor's micro-batch through the shared block with
    /// recompute-from-checkpoint at `layer`.
    Backward(Arc<Block>, usize),
    /// Run the head (loss + initial gradient) for the iteration.
    Head,
    /// Terminate.
    Stop,
}

enum Reply {
    ForwardDone,
    /// Scaled micro-batch gradients for the layer.
    Grads(Box<BlockGrads>),
    /// Sum of per-sample losses in the micro-batch.
    HeadLoss(f32),
}

struct ExecutorState {
    batch: Vec<(Vec<u32>, Vec<u32>)>,
    x: Vec<Tensor>,
    inputs: Vec<Vec<Tensor>>, // checkpoints per layer per sample
    dy: Vec<Tensor>,
    scale: f32,
}

/// The multi-stream placement backend: one shared parameter copy in a
/// [`LayerStore`], `k` executor threads per step, fixed-order all-reduce.
pub struct MultiStreamBackend {
    cfg: ModelConfig,
    shell: Arc<Transformer>,
    store: Arc<LayerStore>,
    pool: OptimizerPool,
    streams: usize,
    slot: Block,
    tel: Telemetry,
    /// Persistent parameter staging buffer for the driver's per-layer weight
    /// loads (training) and the eval/export paths — no fresh `Vec` per call.
    stage: Mutex<Vec<f32>>,
    /// Cached FP-only slot for `eval_loss`, cloned once on first use.
    eval_slot: Mutex<Option<Block>>,
    /// Device-residency / transfer precision (matches the windowed
    /// backend's value grid, so cross-backend bit-identity holds per mode).
    precision: Precision,
    /// Half round-through scratch shared by the driver's load/offload and
    /// eval paths (unused at F32).
    pack: Mutex<PackedHalf>,
}

impl MultiStreamBackend {
    fn from_model(
        model: Transformer,
        streams: usize,
        workers: usize,
        hp: AdamParams,
        precision: Precision,
        tel: Telemetry,
    ) -> Self {
        assert!(streams >= 1);
        let cfg = model.cfg;
        let mut shell = model;
        let blocks = std::mem::take(&mut shell.blocks);
        let slot = blocks[0].clone();
        let flats: Vec<Vec<f32>> = blocks.iter().map(|b| b.flatten_params()).collect();
        let store = LayerStore::new(flats);
        let pool = OptimizerPool::with_telemetry(Arc::clone(&store), hp, workers.max(1), &tel);
        MultiStreamBackend {
            cfg,
            shell: Arc::new(shell),
            store,
            pool,
            streams,
            slot,
            tel,
            stage: Mutex::new(Vec::new()),
            eval_slot: Mutex::new(None),
            precision,
            pack: Mutex::new(PackedHalf::new(precision)),
        }
    }
}

impl ParamBackend for MultiStreamBackend {
    fn config(&self) -> ModelConfig {
        self.cfg
    }

    fn num_blocks(&self) -> usize {
        self.store.len()
    }

    fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    fn new_resident_grads(&self) -> TransformerGrads {
        self.shell.zero_grads()
    }

    /// One forward/backward pass: the batch is partitioned round-robin-
    /// contiguously into `k` micro-batches; executor `e` takes samples
    /// `[e·⌈b/k⌉, ...)`. Per-layer hooks fire on the driver around each
    /// layer's fan-out.
    ///
    /// Under [`StepPlan::streaming`] each layer's all-reduced gradient is
    /// submitted to the optimizer pool straight from the BP loop (flattened
    /// into a recycled pool buffer), overlapping CPU Adam with the remaining
    /// layers' backward; otherwise it parks in `ws.block_grads` for the
    /// engine's deferred clip → dispatch.
    fn forward_backward(
        &mut self,
        batch: &[(Vec<u32>, Vec<u32>)],
        ws: &mut StepWorkspace,
        hooks: &mut HookRegistry,
        iteration: u64,
        plan: &StepPlan,
        sink: &dyn GradSink,
    ) -> f32 {
        let b = batch.len();
        assert!(
            b >= self.streams,
            "batch {b} smaller than streams {}",
            self.streams
        );
        let micro = b.div_ceil(self.streams);
        let scale = 1.0 / b as f32;
        let nb = self.cfg.layers;
        let ctx = |layer: usize| HookCtx {
            layer,
            iteration,
            micro_batch: 0,
        };
        // In-flight work commands across all executor queues (the
        // copy/compute hand-off depth of the §IV-A driver).
        let q_depth = self.tel.gauge("multistream.cmd_queue_depth");

        // Spin up fresh executors for this step (scoped lifetimes keep the
        // borrow story simple; threads persist across all layers of the
        // step, which is where the concurrency matters).
        let mut cmd_txs: Vec<Sender<Cmd>> = Vec::new();
        let mut reply_rxs: Vec<Receiver<Reply>> = Vec::new();
        let mut handles = Vec::new();
        for e in 0..self.streams {
            let lo = (e * micro).min(b);
            let hi = ((e + 1) * micro).min(b);
            let my: Vec<_> = batch[lo..hi].to_vec();
            let shell = Arc::clone(&self.shell);
            let (ctx_tx, crx) = bounded::<Cmd>(2);
            let (rtx, rrx) = bounded::<Reply>(2);
            cmd_txs.push(ctx_tx);
            reply_rxs.push(rrx);
            handles.push(std::thread::spawn(move || {
                executor_loop(shell, my, scale, crx, rtx)
            }));
        }

        ws.streamed = plan.streaming;

        // ---- FP: walk layers; all executors compute concurrently on one
        // shared materialized block. ----
        let mut shared_blocks: Vec<Arc<Block>> = Vec::with_capacity(nb);
        let stage = self.stage.get_mut().expect("stage");
        let pack = self.pack.get_mut().expect("pack");
        for i in 0..nb {
            hooks.fire(i, HookPoint::PreForward, &ctx(i));
            let mut blk = self.slot.clone();
            let load_span = self
                .tel
                .span("h2d-copy", span_label(&self.tel, || format!("load L{i}")));
            self.store.read_params_into(i, stage);
            // Half modes: executors compute on the round-through-half
            // parameter grid, exactly like the windowed backend's shells.
            pack.round_through(stage);
            blk.load_flat_params(stage);
            load_span.end();
            let blk = Arc::new(blk);
            shared_blocks.push(Arc::clone(&blk));
            for tx in &cmd_txs {
                q_depth.add(1);
                tx.send(Cmd::Forward(Arc::clone(&blk)))
                    .expect("executor alive");
            }
            let span = self
                .tel
                .span("compute", span_label(&self.tel, || format!("fp L{i}")));
            for rx in &reply_rxs {
                let reply = rx.recv().expect("fp reply");
                q_depth.add(-1);
                assert!(matches!(reply, Reply::ForwardDone));
            }
            span.end();
            hooks.fire(i, HookPoint::PostForward, &ctx(i));
        }

        // ---- Head: loss + initial gradient per executor. Each executor
        // returns the canonical tree-sum of its own samples; the driver
        // folds the executor partials with the same tree over the stream
        // index, so `k = 1` reproduces the resident trainer's loss exactly.
        let mut exec_losses: Vec<f32> = Vec::with_capacity(self.streams);
        for tx in &cmd_txs {
            q_depth.add(1);
            tx.send(Cmd::Head).expect("executor alive");
        }
        for rx in &reply_rxs {
            if let Reply::HeadLoss(l) = rx.recv().expect("head reply") {
                exec_losses.push(l);
            }
            q_depth.add(-1);
        }

        // ---- BP: per layer, executors compute concurrently; the driver
        // all-reduces their gradients in executor order (the §IV-A
        // all-reduce with one copy of parameters). With clipping active the
        // optimizer dispatch happens in the engine once the step's global
        // norm is known; otherwise each layer's update is streamed to the
        // actor pool the moment its all-reduce lands. ----
        let stream_plan = FoldPlan::new(self.streams);
        let want_norm = self.tel.is_enabled();
        let norm_bits: Vec<AtomicU64> = (0..nb).map(|_| AtomicU64::new(0)).collect();
        let pool = &self.pool;
        let store = &self.store;
        let hp = plan.hp;
        // The optimizer hand-off for a finished (sink-reduced) gradient;
        // `sink.layer_ready` may call this later than the layer it was
        // handed, so the streamed norm partial is recomputed here on the
        // gradient the optimizer will actually consume.
        let norm_slots = &norm_bits;
        let deliver = move |layer: usize, buf: Vec<f32>| {
            if want_norm {
                norm_slots[layer]
                    .store(GlobalNorm::layer_sum_sq(&buf).to_bits(), Ordering::Relaxed);
            }
            store.mark_pending(layer);
            pool.submit_owned(layer, buf, hp);
        };
        for i in (0..nb).rev() {
            hooks.fire(i, HookPoint::PreBackward, &ctx(i));
            let blk = Arc::clone(&shared_blocks[i]);
            for tx in &cmd_txs {
                q_depth.add(1);
                tx.send(Cmd::Backward(Arc::clone(&blk), i))
                    .expect("executor alive");
            }
            let span = self
                .tel
                .span("compute", span_label(&self.tel, || format!("bp L{i}")));
            let mut parts: Vec<Box<BlockGrads>> = Vec::with_capacity(self.streams);
            for rx in &reply_rxs {
                if let Reply::Grads(g) = rx.recv().expect("bp reply") {
                    parts.push(g); // fixed executor order
                }
                q_depth.add(-1);
            }
            let total = fold_owned(&stream_plan, parts, |acc, part| acc.accumulate(&part))
                .expect("at least one executor");
            span.end();
            if plan.streaming {
                let mut buf = self.pool.recycled_buffer();
                total.flatten_into(&mut buf);
                // Half modes: the gradient rounds through the transfer
                // format before the optimizer/sink sees it, exactly like
                // the windowed backend's D2H engine.
                pack.round_through(&mut buf);
                sink.layer_ready(i, buf, &deliver);
            } else {
                total.flatten_into(&mut ws.block_grads[i]);
                pack.round_through(&mut ws.block_grads[i]);
            }
            hooks.fire(i, HookPoint::PostBackward, &ctx(i));
        }

        // ---- Resident groups (embedding + final LN): executor partials
        // (already sample-scaled trees) fold down the canonical tree over
        // the stream index on the driver once the executors retire. ----
        for tx in &cmd_txs {
            tx.send(Cmd::Stop).expect("executor alive");
        }
        let mut shell_grads = Vec::with_capacity(self.streams);
        for h in handles {
            shell_grads.push(h.join().expect("executor join"));
        }
        ws.resident_grads = fold_owned(&stream_plan, shell_grads, |acc, part| {
            acc.accumulate_scaled(&part, 1.0)
        })
        .expect("at least one executor");

        if ws.streamed && want_norm {
            for (p, bits) in ws.norm_partials.iter_mut().zip(&norm_bits) {
                *p = f64::from_bits(bits.load(Ordering::Relaxed));
            }
        }

        tree_sum(&exec_losses) / b as f32
    }

    fn dispatch_block_update(&mut self, layer: usize, grads: &[f32], hp: &AdamParams) {
        self.store.mark_pending(layer);
        self.pool.submit_with(layer, grads, *hp);
    }

    fn resident_params_mut(&mut self) -> ResidentParamsMut<'_> {
        let shell = Arc::get_mut(&mut self.shell).expect("executors stopped");
        ResidentParamsMut {
            token: shell.embedding.token.data_mut(),
            position: shell.embedding.position.data_mut(),
            lnf_g: shell.lnf_g.data_mut(),
            lnf_b: shell.lnf_b.data_mut(),
        }
    }

    /// The per-step barrier the original driver had: all updates applied
    /// before the step returns.
    fn finish_step(&mut self) {
        self.pool.flush();
    }

    /// Mean loss over a batch without updating, streaming layers through a
    /// cached slot block (same FP op sequence as the windowed backend's
    /// eval, so cross-backend eval results agree bitwise). The slot and the
    /// staging buffer persist across calls — no per-eval heap allocation on
    /// the parameter path.
    fn eval_loss(&self, batch: &[(Vec<u32>, Vec<u32>)]) -> f32 {
        self.pool.flush();
        let mut guard = self.eval_slot.lock().expect("eval slot");
        let slot = guard.get_or_insert_with(|| self.slot.clone());
        let mut stage = self.stage.lock().expect("stage");
        let mut pack = self.pack.lock().expect("pack");
        let mut x: Vec<Tensor> = batch.iter().map(|(t, _)| self.shell.embed(t)).collect();
        for i in 0..self.cfg.layers {
            self.store.read_params_into(i, &mut stage);
            // Same device-resident value grid as training (no-op at F32).
            pack.round_through(&mut stage);
            slot.load_flat_params(&stage);
            let next: Vec<Tensor> = x.iter().map(|xs| slot.forward_no_cache(xs)).collect();
            for t in std::mem::replace(&mut x, next) {
                scratch::give(t);
            }
        }
        let mut sum = 0.0f32;
        for (s, (_, targets)) in batch.iter().enumerate() {
            let (l, dx, cache) = self.shell.head_forward_loss(&x[s], targets);
            scratch::give(dx);
            cache.recycle();
            sum += l;
        }
        for t in x {
            scratch::give(t);
        }
        sum / batch.len() as f32
    }

    /// Reassembles the full model from the shared shell and the layer store.
    fn model_blob(&self) -> Bytes {
        let mut full = Transformer {
            cfg: self.cfg,
            embedding: self.shell.embedding.clone(),
            blocks: Vec::with_capacity(self.store.len()),
            lnf_g: self.shell.lnf_g.clone(),
            lnf_b: self.shell.lnf_b.clone(),
        };
        let mut stage = self.stage.lock().expect("stage");
        for i in 0..self.store.len() {
            let mut blk = self.slot.clone();
            self.store.read_params_into(i, &mut stage);
            blk.load_flat_params(&stage);
            full.blocks.push(blk);
        }
        stronghold_model::serialize::save(&full)
    }

    fn block_adam_snapshot(&self, layer: usize) -> AdamState {
        self.store.adam_snapshot(layer)
    }

    fn flush(&self) {
        self.pool.flush();
    }

    /// Only the optimizer pool is live-tunable here: resizing the stream
    /// count would change the executor fold tree (breaking bit-identity),
    /// and this backend has no working window or offload engine — those
    /// knobs are pinned at their current values.
    fn tune_limits(&self) -> Option<TuneLimits> {
        Some(TuneLimits {
            window: (1, 1),
            offload_workers: (0, 0),
            compute_workers: (self.streams, self.streams),
            optimizer_workers: (1, 8),
            spill_workers: (0, 0),
        })
    }

    fn current_tuning(&self) -> Tuning {
        Tuning {
            window: 1,
            offload_workers: 0,
            compute_workers: self.streams,
            optimizer_workers: self.pool.workers(),
            spill_workers: 0,
        }
    }

    fn apply_tuning(&mut self, t: Tuning) {
        if t.optimizer_workers != self.pool.workers() {
            self.pool.set_workers(t.optimizer_workers.max(1));
        }
    }

    fn stall_signals(&self) -> StallSignals {
        StallSignals {
            optim_backlog: self.pool.pending() as u64,
            ..StallSignals::default()
        }
    }
}

/// A functional multi-stream trainer: `k` executors over one offloaded
/// model copy, run as a facade over the shared [`Engine`].
pub struct MultiStreamTrainer {
    engine: Engine<MultiStreamBackend>,
}

impl MultiStreamTrainer {
    /// Builds the trainer with `streams` executors (no telemetry).
    ///
    /// # Panics
    /// Panics if `streams == 0` or the batch cannot be partitioned.
    pub fn new(
        cfg: ModelConfig,
        seed: u64,
        streams: usize,
        workers: usize,
        hp: AdamParams,
    ) -> Self {
        MultiStreamTrainer::with_telemetry(cfg, seed, streams, workers, hp, Telemetry::disabled())
    }

    /// [`MultiStreamTrainer::new`] recording executor command-queue depth,
    /// per-layer weight-load spans, per-step `step.lr` / `step.grad_norm`
    /// gauges, and optimizer-pool metrics into `tel`.
    ///
    /// # Panics
    /// Panics if `streams == 0` or the batch cannot be partitioned.
    pub fn with_telemetry(
        cfg: ModelConfig,
        seed: u64,
        streams: usize,
        workers: usize,
        hp: AdamParams,
        tel: Telemetry,
    ) -> Self {
        MultiStreamTrainer::with_options(
            cfg,
            seed,
            streams,
            workers,
            EngineOptions {
                adam: hp,
                ..EngineOptions::default()
            },
            tel,
        )
    }

    /// [`MultiStreamTrainer::with_telemetry`] with full engine options (LR
    /// schedule, gradient clipping).
    pub fn with_options(
        cfg: ModelConfig,
        seed: u64,
        streams: usize,
        workers: usize,
        opts: EngineOptions,
        tel: Telemetry,
    ) -> Self {
        let backend = MultiStreamBackend::from_model(
            Transformer::new(cfg, seed),
            streams,
            workers,
            opts.adam,
            opts.precision,
            tel,
        );
        MultiStreamTrainer {
            engine: Engine::new(backend, opts),
        }
    }

    /// The device-residency / transfer precision in force.
    pub fn precision(&self) -> Precision {
        self.engine.backend().precision
    }

    /// The stream count.
    pub fn streams(&self) -> usize {
        self.engine.backend().streams
    }

    /// The live autotune controller, when [`EngineOptions::autotune`] is
    /// set (optimizer-pool workers are the only tunable knob here).
    pub fn autotune(&self) -> Option<&crate::host::autotune::AutotuneController> {
        self.engine.autotune()
    }

    /// The telemetry handle this trainer records into.
    pub fn telemetry(&self) -> &Telemetry {
        self.engine.telemetry()
    }

    /// Completed optimizer steps.
    pub fn steps(&self) -> u64 {
        self.engine.steps()
    }

    /// The hook registry; register pipeline callbacks here.
    pub fn hooks_mut(&mut self) -> &mut HookRegistry {
        self.engine.hooks_mut()
    }

    /// Total hook invocations so far.
    pub fn hook_invocations(&self) -> u64 {
        self.engine.hooks().invocations()
    }

    /// Flat parameters of block `i`.
    pub fn block_params(&self, i: usize) -> Vec<f32> {
        self.engine.backend().store.read_params(i)
    }

    /// One training step; returns the mean loss across the batch.
    pub fn train_step(&mut self, batch: &[(Vec<u32>, Vec<u32>)]) -> f32 {
        self.engine.train_step(batch)
    }

    /// Mean loss over a batch without updating (evaluation).
    pub fn eval_loss(&self, batch: &[(Vec<u32>, Vec<u32>)]) -> f32 {
        self.engine.eval_loss(batch)
    }

    /// Serializes the full training state (see
    /// [`Engine::save_training_state`]).
    pub fn save_training_state(&self) -> Bytes {
        self.engine.save_training_state()
    }

    /// Restores a trainer from [`Self::save_training_state`] output (which
    /// may have been written by *any* backend). `cfg` guards against
    /// resuming with the wrong model shape; malformed blobs yield a typed
    /// [`RuntimeError::Checkpoint`].
    pub fn load_training_state(
        blob: Bytes,
        cfg: ModelConfig,
        streams: usize,
        workers: usize,
        opts: EngineOptions,
    ) -> Result<Self, RuntimeError> {
        let st = TrainingState::decode(blob)?;
        st.expect_config(&cfg)?;
        st.expect_precision(opts.precision)?;
        let TrainingState {
            step,
            model,
            block_adams,
            resident_adams,
            ..
        } = st;
        let backend = MultiStreamBackend::from_model(
            model,
            streams,
            workers,
            opts.adam,
            opts.precision,
            Telemetry::disabled(),
        );
        for (i, adam) in block_adams.into_iter().enumerate() {
            backend.store.set_adam(i, adam);
        }
        Ok(MultiStreamTrainer {
            engine: Engine::resume(backend, opts, step, resident_adams),
        })
    }
}

/// The executor thread body: owns its micro-batch state across the step and
/// returns its (scaled) resident-group gradients at the end.
fn executor_loop(
    shell: Arc<Transformer>,
    batch: Vec<(Vec<u32>, Vec<u32>)>,
    scale: f32,
    rx: Receiver<Cmd>,
    tx: Sender<Reply>,
) -> stronghold_model::transformer::TransformerGrads {
    let mut st = ExecutorState {
        x: batch.iter().map(|(t, _)| shell.embed(t)).collect(),
        inputs: Vec::new(),
        dy: Vec::new(),
        scale,
        batch,
    };
    let n = st.batch.len();
    // Per-sample reductions run down the canonical tree so that a
    // single-stream run is bit-identical to the resident/offloaded
    // trainers (and so micro-batch boundaries stay invisible at k = 1).
    let fold_plan = FoldPlan::new(n);
    let mut scratches: Vec<_> = (0..n).map(|_| shell.zero_grads()).collect();
    let mut sample: Option<BlockGrads> = None;
    let mut block_slots: Vec<BlockGrads> = Vec::new();
    let mut resident = shell.zero_grads();
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Forward(blk) => {
                st.inputs.push(st.x.clone());
                st.x = st.x.iter().map(|xs| blk.forward_no_cache(xs)).collect();
                tx.send(Reply::ForwardDone).expect("driver alive");
            }
            Cmd::Head => {
                let mut losses = Vec::with_capacity(n);
                st.dy.clear();
                for (s, (_, targets)) in st.batch.iter().enumerate() {
                    let (l, dx, cache) = shell.head_forward_loss(&st.x[s], targets);
                    losses.push(l);
                    shell.head_backward(&cache, &mut scratches[s]);
                    st.dy.push(dx);
                }
                tx.send(Reply::HeadLoss(tree_sum(&losses)))
                    .expect("driver alive");
            }
            Cmd::Backward(blk, layer) => {
                if n == 0 {
                    tx.send(Reply::Grads(Box::new(blk.zero_grads())))
                        .expect("driver alive");
                    continue;
                }
                let sample = sample.get_or_insert_with(|| blk.zero_grads());
                while block_slots.len() < fold_plan.depth() {
                    block_slots.push(blk.zero_grads());
                }
                fold_with(
                    &fold_plan,
                    &mut block_slots,
                    |s, slot| {
                        sample.zero_();
                        let (_, cache) = blk.forward(&st.inputs[layer][s]);
                        let dx = blk.backward(&st.dy[s], &st.inputs[layer][s], &cache, sample);
                        st.dy[s] = dx;
                        slot.zero_();
                        slot.accumulate_scaled(sample, st.scale);
                    },
                    |acc, part| acc.accumulate(part),
                );
                let out = std::mem::replace(&mut block_slots[0], blk.zero_grads());
                tx.send(Reply::Grads(Box::new(out))).expect("driver alive");
            }
            Cmd::Stop => {
                // Embedding backward, then fold per-sample scratches down
                // the same tree.
                for (s, (tokens, _)) in st.batch.iter().enumerate() {
                    shell.embed_backward(&st.dy[s], tokens, &mut scratches[s]);
                }
                if n > 0 {
                    let mut slots: Vec<_> =
                        (0..fold_plan.depth()).map(|_| shell.zero_grads()).collect();
                    fold_with(
                        &fold_plan,
                        &mut slots,
                        |s, slot| {
                            slot.zero_();
                            slot.accumulate_scaled(&scratches[s], st.scale);
                        },
                        |acc, part| acc.accumulate_scaled(part, 1.0),
                    );
                    std::mem::swap(&mut resident, &mut slots[0]);
                }
                break;
            }
        }
    }
    resident
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{HostOffloadConfig, HostOffloadTrainer};
    use stronghold_model::config::tiny;
    use stronghold_model::data::SyntheticCorpus;

    fn adam() -> AdamParams {
        AdamParams {
            lr: 2e-3,
            ..AdamParams::default()
        }
    }

    fn batch(cfg: &ModelConfig, seed: u64) -> Vec<(Vec<u32>, Vec<u32>)> {
        SyntheticCorpus::new(cfg.vocab, seed).next_batch(4, cfg.seq - 1)
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = tiny(3);
        let run = || {
            let mut t = MultiStreamTrainer::new(cfg, 10, 2, 3, adam());
            let data = batch(&cfg, 50);
            let mut losses = Vec::new();
            for _ in 0..3 {
                losses.push(t.train_step(&data));
            }
            (
                losses,
                (0..cfg.layers)
                    .map(|i| t.block_params(i))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_stream_matches_offload_trainer_bitwise() {
        // With k = 1 the executor accumulates samples in exactly the same
        // order as the single-stream pipeline.
        let cfg = tiny(3);
        let data = batch(&cfg, 51);
        let mut ms = MultiStreamTrainer::new(cfg, 13, 1, 2, adam());
        let mut single = HostOffloadTrainer::new(
            cfg,
            13,
            HostOffloadConfig {
                window: cfg.layers,
                optimizer_workers: 2,
                adam: adam(),
                ..HostOffloadConfig::default()
            },
        );
        for _ in 0..3 {
            let a = ms.train_step(&data);
            let b = single.train_step(&data);
            assert_eq!(a, b, "losses diverged");
        }
        single.flush();
        for i in 0..cfg.layers {
            assert_eq!(ms.block_params(i), single.block_params(i), "block {i}");
        }
    }

    #[test]
    fn multi_stream_close_to_single_stream() {
        // Different reduction grouping -> not bitwise, but numerically tight.
        let cfg = tiny(3);
        let data = batch(&cfg, 52);
        let mut one = MultiStreamTrainer::new(cfg, 14, 1, 2, adam());
        let mut four = MultiStreamTrainer::new(cfg, 14, 4, 2, adam());
        for _ in 0..3 {
            let la = one.train_step(&data);
            let lb = four.train_step(&data);
            assert!((la - lb).abs() < 1e-4, "{la} vs {lb}");
        }
        for i in 0..cfg.layers {
            let a = one.block_params(i);
            let b = four.block_params(i);
            let max_diff = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(max_diff < 1e-4, "block {i} diff {max_diff}");
        }
    }

    #[test]
    fn telemetry_queue_depth_balances() {
        let cfg = tiny(3);
        let tel = Telemetry::enabled();
        let mut t = MultiStreamTrainer::with_telemetry(cfg, 16, 2, 2, adam(), tel.clone());
        let data = batch(&cfg, 54);
        t.train_step(&data);
        let g = tel.gauge("multistream.cmd_queue_depth");
        assert_eq!(g.get(), 0, "all commands answered");
        assert!(g.peak() >= 1);
        // One weight-load span per layer per step.
        let loads = tel.spans().iter().filter(|s| s.track == "h2d-copy").count();
        assert_eq!(loads, cfg.layers);
    }

    #[test]
    fn eval_matches_offloaded_eval() {
        let cfg = tiny(3);
        let data = batch(&cfg, 55);
        let ms = MultiStreamTrainer::new(cfg, 17, 2, 2, adam());
        let off = HostOffloadTrainer::new(cfg, 17, HostOffloadConfig::default());
        assert_eq!(ms.eval_loss(&data), off.eval_loss(&data));
    }

    #[test]
    fn loss_decreases_with_streams() {
        let cfg = tiny(3);
        let data = batch(&cfg, 53);
        let mut t = MultiStreamTrainer::new(
            cfg,
            15,
            2,
            3,
            AdamParams {
                lr: 5e-3,
                ..AdamParams::default()
            },
        );
        let first = t.train_step(&data);
        let mut last = first;
        for _ in 0..15 {
            last = t.train_step(&data);
        }
        assert!(last < first * 0.8, "loss {first} -> {last}");
    }
}
