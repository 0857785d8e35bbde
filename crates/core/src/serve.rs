//! Continuous-batching generation server on the windowed offload runtime.
//!
//! STRONGHOLD's §VI-D3 observation — FP-only mode serves models far larger
//! than the device could *train* — becomes a real workload here: the same
//! working-window machinery that streams layers H2D under training compute
//! streams them under *decode* compute, so a model whose parameter bytes
//! exceed the device arena generates tokens end-to-end.
//!
//! ## Device arena layout
//!
//! The device budget is carved into two regions, both accounted on the one
//! [`HostDevice`] so capacity violations are loud:
//!
//! * **`m+1` parameter slots** — exactly the training layout: the
//!   prefetcher stages layer `i+1..i+m` while the compute loop runs layer
//!   `i`, each staged layer holding `block_bytes` (half-width on the wire
//!   in bf16/f16 modes, via [`PackedHalf`] round-through).
//! * **The KV arena** — `slots × layers` per-sequence K/V caches of
//!   `2 · max_seq · hidden` f32 entries each, allocated once at engine
//!   construction and reused as sequences finish (admission = slot reuse,
//!   never an allocation). Per head, keys sit in the GEMM engine's panel
//!   layout — `[⌈max_seq/NR⌉][dh][NR]`, token `t` in lane `t mod NR` of
//!   panel `⌊t/NR⌋`, written in place as the token is appended — so the
//!   scores product reads them directly; values stay row-major
//!   `[max_seq][dh]`. Byte accounting counts entries, not panel padding.
//!
//! Weights are held the same way. At construction the host store becomes
//! one [`DecodeBlock`] image per layer — LN vectors and biases as they are,
//! the four weight matrices packed once into panels — and the tied LM head
//! is packed once beside the embedding. Shells are images too, so staging
//! a layer is a plain copy (plus the half-width round-through), and no
//! weight, head row or cached key is ever packed in a round. Parameter
//! byte counters (`block_bytes`, H2D traffic, [`ServeEngine::param_bytes`])
//! count parameters, not padding.
//!
//! Given a fixed `device_capacity`, the window is derived from what remains
//! *after* the KV arena — the serving analogue of the training-side
//! `tune_limits`/`m_mem_max` bound: `m = ⌊(capacity − kv_bytes)/block_bytes⌋ − 1`.
//!
//! ## Scheduling
//!
//! [`ServeEngine::step`] runs one engine round: FIFO admission into free
//! slots, one layer-streamed pass over every active sequence (freshly
//! admitted sequences run their whole prompt — *prefill* — in the same
//! round in-flight sequences run their single pending token — *decode*),
//! then the tied LM head and per-request sampling. Parameter H2D overlaps
//! decode compute exactly as it overlaps training compute: the prefetcher
//! thread stages layer `i+1` while the compute loop runs layer `i`. That
//! thread lives as long as the engine and is woken once per round, so a
//! round spawns no thread.
//!
//! The compute loop runs each layer once for all slots together. Every
//! active slot's pending rows are stacked, in slot order, into one
//! `[ΣR, H]` activation (Orca-style selective batching), and each streamed
//! layer runs over the whole stack with
//! [`DecodeBlock::forward_decode_batch`]: LN1 → QKV → proj → LN2 → fc1 →
//! GELU → fc2 are single GEMMs over pre-packed weights (never packed in a
//! round) and row-wise ops. The only per-slot step is the ragged attention
//! section, where each slot's rows push to and attend over its own KV cache;
//! [`ServeConfig::compute_workers`] fans those runs across threads. The
//! head works the same way: each slot's last row is gathered into
//! `[B, H]` for one final layernorm and one `[B, vocab]` product, then
//! every slot samples from its own logits row. The stacked activations
//! and all intermediates live in one engine-owned batch workspace, grown
//! on first use and reused every round.
//!
//! ## Determinism
//!
//! Each sequence's math touches only its own KV cache, the shared streamed
//! weights, and its own seeded sampling RNG. Stacking does not change the
//! bits: every product runs through the batch-stable GEMM entries — over
//! pre-packed panels, read by the same loop in the same order as panels
//! packed on the fly — whose per-row result does not depend on how many
//! rows share the call; layernorm and GELU are row- and element-wise; and
//! every softmax covers exactly one sequence's causal prefix. Token streams are
//! therefore bit-identical across window sizes, slot counts, worker
//! counts, arrival interleavings, and prefill/decode splits — asserted by
//! the integration suite.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use crossbeam_channel::{bounded, Receiver, Sender};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use stronghold_model::block::{BlockDecodeScratch, DecodeBlock};
use stronghold_model::config::ModelConfig;
use stronghold_model::transformer::{HeadDecodeScratch, Transformer};
use stronghold_tensor::attention::KvCache;
use stronghold_tensor::init::seeded_rng;
use stronghold_tensor::matmul::PackedB;
use stronghold_tensor::{PackedHalf, Precision, Tensor};

use crate::error::RuntimeError;
use crate::host::device::HostDevice;
use crate::host::engine::TrainingState;
use crate::telemetry::{span_label, Counter, Gauge, Histogram, Telemetry};

/// Configuration of a [`ServeEngine`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Working-window size `m` (staged parameter slots beyond the one being
    /// computed). Clamped to what `device_capacity` admits beside the KV
    /// arena.
    pub window: usize,
    /// Concurrent sequence slots (the KV arena's sequence capacity).
    pub slots: usize,
    /// Per-sequence token capacity; `0` means the model's trained context
    /// (`cfg.seq`). Clamped to the positional table.
    pub max_seq: usize,
    /// Threads fanning the per-slot ragged attention section of each layer
    /// across the round's sequences (the linears are one stacked GEMM per
    /// layer and need no fan-out). `1` keeps the whole round on the driver
    /// thread.
    pub compute_workers: usize,
    /// Device-side parameter precision: H2D payloads shrink to half width
    /// and the device computes on the half grid, exactly as in training.
    pub precision: Precision,
    /// Fixed device byte budget. `None` sizes the device to exactly the
    /// window plus the KV arena; `Some` derives the window from what the
    /// budget leaves beside the arena.
    pub device_capacity: Option<u64>,
    /// Sampling temperature; `0.0` is greedy argmax (lowest index wins
    /// ties). Positive values sample from the softmax-scaled distribution
    /// using each request's seeded RNG.
    pub temperature: f32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            window: 2,
            slots: 2,
            max_seq: 0,
            compute_workers: 1,
            precision: Precision::F32,
            device_capacity: None,
            temperature: 0.0,
        }
    }
}

/// One generation request.
#[derive(Clone, Debug)]
pub struct GenRequest {
    /// Caller-chosen request id, echoed in the result.
    pub id: u64,
    /// Prompt tokens (must be non-empty).
    pub prompt: Vec<u32>,
    /// Tokens to generate.
    pub max_new_tokens: usize,
    /// Seed for this request's sampling RNG (ignored under greedy).
    pub seed: u64,
}

/// A finished generation.
#[derive(Clone, Debug)]
pub struct GenResult {
    /// The request id.
    pub id: u64,
    /// Prompt length, for throughput accounting.
    pub prompt_len: usize,
    /// Generated tokens, in order.
    pub tokens: Vec<u32>,
    /// Nanoseconds from admission into a slot to the first generated
    /// token (time spent queued before admission is not included).
    pub ttft_ns: u64,
    /// Nanoseconds from admission into a slot to completion.
    pub latency_ns: u64,
    /// Engine rounds this request was active in.
    pub rounds: u64,
}

/// A request occupying a slot.
struct ActiveReq {
    id: u64,
    rng: ChaCha8Rng,
    max_new_tokens: usize,
    prompt_len: usize,
    generated: Vec<u32>,
    /// Tokens already in the KV caches (absolute position of `pending[0]`).
    pos: usize,
    /// Tokens to run this round: the prompt on the admission round
    /// (prefill), the last sampled token after (decode).
    pending: Vec<u32>,
    admitted_ns: u64,
    ttft_ns: Option<u64>,
    rounds: u64,
}

/// The engine-owned batch workspace: the round's stacked activation and
/// every intermediate of the layer and head passes, grown on first use and
/// reused every round.
struct DecodeBatch {
    /// Pending rows per slot this round, in slot order (`0` = idle slot).
    runs: Vec<usize>,
    x: Tensor,
    y: Tensor,
    ws: BlockDecodeScratch,
    head_ws: HeadDecodeScratch,
    logits: Tensor,
}

/// The continuous-batching generation engine.
pub struct ServeEngine {
    model: Transformer, // embedding + final LN; blocks live in `store`
    /// Host-side layer store: one packed serving image per layer, shared
    /// with the H2D thread.
    store: Arc<Vec<DecodeBlock>>,
    stream: LayerStream,
    /// The tied LM head, packed once.
    head: PackedB,
    device: Arc<HostDevice>,
    /// The KV arena, layer-major: `kv[layer][slot]`, so one layer's caches
    /// for every slot are one slice.
    kv: Vec<Vec<KvCache>>,
    slots: Vec<Option<ActiveReq>>,
    batch: DecodeBatch,
    queue: VecDeque<GenRequest>,
    window: usize,
    block_bytes: u64,
    kv_bytes: u64,
    max_seq: usize,
    temperature: f32,
    tel: Telemetry,
    clock: Instant,
    c_requests: Counter,
    c_admitted: Counter,
    c_completed: Counter,
    c_tokens: Counter,
    c_prefill_tokens: Counter,
    c_decode_tokens: Counter,
    c_rounds: Counter,
    g_active: Gauge,
    g_queue: Gauge,
    h_round: Histogram,
    h_batch_rows: Histogram,
    h_ttft: Histogram,
    h_latency: Histogram,
}

impl ServeEngine {
    /// Builds an engine over a freshly initialized model (tests, benches).
    pub fn new(mcfg: ModelConfig, seed: u64, cfg: ServeConfig) -> Self {
        Self::from_model(Transformer::new(mcfg, seed), cfg, Telemetry::disabled())
    }

    /// Builds an engine from a model, packing its blocks into the CPU-side
    /// layer store of serving images (each block is dropped once packed).
    pub fn from_model(mut model: Transformer, cfg: ServeConfig, tel: Telemetry) -> Self {
        let mcfg = model.cfg;
        let layers = mcfg.layers;
        assert!(layers > 0, "serve: model has no layers");
        assert!(cfg.slots > 0, "serve: need at least one slot");
        let max_seq = if cfg.max_seq == 0 {
            mcfg.seq
        } else {
            cfg.max_seq.min(mcfg.seq)
        };
        let block_bytes = mcfg.block_params() * cfg.precision.param_bytes();
        // KV entries stay f32 on the device: decode math runs on full-width
        // activations even when parameters travel half-width.
        let kv_bytes_per_cache = (2 * max_seq * mcfg.hidden * 4) as u64;
        let kv_bytes = cfg.slots as u64 * layers as u64 * kv_bytes_per_cache;
        // The serving analogue of `tune_limits`/`m_mem_max`: a fixed budget
        // admits the largest window that fits beside the KV arena.
        let window = match cfg.device_capacity {
            Some(cap) => {
                let m_max = (cap.saturating_sub(kv_bytes) / block_bytes).saturating_sub(1);
                cfg.window.min(m_max.max(1) as usize).clamp(1, layers)
            }
            None => cfg.window.clamp(1, layers),
        };
        let capacity = cfg
            .device_capacity
            .unwrap_or((window as u64 + 1) * block_bytes + kv_bytes);
        let device = Arc::new(HostDevice::with_telemetry(capacity, &tel));
        // The KV arena is carved out of the device pool up front and pinned
        // for the engine's lifetime; slot reuse rewinds caches in place.
        device.alloc(kv_bytes);

        let store: Arc<Vec<DecodeBlock>> = Arc::new(
            model
                .blocks
                .drain(..)
                .map(|b| DecodeBlock::pack(&b))
                .collect(),
        );
        let stream = LayerStream::spawn(
            Arc::clone(&store),
            vec![store[0].clone(); window + 1],
            block_bytes,
            cfg.precision,
            Arc::clone(&device),
            tel.clone(),
        );
        let head = model.pack_head();

        let heads = mcfg.heads;
        let dh = mcfg.hidden / heads;
        let kv = (0..layers)
            .map(|_| {
                (0..cfg.slots)
                    .map(|_| KvCache::new(heads, dh, max_seq))
                    .collect()
            })
            .collect();
        let batch = DecodeBatch {
            runs: Vec::with_capacity(cfg.slots),
            x: Tensor::zeros([1]),
            y: Tensor::zeros([1]),
            ws: BlockDecodeScratch::with_workers(cfg.compute_workers),
            head_ws: HeadDecodeScratch::new(),
            logits: Tensor::zeros([1]),
        };

        tel.gauge("serve.kv_bytes").set(kv_bytes as i64);
        ServeEngine {
            model,
            store,
            stream,
            head,
            device,
            kv,
            slots: (0..cfg.slots).map(|_| None).collect(),
            batch,
            queue: VecDeque::new(),
            window,
            block_bytes,
            kv_bytes,
            max_seq,
            temperature: cfg.temperature,
            clock: Instant::now(),
            c_requests: tel.counter("serve.requests"),
            c_admitted: tel.counter("serve.admitted"),
            c_completed: tel.counter("serve.completed"),
            c_tokens: tel.counter("serve.tokens"),
            c_prefill_tokens: tel.counter("serve.prefill_tokens"),
            c_decode_tokens: tel.counter("serve.decode_tokens"),
            c_rounds: tel.counter("serve.rounds"),
            g_active: tel.gauge("serve.active_slots"),
            g_queue: tel.gauge("serve.queue_depth"),
            h_round: tel.histogram("serve.round_ns"),
            h_batch_rows: tel.histogram("serve.batch_rows"),
            h_ttft: tel.histogram("serve.ttft_ns"),
            h_latency: tel.histogram("serve.request_latency_ns"),
            tel,
        }
    }

    /// Builds an engine from an SHTS training-state blob (the universal
    /// checkpoint every trainer writes): the FP32 masters become the layer
    /// store, optimizer moments are dropped. A trained blob serves directly.
    pub fn from_state_blob(
        blob: Bytes,
        cfg: ServeConfig,
        tel: Telemetry,
    ) -> Result<Self, RuntimeError> {
        let st = TrainingState::decode(blob)?;
        Ok(Self::from_model(st.model, cfg, tel))
    }

    /// Builds an engine from a model-only SHCK checkpoint blob.
    pub fn from_checkpoint_blob(
        blob: Bytes,
        cfg: ServeConfig,
        tel: Telemetry,
    ) -> Result<Self, RuntimeError> {
        let model = stronghold_model::serialize::load(blob)
            .map_err(|e| RuntimeError::Checkpoint(format!("model blob: {e}")))?;
        Ok(Self::from_model(model, cfg, tel))
    }

    /// The resolved working-window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Bytes pinned by the KV arena.
    pub fn kv_arena_bytes(&self) -> u64 {
        self.kv_bytes
    }

    /// Per-layer parameter bytes as staged on the device (half-width in
    /// bf16/f16 modes).
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Total parameter bytes of the served model at FP32 (the host-side
    /// store): when this exceeds [`HostDevice::capacity`], the engine is
    /// serving a model larger than the device arena.
    pub fn param_bytes(&self) -> u64 {
        self.store
            .iter()
            .map(|l| l.param_count() as u64 * 4)
            .sum::<u64>()
            + self.model.embedding.param_count() as u64 * 4
            + (self.model.lnf_g.numel() + self.model.lnf_b.numel()) as u64 * 4
    }

    /// The capacity-accounted device.
    pub fn device(&self) -> &HostDevice {
        &self.device
    }

    /// The engine's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Sequences currently holding a slot.
    pub fn active_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Requests waiting for a slot.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a request (FIFO admission at the next round boundary).
    ///
    /// # Panics
    /// Panics if the prompt is empty or `prompt + max_new_tokens` cannot
    /// fit the per-sequence token capacity.
    pub fn submit(&mut self, req: GenRequest) {
        assert!(!req.prompt.is_empty(), "serve: empty prompt");
        assert!(req.max_new_tokens > 0, "serve: zero tokens requested");
        assert!(
            req.prompt.len() + req.max_new_tokens <= self.max_seq,
            "serve: request needs {} tokens, slot capacity is {}",
            req.prompt.len() + req.max_new_tokens,
            self.max_seq
        );
        self.c_requests.incr();
        self.queue.push_back(req);
        self.g_queue.set(self.queue.len() as i64);
    }

    /// Submits a batch and runs rounds until every request finishes.
    /// Results are returned in completion order.
    pub fn generate(&mut self, reqs: Vec<GenRequest>) -> Vec<GenResult> {
        for r in reqs {
            self.submit(r);
        }
        let mut out = Vec::new();
        loop {
            let done = self.step();
            out.extend(done);
            if self.queue.is_empty() && self.active_slots() == 0 {
                return out;
            }
        }
    }

    /// FIFO admission: pops queued requests into free slots. The freshly
    /// admitted request's whole prompt becomes its pending token run, so
    /// its prefill rides the same layer stream as everyone else's decode.
    fn admit(&mut self) {
        let now = self.now_ns();
        for (s, slot) in self.slots.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let Some(req) = self.queue.pop_front() else {
                break;
            };
            for layer in self.kv.iter_mut() {
                layer[s].clear();
            }
            let prompt_len = req.prompt.len();
            *slot = Some(ActiveReq {
                id: req.id,
                rng: seeded_rng(req.seed),
                max_new_tokens: req.max_new_tokens,
                prompt_len,
                generated: Vec::with_capacity(req.max_new_tokens),
                pos: 0,
                pending: req.prompt,
                admitted_ns: now,
                ttft_ns: None,
                rounds: 0,
            });
            self.c_admitted.incr();
        }
        self.g_queue.set(self.queue.len() as i64);
        self.g_active.set(self.active_slots() as i64);
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Runs one engine round; returns the requests that finished in it.
    ///
    /// A round is: admission → embed every active slot's pending tokens
    /// into one stacked `[ΣR, H]` activation → one streamed pass over all
    /// layers, each a single stacked [`DecodeBlock::forward_decode_batch`]
    /// (prefetcher thread staging H2D ahead of compute, `m+1` shells
    /// circulating through the device budget) → one batched last-row LM
    /// head → one sampled token per active slot.
    pub fn step(&mut self) -> Vec<GenResult> {
        self.admit();
        let t_round = Instant::now();
        let mut finished = Vec::new();
        if self.active_slots() == 0 {
            return finished;
        }
        self.c_rounds.incr();

        // Stack every active slot's pending run, in slot order, each
        // embedded at its own absolute position.
        let h = self.model.cfg.hidden;
        let batch = &mut self.batch;
        batch.runs.clear();
        batch.runs.extend(
            self.slots
                .iter()
                .map(|s| s.as_ref().map_or(0, |req| req.pending.len())),
        );
        let rows: usize = batch.runs.iter().sum();
        batch.x.reset_for([rows, h]);
        let mut prefill_tokens = 0u64;
        let mut decode_tokens = 0u64;
        let mut row = 0;
        for req in self.slots.iter_mut().flatten() {
            let r = req.pending.len();
            self.model.embedding.forward_at_rows(
                &req.pending,
                req.pos,
                &mut batch.x.data_mut()[row * h..(row + r) * h],
            );
            row += r;
            req.rounds += 1;
            if req.pos == 0 {
                prefill_tokens += r as u64;
            } else {
                decode_tokens += r as u64;
            }
        }
        self.c_prefill_tokens.add(prefill_tokens);
        self.c_decode_tokens.add(decode_tokens);
        self.h_batch_rows.record(rows as u64);

        // ---- one layer-streamed pass over the stacked batch ----
        // The H2D thread stages layer i+1.. while this thread runs layer i
        // over the whole stack (one GEMM per linear; attention per slot
        // against that slot's cache of this layer), then releases the
        // shell back to the window.
        let bb = self.block_bytes;
        let chans = self.stream.chans();
        chans.start.send(()).expect("serving H2D thread alive");
        for _ in 0..self.store.len() {
            let (i, block) = chans.ready.recv().expect("serving H2D thread alive");
            let span = self
                .tel
                .span("serve-compute", span_label(&self.tel, || format!("L{i}")));
            block.forward_decode_batch(
                &batch.x,
                &batch.runs,
                &mut self.kv[i],
                &mut batch.ws,
                &mut batch.y,
            );
            std::mem::swap(&mut batch.x, &mut batch.y);
            span.end();
            self.device.free(bb);
            chans.free.send(block).expect("return shell");
        }

        // ---- batched head + per-slot sampling + completion ----
        let batch = &mut self.batch;
        self.model.lm_logits_packed_batch_into(
            &self.head,
            &batch.x,
            &batch.runs,
            &mut batch.head_ws,
            &mut batch.logits,
        );
        let now = self.now_ns();
        let mut logits = self
            .batch
            .logits
            .data()
            .chunks_exact(self.model.embedding.vocab());
        let temperature = self.temperature;
        for slot in self.slots.iter_mut() {
            let Some(req) = slot.as_mut() else {
                continue;
            };
            let row = logits.next().expect("one logits row per active slot");
            let tok = sample(row, temperature, &mut req.rng);
            req.pos += req.pending.len();
            req.generated.push(tok);
            self.c_tokens.incr();
            if req.ttft_ns.is_none() {
                req.ttft_ns = Some(now.saturating_sub(req.admitted_ns));
                self.h_ttft.record(now.saturating_sub(req.admitted_ns));
            }
            let done = req.generated.len() >= req.max_new_tokens || req.pos >= self.max_seq;
            if done {
                let req = slot.take().expect("active request");
                self.c_completed.incr();
                let latency = now.saturating_sub(req.admitted_ns);
                self.h_latency.record(latency);
                finished.push(GenResult {
                    id: req.id,
                    prompt_len: req.prompt_len,
                    tokens: req.generated,
                    ttft_ns: req.ttft_ns.unwrap_or(latency),
                    latency_ns: latency,
                    rounds: req.rounds,
                });
            } else {
                req.pending.clear();
                req.pending.push(tok);
            }
        }
        self.g_active.set(self.active_slots() as i64);
        self.h_round.record(t_round.elapsed().as_nanos() as u64);
        finished
    }
}

/// The engine's H2D stage: one thread, alive for the engine's lifetime,
/// that streams every layer once per round. It waits for a round start,
/// then for each layer takes a free shell (blocking while all `m+1` are
/// staged or in compute — the window), copies the layer's image in
/// (rounding it through the half-width payload when configured), accounts
/// the copy in parameter bytes, and hands the shell to compute.
struct LayerStream {
    /// Dropped before the join, which unblocks the thread wherever it
    /// waits.
    chans: Option<StreamChans>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// The compute side's channel ends.
struct StreamChans {
    start: Sender<()>,
    ready: Receiver<(usize, DecodeBlock)>,
    free: Sender<DecodeBlock>,
}

impl LayerStream {
    fn spawn(
        store: Arc<Vec<DecodeBlock>>,
        shells: Vec<DecodeBlock>,
        block_bytes: u64,
        precision: Precision,
        device: Arc<HostDevice>,
        tel: Telemetry,
    ) -> Self {
        let window = shells.len() - 1;
        let (start, start_rx) = bounded::<()>(1);
        let (ready_tx, ready) = bounded(window);
        let (free, free_rx) = bounded(window + 1);
        for shell in shells {
            free.send(shell).expect("seed free shells");
        }
        let thread = std::thread::Builder::new()
            .name("serve-h2d".into())
            .spawn(move || {
                let mut pack = PackedHalf::new(precision);
                while start_rx.recv().is_ok() {
                    for (i, image) in store.iter().enumerate() {
                        let Ok(mut shell) = free_rx.recv() else {
                            return;
                        };
                        let span = tel.span("h2d-copy", span_label(&tel, || format!("h2d L{i}")));
                        device.begin_h2d();
                        device.alloc(block_bytes);
                        shell.copy_from(image);
                        shell.round_through(&mut pack);
                        device.end_h2d(block_bytes);
                        span.end();
                        if ready_tx.send((i, shell)).is_err() {
                            return;
                        }
                    }
                }
            })
            .expect("spawn the serving H2D thread");
        LayerStream {
            chans: Some(StreamChans { start, ready, free }),
            thread: Some(thread),
        }
    }

    fn chans(&self) -> &StreamChans {
        self.chans.as_ref().expect("channels live until drop")
    }
}

impl Drop for LayerStream {
    fn drop(&mut self) {
        self.chans = None;
        if let Some(thread) = self.thread.take() {
            // A panic on the H2D thread already surfaced as a closed
            // channel in `step`; dropping must not panic again.
            let _ = thread.join();
        }
    }
}

/// Samples one token from a logits row: greedy argmax at `temperature <= 0`
/// (lowest index wins ties), otherwise softmax-scaled CDF inversion driven
/// by the request's own RNG. Allocation-free. Public so baselines sample
/// through the exact same decision function.
pub fn sample(logits: &[f32], temperature: f32, rng: &mut ChaCha8Rng) -> u32 {
    if temperature <= 0.0 {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in logits.iter().enumerate() {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        return best as u32;
    }
    let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let sum: f32 = logits
        .iter()
        .map(|&v| ((v - max) / temperature).exp())
        .sum();
    let u: f32 = rng.gen_range(0.0..1.0);
    let mut acc = 0.0f32;
    for (i, &v) in logits.iter().enumerate() {
        acc += ((v - max) / temperature).exp() / sum;
        if u < acc {
            return i as u32;
        }
    }
    (logits.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_model::config::tiny;

    fn reqs(n: u64, prompt_len: usize, new_tokens: usize) -> Vec<GenRequest> {
        (0..n)
            .map(|i| GenRequest {
                id: i,
                prompt: (0..prompt_len as u32)
                    .map(|t| (t * 7 + i as u32) % 64)
                    .collect(),
                max_new_tokens: new_tokens,
                seed: 100 + i,
            })
            .collect()
    }

    #[test]
    fn serves_and_completes_fifo() {
        let mut eng = ServeEngine::new(tiny(3), 9, ServeConfig::default());
        let out = eng.generate(reqs(5, 4, 3));
        assert_eq!(out.len(), 5);
        for r in &out {
            assert_eq!(r.tokens.len(), 3);
            assert!(r.latency_ns >= r.ttft_ns);
        }
        assert_eq!(eng.active_slots(), 0);
        assert_eq!(eng.queue_depth(), 0);
    }

    #[test]
    fn batch_rows_histogram_counts_stacked_rows() {
        let tel = Telemetry::enabled();
        let mut eng = ServeEngine::from_model(
            Transformer::new(tiny(2), 9),
            ServeConfig::default(),
            tel.clone(),
        );
        eng.generate(reqs(2, 3, 4));
        // Round 1 stacks both 3-token prompts; rounds 2–4 stack one decode
        // token per slot.
        let h = tel.histogram("serve.batch_rows");
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 6 + 3 * 2);
    }

    #[test]
    fn device_peak_stays_within_arena_budget() {
        let mcfg = tiny(4);
        let mut eng = ServeEngine::new(
            mcfg,
            9,
            ServeConfig {
                window: 1,
                slots: 2,
                ..ServeConfig::default()
            },
        );
        let cap = eng.device().capacity();
        // The model itself cannot fit: only 2 of 4 layers are staged.
        assert!(eng.param_bytes() > cap, "model must exceed the arena");
        let out = eng.generate(reqs(3, 3, 4));
        assert_eq!(out.len(), 3);
        assert!(eng.device().peak() <= cap, "device over budget");
        // Steady state: only the pinned KV arena remains allocated.
        assert_eq!(eng.device().used(), eng.kv_arena_bytes());
    }

    #[test]
    fn capacity_budget_derives_window_beside_kv_arena() {
        let mcfg = tiny(4);
        let bb = mcfg.block_params() as u64 * 4;
        // Budget for the KV arena plus exactly 3 parameter slots => m = 2.
        let probe = ServeEngine::new(mcfg, 9, ServeConfig::default());
        let kv = probe.kv_arena_bytes();
        let eng = ServeEngine::new(
            mcfg,
            9,
            ServeConfig {
                window: 4,
                device_capacity: Some(kv + 3 * bb + bb / 2),
                ..ServeConfig::default()
            },
        );
        assert_eq!(eng.window(), 2, "window must be derived from the budget");
    }

    #[test]
    fn temperature_sampling_is_seed_deterministic() {
        let cfg = ServeConfig {
            temperature: 0.8,
            ..ServeConfig::default()
        };
        let mut a = ServeEngine::new(tiny(2), 9, cfg.clone());
        let mut b = ServeEngine::new(tiny(2), 9, cfg);
        let ta = a.generate(reqs(2, 3, 5));
        let tb = b.generate(reqs(2, 3, 5));
        for (x, y) in ta.iter().zip(tb.iter()) {
            assert_eq!(x.tokens, y.tokens, "same seed must sample same stream");
        }
    }

    #[test]
    #[should_panic(expected = "slot capacity")]
    fn oversized_request_rejected() {
        let mut eng = ServeEngine::new(tiny(2), 9, ServeConfig::default());
        eng.submit(GenRequest {
            id: 0,
            prompt: vec![1; 14],
            max_new_tokens: 14,
            seed: 0,
        });
    }
}
