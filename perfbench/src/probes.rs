//! Direct calls into single layers at a workload's shapes, isolated from
//! the runtime: the compute floor (`model`), one Adam update (`adam`) and
//! swap-file throughput (`nvme`). Each probe repeats its call for a short
//! time budget and reports the median.

use std::hint::black_box;
use std::time::{Duration, Instant};

use stronghold_core::adam::{AdamParams, AdamState};
use stronghold_core::nvme::NvmeStore;
use stronghold_model::transformer::Transformer;
use stronghold_tensor::attention::KvCache;
use stronghold_tensor::{scratch, Tensor};

use crate::stats::median;
use crate::workload::{Batch, ServeShape, TrainShape, MODEL_SEED};

/// Time budget of one probe.
const BUDGET: Duration = Duration::from_millis(400);

/// Median milliseconds of `f` over repeated calls (at least 5, then until
/// the budget is spent).
fn median_ms(mut f: impl FnMut()) -> f64 {
    f(); // warm caches and scratch pools
    let mut ms = Vec::new();
    let start = Instant::now();
    while ms.len() < 5 || start.elapsed() < BUDGET {
        let t = Instant::now();
        f();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&ms)
}

/// One block's forward over the whole batch, and its recompute + backward,
/// exactly as the windowed trainer runs a layer (milliseconds).
pub fn block_fp_bp(shape: &TrainShape, batch: &Batch) -> (f64, f64) {
    let model = Transformer::new(shape.cfg, MODEL_SEED);
    let block = &model.blocks[0];
    let xs: Vec<Tensor> = batch.iter().map(|(t, _)| model.embed(t)).collect();
    let fp = median_ms(|| {
        for x in &xs {
            scratch::give(black_box(block.forward_no_cache(x)));
        }
    });
    let dy = Tensor::full(*xs[0].shape(), 1e-3);
    let mut grads = block.zero_grads();
    let bp = median_ms(|| {
        for x in &xs {
            let (y, cache) = block.forward(x);
            scratch::give(y);
            let dx = block.backward(&dy, x, &cache, &mut grads);
            cache.recycle();
            scratch::give(black_box(dx));
        }
    });
    (fp, bp)
}

/// One decode round's block compute: every slot advances one token through
/// every layer (milliseconds). Contexts start at the longest prompt and grow
/// round by round, so the median sits at a typical mid-stream length.
pub fn decode_round(shape: &ServeShape) -> f64 {
    let cfg = shape.cfg;
    let model = Transformer::new(cfg, MODEL_SEED);
    let dh = cfg.hidden / cfg.heads;
    let prompt: Vec<u32> = (0..shape.prompt.1 as u32)
        .map(|t| t % cfg.vocab as u32)
        .collect();
    let mut ws = stronghold_model::block::BlockDecodeScratch::new();
    let (mut x, mut y) = (Tensor::zeros([1]), Tensor::zeros([1]));
    let mut slots: Vec<Vec<KvCache>> = (0..shape.slots)
        .map(|_| {
            (0..cfg.layers)
                .map(|_| KvCache::new(cfg.heads, dh, cfg.seq))
                .collect()
        })
        .collect();
    let mut run = |kv: &mut [KvCache], tokens: &[u32]| {
        model.embed_at_into(tokens, kv[0].len(), &mut x);
        for (i, c) in kv.iter_mut().enumerate() {
            model.block_forward_decode(i, &x, c, &mut ws, &mut y);
            std::mem::swap(&mut x, &mut y);
        }
    };
    let mut ms = Vec::new();
    let start = Instant::now();
    while ms.len() < 5 || start.elapsed() < BUDGET {
        if ms.is_empty() || slots[0][0].len() + 1 >= cfg.seq {
            for kv in slots.iter_mut() {
                kv.iter_mut().for_each(KvCache::clear);
                run(kv, &prompt);
            }
        }
        let t = Instant::now();
        for kv in slots.iter_mut() {
            run(kv, &[3]);
        }
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&ms)
}

/// One `AdamState::step` over a layer's parameters (milliseconds).
pub fn adam_step(param_len: usize) -> f64 {
    let mut state = AdamState::new(param_len);
    let mut params = vec![0.01f32; param_len];
    let grads = vec![1e-3f32; param_len];
    let hp = AdamParams::default();
    median_ms(|| state.step(black_box(&mut params), &grads, &hp))
}

/// Swap-file write and read throughput at one spilled layer's slot size
/// (params + Adam m + v), through `NvmeStore::write_at`/`read_at`, in MB/s.
pub fn nvme_mb_s(param_len: usize) -> std::io::Result<(f64, f64)> {
    let floats = 3 * param_len;
    let store = NvmeStore::create(2, floats)?;
    let data = vec![0.5f32; floats];
    let mut out = vec![0f32; floats];
    let mut scratch_bytes = Vec::new();
    let mb = (floats * 4) as f64 / 1e6;
    let mut io_err = None;
    let write_ms = median_ms(|| {
        if let Err(e) = store.write_at(1, 0, &data, &mut scratch_bytes) {
            io_err = Some(e);
        }
    });
    let read_ms = median_ms(|| {
        if let Err(e) = store.read_at(1, 0, &mut out, &mut scratch_bytes) {
            io_err = Some(e);
        }
    });
    if let Some(e) = io_err {
        return Err(e);
    }
    Ok((mb / (read_ms / 1e3), mb / (write_ms / 1e3)))
}
