//! Causal multi-head self-attention with explicit forward/backward.
//!
//! Operates on a single sequence `x: [T, H]`; batching is handled one level
//! up (the model loops samples, in parallel across rayon tasks when running
//! on the functional substrate).
//!
//! Every per-head product runs on the blocked GEMM kernels of
//! [`crate::matmul`]: heads are gathered out of the fused QKV activation
//! into contiguous `[T, dh]` buffers once, after which scores
//! (`Q·Kᵀ` via `matmul_nt`), context (`P·V` via `matmul`), and all five
//! backward products are straight kernel calls — no strided hand-rolled
//! dot loops, and no transposes are ever materialized.

use rand_chacha::ChaCha8Rng;

use crate::linear::{Linear, LinearGrads};
use crate::matmul::{
    matmul_into, matmul_nn_stable, matmul_nt, matmul_nt_into, matmul_nt_packed, matmul_tn_into,
    pack_row_into, packed_len, PackedBRef,
};
use crate::ops::{scale_assign, softmax_row_inplace, softmax_rows_backward_into};
use crate::scratch;
use crate::tensor::Tensor;

/// Copies `width` columns starting at `col0` out of `src: [T, W]` into a
/// contiguous `[T, width]` tensor (the per-head gather), reusing `out`'s
/// allocation.
fn gather_cols_into(src: &Tensor, col0: usize, width: usize, out: &mut Tensor) {
    let t = src.shape().dim(0);
    let w = src.shape().dim(1);
    out.reset_for([t, width]);
    for i in 0..t {
        out.data_mut()[i * width..(i + 1) * width]
            .copy_from_slice(&src.data()[i * w + col0..i * w + col0 + width]);
    }
}

/// Writes `src: [T, width]` into columns `col0..col0+width` of
/// `dst: [T, W]` (the per-head scatter; heads own disjoint columns).
fn scatter_cols(dst: &mut Tensor, src: &Tensor, col0: usize) {
    let t = dst.shape().dim(0);
    let w = dst.shape().dim(1);
    let width = src.shape().dim(1);
    for i in 0..t {
        dst.data_mut()[i * w + col0..i * w + col0 + width]
            .copy_from_slice(&src.data()[i * width..(i + 1) * width]);
    }
}

/// Multi-head causal self-attention: fused QKV projection plus output
/// projection, mirroring a Megatron-style attention block.
#[derive(Clone, Debug)]
pub struct Attention {
    /// Fused QKV projection `[3H, H]`.
    pub qkv: Linear,
    /// Output projection `[H, H]`.
    pub proj: Linear,
    /// Number of attention heads.
    pub heads: usize,
}

/// Activations saved by [`Attention::forward`] for the backward pass.
#[derive(Clone)]
pub struct AttentionCache {
    /// Fused QKV output `[T, 3H]`.
    pub qkv_out: Tensor,
    /// Per-head attention probabilities, each `[T, T]`.
    pub probs: Vec<Tensor>,
    /// Concatenated per-head context `[T, H]` (input to the projection).
    pub ctx: Tensor,
}

/// Gradients of an [`Attention`] layer.
#[derive(Clone, Debug)]
pub struct AttentionGrads {
    /// QKV projection gradients.
    pub qkv: LinearGrads,
    /// Output projection gradients.
    pub proj: LinearGrads,
}

impl Attention {
    /// Creates an attention block for hidden size `hidden` with `heads` heads.
    ///
    /// # Panics
    /// Panics unless `hidden % heads == 0`.
    pub fn new(hidden: usize, heads: usize, rng: &mut ChaCha8Rng) -> Self {
        assert_eq!(
            hidden % heads,
            0,
            "hidden {hidden} not divisible by heads {heads}"
        );
        Attention {
            qkv: Linear::new(3 * hidden, hidden, rng),
            proj: Linear::new(hidden, hidden, rng),
            heads,
        }
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.qkv.param_count() + self.proj.param_count()
    }

    /// Allocates zeroed gradients.
    pub fn zero_grads(&self) -> AttentionGrads {
        AttentionGrads {
            qkv: self.qkv.zero_grads(),
            proj: self.proj.zero_grads(),
        }
    }

    /// Forward pass for one sequence `x: [T, H]`; returns `(y, cache)`.
    pub fn forward(&self, x: &Tensor) -> (Tensor, AttentionCache) {
        let t = x.shape().dim(0);
        let h = x.shape().dim(1);
        let dh = h / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();

        let qkv_out = self.qkv.forward(x); // [T, 3H]
        let mut ctx = scratch::take([t, h]); // fully overwritten by scatters
        let mut probs = Vec::with_capacity(self.heads);
        let mut q = scratch::empty();
        let mut kk = scratch::empty();
        let mut v = scratch::empty();
        let mut ctx_h = scratch::empty();

        for head in 0..self.heads {
            gather_cols_into(&qkv_out, head * dh, dh, &mut q); // [T, dh]
            gather_cols_into(&qkv_out, h + head * dh, dh, &mut kk); // [T, dh]
            gather_cols_into(&qkv_out, 2 * h + head * dh, dh, &mut v); // [T, dh]

            // scores = Q·Kᵀ · scale, causally masked, then row softmax.
            // Masked positions soften to exact zeros, so the full P·V
            // product below contributes nothing from future tokens.
            let mut p = matmul_nt(&q, &kk); // [T, T]
            for i in 0..t {
                let row = &mut p.data_mut()[i * t..(i + 1) * t];
                for rj in row.iter_mut().take(i + 1) {
                    *rj *= scale;
                }
                for rj in row.iter_mut().skip(i + 1) {
                    *rj = f32::NEG_INFINITY;
                }
                softmax_row_inplace(row);
            }

            matmul_into(&p, &v, &mut ctx_h); // [T, dh]
            scatter_cols(&mut ctx, &ctx_h, head * dh);
            probs.push(p);
        }
        scratch::give(q);
        scratch::give(kk);
        scratch::give(v);
        scratch::give(ctx_h);

        let y = self.proj.forward(&ctx);
        (
            y,
            AttentionCache {
                qkv_out,
                probs,
                ctx,
            },
        )
    }

    /// Backward pass. Given upstream `dy: [T, H]`, the layer input `x` and the
    /// forward cache, returns `dx` and accumulates parameter gradients.
    pub fn backward(
        &self,
        dy: &Tensor,
        x: &Tensor,
        cache: &AttentionCache,
        grads: &mut AttentionGrads,
    ) -> Tensor {
        let t = x.shape().dim(0);
        let h = x.shape().dim(1);
        let dh = h / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();

        // Through the output projection.
        let dctx = self.proj.backward(dy, &cache.ctx, &mut grads.proj); // [T, H]

        let mut dqkv = scratch::take([t, 3 * h]); // fully overwritten by scatters
        let mut q = scratch::empty();
        let mut kk = scratch::empty();
        let mut v = scratch::empty();
        let mut dctx_h = scratch::empty();
        let mut dprobs = scratch::empty();
        let mut dv = scratch::empty();
        let mut ds = scratch::empty();
        let mut dq = scratch::empty();
        let mut dk = scratch::empty();
        for head in 0..self.heads {
            let p = &cache.probs[head];
            gather_cols_into(&cache.qkv_out, head * dh, dh, &mut q);
            gather_cols_into(&cache.qkv_out, h + head * dh, dh, &mut kk);
            gather_cols_into(&cache.qkv_out, 2 * h + head * dh, dh, &mut v);
            gather_cols_into(&dctx, head * dh, dh, &mut dctx_h);

            // dP = dCtx·Vᵀ ; dV = Pᵀ·dCtx. Masked positions of dP feed
            // the softmax backward below, which zeroes them because the
            // cached probabilities are exactly zero there.
            matmul_nt_into(&dctx_h, &v, &mut dprobs); // [T, T]
            matmul_tn_into(p, &dctx_h, &mut dv); // [T, dh]

            // Through the softmax, then fold in the score scale once:
            // dQ = (dS·scale)·K ; dK = (dS·scale)ᵀ·Q.
            softmax_rows_backward_into(&dprobs, p, &mut ds); // [T, T]
            scale_assign(&mut ds, scale);
            matmul_into(&ds, &kk, &mut dq); // [T, dh]
            matmul_tn_into(&ds, &q, &mut dk); // [T, dh]

            scatter_cols(&mut dqkv, &dq, head * dh);
            scatter_cols(&mut dqkv, &dk, h + head * dh);
            scatter_cols(&mut dqkv, &dv, 2 * h + head * dh);
        }
        for tmp in [q, kk, v, dctx_h, dprobs, dv, ds, dq, dk, dctx] {
            scratch::give(tmp);
        }

        // Through the fused QKV projection.
        let dx = self.qkv.backward(&dqkv, x, &mut grads.qkv);
        scratch::give(dqkv);
        dx
    }
}

/// Per-sequence K/V cache for incremental decoding: the keys and values of
/// every token seen so far, head-major.
///
/// Keys are stored per head in the GEMM engine's packed panel layout
/// (`[⌈max_seq/NR⌉][dh][NR]`, the layout of [`crate::matmul::PackedB`]): token
/// `t` is column `t` of the scores product `Q·Kᵀ`, written in place when
/// it is pushed, so the product reads the causal prefix with
/// [`matmul_nt_packed`] and never packs a key. Lanes of the last panel
/// past `len` hold stale or zero keys; they only feed output columns the
/// product does not write. Values stay row-major `[max_seq, dh]` per head
/// — the context product's `NN` pack of them is a plain row copy.
///
/// Capacity is allocated once at construction; [`KvCache::clear`] rewinds
/// the logical length for slot reuse without freeing, so steady-state
/// decode never allocates.
#[derive(Clone, Debug)]
pub struct KvCache {
    k: Vec<f32>,
    v: Vec<f32>,
    heads: usize,
    dh: usize,
    max_seq: usize,
    /// Floats per head of `k` (`max_seq` rounded up to whole panels).
    k_head: usize,
    len: usize,
}

impl KvCache {
    /// Allocates a cache for `heads` heads of width `dh`, holding up to
    /// `max_seq` tokens.
    pub fn new(heads: usize, dh: usize, max_seq: usize) -> Self {
        let k_head = packed_len(max_seq, dh);
        KvCache {
            k: vec![0.0; heads * k_head],
            v: vec![0.0; heads * max_seq * dh],
            heads,
            dh,
            max_seq,
            k_head,
            len: 0,
        }
    }

    /// Tokens currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Token capacity.
    pub fn max_seq(&self) -> usize {
        self.max_seq
    }

    /// Rewinds to empty without releasing storage (slot reuse).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Bytes of K/V entries this cache holds at capacity (f32 entries;
    /// panel padding is not counted).
    pub fn nbytes(&self) -> u64 {
        (2 * self.heads * self.max_seq * self.dh * std::mem::size_of::<f32>()) as u64
    }

    /// Every cached key of one head, copied out row-major as `[len, dh]`.
    pub fn keys(&self, head: usize) -> Vec<f32> {
        self.head_k(head, self.len).to_rows()
    }

    /// Every cached value of one head, copied out row-major as `[len, dh]`.
    pub fn values(&self, head: usize) -> Vec<f32> {
        self.head_v(head, self.len).to_vec()
    }

    /// The first `len` cached keys of one head as a packed `[len, dh]`
    /// NT operand.
    fn head_k(&self, head: usize, len: usize) -> PackedBRef<'_> {
        let base = head * self.k_head;
        PackedBRef::new(&self.k[base..base + self.k_head], len, self.dh)
    }

    /// The cached `[len, dh]` V prefix of one head.
    fn head_v(&self, head: usize, len: usize) -> &[f32] {
        let base = head * self.max_seq * self.dh;
        &self.v[base..base + len * self.dh]
    }

    /// Appends one token's K/V rows, sliced per head out of a fused
    /// `[3H]`-wide QKV activation row.
    fn push_token(&mut self, qkv_row: &[f32], h: usize) {
        assert!(self.len < self.max_seq, "KvCache overflow");
        let dh = self.dh;
        for head in 0..self.heads {
            let kcol = h + head * dh;
            let vcol = 2 * h + head * dh;
            let k = &mut self.k[head * self.k_head..(head + 1) * self.k_head];
            pack_row_into(k, self.len, &qkv_row[kcol..kcol + dh]);
            let base = (head * self.max_seq + self.len) * dh;
            self.v[base..base + dh].copy_from_slice(&qkv_row[vcol..vcol + dh]);
        }
        self.len += 1;
    }
}

/// Reusable workspace for [`Attention::forward_decode_batch`]; holds the
/// fused QKV activation, the context rows, and one set of per-head query,
/// score and context buffers per attention worker, so repeated decode
/// rounds are allocation-free after warm-up.
#[derive(Clone)]
pub struct DecodeScratch {
    qkv_out: Tensor,
    attend: Vec<AttendScratch>,
    ctx: Tensor,
}

/// One attention worker's buffers for a run's per-head products: the
/// gathered `[R, dh]` queries, the `[R, len]` scores and the `[R, dh]`
/// context, each grown on first use.
#[derive(Clone, Default)]
struct AttendScratch {
    q: Vec<f32>,
    scores: Vec<f32>,
    ctx: Vec<f32>,
}

impl DecodeScratch {
    /// An empty single-worker workspace; buffers grow on first use and are
    /// reused after.
    pub fn new() -> Self {
        Self::with_workers(1)
    }

    /// An empty workspace whose ragged attention section fans the runs of
    /// one batch across `workers` threads (clamped to ≥ 1).
    pub fn with_workers(workers: usize) -> Self {
        DecodeScratch {
            qkv_out: Tensor::zeros([1]),
            attend: vec![AttendScratch::default(); workers.max(1)],
            ctx: Tensor::zeros([1]),
        }
    }
}

impl Default for DecodeScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl DecodeScratch {
    /// The fused `[ΣR, 3H]` QKV activation [`DecodeScratch::attend`]
    /// reads; the caller's QKV projection writes it.
    pub fn qkv_mut(&mut self) -> &mut Tensor {
        &mut self.qkv_out
    }

    /// The `[ΣR, H]` context [`DecodeScratch::attend`] wrote, input to the
    /// output projection.
    pub fn ctx(&self) -> &Tensor {
        &self.ctx
    }

    /// The ragged attention section of one decode batch over `heads`
    /// heads: reads the QKV activation in [`DecodeScratch::qkv_mut`],
    /// where `runs[s]` consecutive rows belong to sequence `s`, appends
    /// each run's K/V rows to `caches[s]`, attends every run over its own
    /// cache, and writes the context ([`DecodeScratch::ctx`]). Runs fan
    /// across the workspace's workers. See
    /// [`Attention::forward_decode_batch`] for the bit contract.
    ///
    /// # Panics
    /// Panics unless `runs.len() == caches.len()`, the runs sum to the QKV
    /// rows, and every cache matches `heads` and the head width.
    pub fn attend(&mut self, heads: usize, runs: &[usize], caches: &mut [KvCache]) {
        let (rows, h3) = self.qkv_out.shape().as_2d();
        let h = h3 / 3;
        assert_eq!(runs.len(), caches.len(), "one KvCache per run");
        assert_eq!(runs.iter().sum::<usize>(), rows, "runs must cover x");
        let dh = h / heads;
        for cache in caches.iter() {
            assert_eq!(cache.heads, heads, "KvCache heads mismatch");
            assert_eq!(cache.dh, dh, "KvCache head width mismatch");
        }

        self.ctx.reset_for([rows, h]);
        let qkv = self.qkv_out.data();
        let ctx = self.ctx.data_mut();
        let busy = runs.iter().filter(|&&r| r > 0).count();
        let workers = self.attend.len().min(busy);
        if workers <= 1 {
            attend_runs(heads, qkv, runs, caches, ctx, &mut self.attend[0], h);
        } else {
            // Contiguous groups of `per` non-empty runs go to spawned
            // workers; the driver thread attends the remainder itself.
            let per = busy.div_ceil(workers);
            std::thread::scope(|scope| {
                let (mut runs, mut caches, mut qkv, mut ctx) = (runs, caches, qkv, ctx);
                let mut scratch = self.attend.iter_mut();
                let mut left = busy;
                while left > per {
                    let n = runs
                        .iter()
                        .enumerate()
                        .filter(|&(_, &r)| r > 0)
                        .nth(per - 1)
                        .map_or(runs.len(), |(i, _)| i + 1);
                    let rows_n: usize = runs[..n].iter().sum();
                    let (g_runs, r_runs) = runs.split_at(n);
                    let (g_caches, r_caches) = std::mem::take(&mut caches).split_at_mut(n);
                    let (g_qkv, r_qkv) = qkv.split_at(rows_n * 3 * h);
                    let (g_ctx, r_ctx) = std::mem::take(&mut ctx).split_at_mut(rows_n * h);
                    (runs, caches, qkv, ctx) = (r_runs, r_caches, r_qkv, r_ctx);
                    let sc = scratch.next().expect("one scratch per worker");
                    scope.spawn(move || attend_runs(heads, g_qkv, g_runs, g_caches, g_ctx, sc, h));
                    left -= per;
                }
                let sc = scratch.next().expect("one scratch per worker");
                attend_runs(heads, qkv, runs, caches, ctx, sc, h);
            });
        }
    }
}

/// The ragged attention section for consecutive runs: `qkv` and `ctx`
/// hold exactly those runs' rows (`[ΣR, 3H]` in, `[ΣR, H]` out, hidden
/// width `h`).
///
/// A run first appends all its K/V rows, then each head takes two
/// products over the run: scores `Q·Kᵀ` as `[R, len]` (against the cache's
/// key panels) and context `P·V` as `[R, dh]`. Row `i` softmaxes exactly
/// its causal prefix `0..pos_i` and zeroes the rest, so the context
/// product adds only exact zeros past `pos_i`: with the stable engine's
/// fixed reduction order (and an accumulator that starts at `+0.0`), its
/// bits equal a `[1, pos_i]` product's — a run of `R` tokens matches `R`
/// single-token calls bit-for-bit (given finite `V`, as the training
/// forward's masked `P·V` also assumes).
fn attend_runs(
    heads: usize,
    qkv: &[f32],
    runs: &[usize],
    caches: &mut [KvCache],
    ctx: &mut [f32],
    ws: &mut AttendScratch,
    h: usize,
) {
    let dh = h / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut row0 = 0;
    for (&r, cache) in runs.iter().zip(caches.iter_mut()) {
        if r == 0 {
            continue;
        }
        let qkv = &qkv[row0 * 3 * h..(row0 + r) * 3 * h];
        let ctx = &mut ctx[row0 * h..(row0 + r) * h];
        row0 += r;
        let base = cache.len;
        for qkv_row in qkv.chunks_exact(3 * h) {
            cache.push_token(qkv_row, h);
        }
        let len = cache.len; // tokens visible to the run's last query
        ws.q.resize(r * dh, 0.0);
        ws.scores.resize(r * len, 0.0);
        ws.ctx.resize(r * dh, 0.0);
        for head in 0..heads {
            for (q, src) in ws.q.chunks_exact_mut(dh).zip(qkv.chunks_exact(3 * h)) {
                q.copy_from_slice(&src[head * dh..(head + 1) * dh]);
            }
            matmul_nt_packed(&ws.q, cache.head_k(head, len), &mut ws.scores, r);
            for (i, srow) in ws.scores.chunks_exact_mut(len).enumerate() {
                let (visible, future) = srow.split_at_mut(base + i + 1);
                for v in visible.iter_mut() {
                    *v *= scale;
                }
                softmax_row_inplace(visible);
                future.fill(0.0);
            }
            matmul_nn_stable(&ws.scores, cache.head_v(head, len), &mut ws.ctx, r, len, dh);
            for (dst, src) in ctx.chunks_exact_mut(h).zip(ws.ctx.chunks_exact(dh)) {
                dst[head * dh..(head + 1) * dh].copy_from_slice(src);
            }
        }
    }
}

impl Attention {
    /// Incremental causal forward for serving: runs `R` new tokens
    /// `x: [R, H]` of one sequence whose first `cache.len()` tokens are
    /// already cached, appends their K/V rows, and writes the attention
    /// output into `y: [R, H]`. The one-run case of
    /// [`Attention::forward_decode_batch`].
    pub fn forward_decode(
        &self,
        x: &Tensor,
        cache: &mut KvCache,
        ws: &mut DecodeScratch,
        y: &mut Tensor,
    ) {
        let r = x.shape().dim(0);
        self.forward_decode_batch(x, &[r], std::slice::from_mut(cache), ws, y);
    }

    /// Incremental causal forward over a ragged stack of sequences:
    /// `x: [ΣR, H]` holds `runs[s]` consecutive new tokens of sequence `s`
    /// (a prefill run, a single decode token, or `0` for a sequence that
    /// sits this call out), and `caches[s]` is that sequence's [`KvCache`].
    /// The QKV and output projections are one GEMM each over the whole
    /// stack; only the attention proper is per run — each run's rows push
    /// to, and attend over, their own cache. Writes `y: [ΣR, H]`.
    ///
    /// Bit-compatibility contract: every product uses the batch-stable
    /// GEMM entries and every softmax runs over exactly the causal prefix
    /// `0..=pos`, so the bits of one token's output depend only on the
    /// tokens before it in its own sequence — a full-prompt prefill
    /// (`R = T`) and a token-at-a-time replay (`R = 1` repeatedly) produce
    /// identical streams, and stacking other sequences beside it cannot
    /// perturb either.
    ///
    /// # Panics
    /// Panics unless `runs.len() == caches.len()` and the runs sum to the
    /// rows of `x`.
    pub fn forward_decode_batch(
        &self,
        x: &Tensor,
        runs: &[usize],
        caches: &mut [KvCache],
        ws: &mut DecodeScratch,
        y: &mut Tensor,
    ) {
        self.qkv.forward_stable_into(x, &mut ws.qkv_out); // [ΣR, 3H]
        ws.attend(self.heads, runs, caches);
        self.proj.forward_stable_into(&ws.ctx, y);
    }
}

impl AttentionCache {
    /// Returns every cached activation's allocation to the thread-local
    /// scratch pool, so the next forward pass on this thread reuses them
    /// instead of allocating.
    pub fn recycle(self) {
        scratch::give(self.qkv_out);
        for p in self.probs {
            scratch::give(p);
        }
        scratch::give(self.ctx);
    }
}

impl AttentionGrads {
    /// Resets all gradients to zero.
    pub fn zero_(&mut self) {
        self.qkv.zero_();
        self.proj.zero_();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{normal, seeded_rng};

    #[test]
    fn causality_future_tokens_do_not_affect_past() {
        let mut rng = seeded_rng(40);
        let attn = Attention::new(16, 4, &mut rng);
        let x1 = normal([5, 16], 1.0, &mut rng);
        let mut x2 = x1.clone();
        // Perturb the last token only.
        for j in 0..16 {
            *x2.at_mut(&[4, j]) += 1.0;
        }
        let (y1, _) = attn.forward(&x1);
        let (y2, _) = attn.forward(&x2);
        // Outputs for tokens 0..4 must be identical.
        for i in 0..4 {
            for j in 0..16 {
                assert_eq!(
                    y1.at(&[i, j]),
                    y2.at(&[i, j]),
                    "token {i} leaked future info"
                );
            }
        }
        // Output at token 4 must differ.
        let diff: f32 = (0..16)
            .map(|j| (y1.at(&[4, j]) - y2.at(&[4, j])).abs())
            .sum();
        assert!(diff > 0.0);
    }

    #[test]
    fn probs_rows_sum_to_one_and_causal() {
        let mut rng = seeded_rng(41);
        let attn = Attention::new(8, 2, &mut rng);
        let x = normal([6, 8], 1.0, &mut rng);
        let (_, cache) = attn.forward(&x);
        for p in &cache.probs {
            for i in 0..6 {
                let row = &p.data()[i * 6..(i + 1) * 6];
                let s: f32 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
                for (j, &v) in row.iter().enumerate() {
                    if j > i {
                        assert_eq!(v, 0.0, "prob at masked position ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = seeded_rng(42);
        let attn = Attention::new(8, 2, &mut rng);
        let x = normal([4, 8], 0.7, &mut rng);
        let w = normal([4, 8], 1.0, &mut rng);
        let loss = |xin: &Tensor| -> f32 {
            let (y, _) = attn.forward(xin);
            y.data()
                .iter()
                .zip(w.data().iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        let (_, cache) = attn.forward(&x);
        let mut grads = attn.zero_grads();
        let dx = attn.backward(&w, &x, &cache, &mut grads);
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 3e-2 * (1.0 + num.abs()),
                "dx[{i}]: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn gradient_check_qkv_weights() {
        let mut rng = seeded_rng(43);
        let attn = Attention::new(8, 2, &mut rng);
        let x = normal([3, 8], 0.7, &mut rng);
        let w = normal([3, 8], 1.0, &mut rng);
        let loss = |a: &Attention| -> f32 {
            let (y, _) = a.forward(&x);
            y.data()
                .iter()
                .zip(w.data().iter())
                .map(|(p, q)| p * q)
                .sum()
        };
        let (_, cache) = attn.forward(&x);
        let mut grads = attn.zero_grads();
        attn.backward(&w, &x, &cache, &mut grads);
        let eps = 1e-3;
        for i in (0..attn.qkv.weight.numel()).step_by(17) {
            let mut ap = attn.clone();
            ap.qkv.weight.data_mut()[i] += eps;
            let mut am = attn.clone();
            am.qkv.weight.data_mut()[i] -= eps;
            let num = (loss(&ap) - loss(&am)) / (2.0 * eps);
            let ana = grads.qkv.weight.data()[i];
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + num.abs()),
                "dWqkv[{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn decode_prefill_equals_token_at_a_time_bitwise() {
        let mut rng = seeded_rng(45);
        let attn = Attention::new(16, 4, &mut rng);
        let t = 7;
        let x = normal([t, 16], 1.0, &mut rng);

        // One-shot prefill of all T tokens.
        let mut cache_a = KvCache::new(4, 4, t);
        let mut ws_a = DecodeScratch::new();
        let mut y_a = Tensor::zeros([1]);
        attn.forward_decode(&x, &mut cache_a, &mut ws_a, &mut y_a);

        // Token-at-a-time replay of the same sequence.
        let mut cache_b = KvCache::new(4, 4, t);
        let mut ws_b = DecodeScratch::new();
        let mut y_b = Tensor::zeros([1]);
        let mut row = Tensor::zeros([1, 16]);
        for i in 0..t {
            row.data_mut()
                .copy_from_slice(&x.data()[i * 16..(i + 1) * 16]);
            attn.forward_decode(&row, &mut cache_b, &mut ws_b, &mut y_b);
            for j in 0..16 {
                assert_eq!(
                    y_a.at(&[i, j]).to_bits(),
                    y_b.at(&[0, j]).to_bits(),
                    "decode bits diverge from prefill at token {i} col {j}"
                );
            }
        }
        assert_eq!(cache_a.len(), cache_b.len());
    }

    #[test]
    fn prefill_run_crossing_kc_blocks_equals_token_at_a_time_bitwise() {
        // A run's context product reduces over the run's longest prefix and
        // adds exact zeros past each row's own; the stable engine splits
        // that reduction into KC = 256 blocks, so the run here straddles a
        // block boundary on both sides of the zero padding.
        let mut rng = seeded_rng(48);
        let attn = Attention::new(8, 2, &mut rng);
        let t = 300;
        let x = normal([t, 8], 1.0, &mut rng);
        let mut head = Tensor::zeros([1]);
        let mut tail = Tensor::zeros([1]);
        let split = 250;
        head.reset_for([split, 8]);
        head.data_mut().copy_from_slice(&x.data()[..split * 8]);
        tail.reset_for([t - split, 8]);
        tail.data_mut().copy_from_slice(&x.data()[split * 8..]);

        let mut cache_a = KvCache::new(2, 4, t);
        let mut ws = DecodeScratch::new();
        let mut y_head = Tensor::zeros([1]);
        let mut y_a = Tensor::zeros([1]);
        attn.forward_decode(&head, &mut cache_a, &mut ws, &mut y_head);
        attn.forward_decode(&tail, &mut cache_a, &mut ws, &mut y_a);

        let mut cache_b = KvCache::new(2, 4, t);
        let mut y_b = Tensor::zeros([1]);
        let mut row = Tensor::zeros([1, 8]);
        for i in 0..t {
            row.data_mut()
                .copy_from_slice(&x.data()[i * 8..(i + 1) * 8]);
            attn.forward_decode(&row, &mut cache_b, &mut ws, &mut y_b);
            let want = if i < split {
                &y_head.data()[i * 8..(i + 1) * 8]
            } else {
                &y_a.data()[(i - split) * 8..(i - split + 1) * 8]
            };
            for (a, b) in want.iter().zip(y_b.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "token {i} diverges");
            }
        }
    }

    #[test]
    fn prefill_run_crossing_a_key_panel_equals_token_at_a_time_bitwise() {
        // Keys live in NR-token panels written in place; a run that grows
        // the cache from 30 to 40 tokens starts a new panel mid-run (NR is
        // 16 or 32), and its scores read the partial last panel.
        let mut rng = seeded_rng(49);
        let attn = Attention::new(16, 2, &mut rng);
        let (split, t) = (30, 40);
        let x = normal([t, 16], 1.0, &mut rng);
        let rows = |r0: usize, r1: usize| {
            Tensor::from_vec([r1 - r0, 16], x.data()[r0 * 16..r1 * 16].to_vec())
        };

        let mut cache_a = KvCache::new(2, 8, t);
        let mut ws = DecodeScratch::new();
        let mut y_head = Tensor::zeros([1]);
        let mut y_tail = Tensor::zeros([1]);
        attn.forward_decode(&rows(0, split), &mut cache_a, &mut ws, &mut y_head);
        attn.forward_decode(&rows(split, t), &mut cache_a, &mut ws, &mut y_tail);

        let mut cache_b = KvCache::new(2, 8, t);
        let mut y_b = Tensor::zeros([1]);
        for i in 0..t {
            attn.forward_decode(&rows(i, i + 1), &mut cache_b, &mut ws, &mut y_b);
            let want = if i < split {
                &y_head.data()[i * 16..(i + 1) * 16]
            } else {
                &y_tail.data()[(i - split) * 16..(i - split + 1) * 16]
            };
            for (a, b) in want.iter().zip(y_b.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "token {i} diverges");
            }
        }
        // The row-major copy-out of the key panels: token i's key is the
        // K slice of its QKV row.
        let mut qkv = Tensor::zeros([1]);
        attn.qkv.forward_stable_into(&x, &mut qkv);
        for head in 0..2 {
            let want: Vec<f32> = (0..t)
                .flat_map(|i| {
                    let col = i * 48 + 16 + head * 8;
                    qkv.data()[col..col + 8].to_vec()
                })
                .collect();
            assert_eq!(cache_a.keys(head), want, "head {head} keys (prefill)");
            assert_eq!(cache_b.keys(head), want, "head {head} keys (decode)");
        }
    }

    #[test]
    fn decode_matches_training_forward_numerically() {
        // The serving path softmaxes the exact causal prefix while training
        // softmaxes the full masked row, so bits may differ — but values
        // must agree to float tolerance.
        let mut rng = seeded_rng(46);
        let attn = Attention::new(16, 4, &mut rng);
        let t = 6;
        let x = normal([t, 16], 1.0, &mut rng);
        let (y_train, _) = attn.forward(&x);
        let mut cache = KvCache::new(4, 4, t);
        let mut ws = DecodeScratch::new();
        let mut y_serve = Tensor::zeros([1]);
        attn.forward_decode(&x, &mut cache, &mut ws, &mut y_serve);
        assert!(y_train.max_abs_diff(&y_serve) < 1e-5);
    }

    #[test]
    fn kv_cache_clear_reuses_storage() {
        let mut rng = seeded_rng(47);
        let attn = Attention::new(8, 2, &mut rng);
        let x = normal([3, 8], 1.0, &mut rng);
        let mut cache = KvCache::new(2, 4, 8);
        let mut ws = DecodeScratch::new();
        let mut y1 = Tensor::zeros([1]);
        attn.forward_decode(&x, &mut cache, &mut ws, &mut y1);
        let first = y1.clone();
        cache.clear();
        assert!(cache.is_empty());
        let mut y2 = Tensor::zeros([1]);
        attn.forward_decode(&x, &mut cache, &mut ws, &mut y2);
        for (a, b) in first.data().iter().zip(y2.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "slot reuse changed bits");
        }
    }

    #[test]
    fn param_count_matches_formula() {
        let attn = Attention::new(32, 4, &mut seeded_rng(44));
        // 4·H² + 4·H as in Section III-F's attention accounting.
        assert_eq!(attn.param_count(), 4 * 32 * 32 + 4 * 32);
    }
}
