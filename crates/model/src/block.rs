//! Functional transformer block (pre-norm GPT-2 style) with explicit
//! forward/backward and optional activation checkpointing.

use rand_chacha::ChaCha8Rng;
use stronghold_tensor::attention::{
    Attention, AttentionCache, AttentionGrads, DecodeScratch, KvCache,
};
use stronghold_tensor::linear::{Linear, LinearGrads};
use stronghold_tensor::matmul::{matmul_nt_packed, PackedB};
use stronghold_tensor::ops::{
    add, add_assign, add_bias, axpy, gelu, gelu_backward, gelu_into, layernorm, layernorm_backward,
    layernorm_into, LayerNormCache,
};
use stronghold_tensor::scratch;
use stronghold_tensor::{PackedHalf, Tensor};

/// Parameters of one pre-norm transformer block:
/// `y = x + Attn(LN1(x)); z = y + W2·GELU(W1·LN2(y))`.
#[derive(Clone, Debug)]
pub struct Block {
    /// First layernorm gain.
    pub ln1_g: Tensor,
    /// First layernorm bias.
    pub ln1_b: Tensor,
    /// Self-attention.
    pub attn: Attention,
    /// Second layernorm gain.
    pub ln2_g: Tensor,
    /// Second layernorm bias.
    pub ln2_b: Tensor,
    /// MLP up-projection `[4H, H]`.
    pub fc1: Linear,
    /// MLP down-projection `[H, 4H]`.
    pub fc2: Linear,
}

/// Saved activations for one block's backward pass on one sample.
pub struct BlockCache {
    ln1_out: Tensor,
    ln1_cache: LayerNormCache,
    attn_cache: AttentionCache,
    after_attn: Tensor,
    ln2_out: Tensor,
    ln2_cache: LayerNormCache,
    fc1_out: Tensor,
    gelu_out: Tensor,
}

impl BlockCache {
    /// Returns every cached activation's allocation to the thread-local
    /// scratch pool. Trainers call this after a block's backward pass so
    /// the next sample's forward reuses the buffers instead of allocating.
    pub fn recycle(self) {
        scratch::give(self.ln1_out);
        self.attn_cache.recycle();
        scratch::give(self.after_attn);
        scratch::give(self.ln2_out);
        scratch::give(self.fc1_out);
        scratch::give(self.gelu_out);
    }
}

/// Reusable workspace for [`DecodeBlock::forward_decode_batch`]: every
/// intermediate activation of the serving path, sized on first use and
/// recycled across decode rounds so the steady state never allocates.
/// One workspace serves a whole ragged batch (it is not per sequence).
#[derive(Clone)]
pub struct BlockDecodeScratch {
    ln1_out: Tensor,
    ln_cache: LayerNormCache,
    attn: DecodeScratch,
    attn_out: Tensor,
    fc1_out: Tensor,
    gelu_out: Tensor,
    /// [`Block::forward_decode_batch`]'s packed image of the block it runs
    /// (repacked every call; the serving engine keeps images instead).
    image: Option<DecodeBlock>,
}

impl BlockDecodeScratch {
    /// An empty single-worker workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::with_workers(1)
    }

    /// An empty workspace whose ragged attention section fans a batch's
    /// runs across `workers` threads (see [`DecodeScratch::with_workers`]).
    pub fn with_workers(workers: usize) -> Self {
        BlockDecodeScratch {
            ln1_out: Tensor::zeros([1]),
            ln_cache: LayerNormCache::default(),
            attn: DecodeScratch::with_workers(workers),
            attn_out: Tensor::zeros([1]),
            fc1_out: Tensor::zeros([1]),
            gelu_out: Tensor::zeros([1]),
            image: None,
        }
    }
}

impl Default for BlockDecodeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// A linear layer in serving form: the weight pre-packed, the bias as is.
#[derive(Clone, Debug)]
struct PackedLinear {
    weight: PackedB,
    bias: Tensor,
}

impl PackedLinear {
    fn pack(l: &Linear) -> Self {
        let (n, k) = l.weight.shape().as_2d();
        PackedLinear {
            weight: PackedB::pack(l.weight.data(), n, k),
            bias: l.bias.clone(),
        }
    }

    fn repack_from(&mut self, l: &Linear) {
        let (n, k) = l.weight.shape().as_2d();
        self.weight.repack(l.weight.data(), n, k);
        load(&mut self.bias, &l.bias);
    }

    fn copy_from(&mut self, src: &PackedLinear) {
        self.weight.copy_from(&src.weight);
        load(&mut self.bias, &src.bias);
    }

    fn round_through(&mut self, pack: &mut PackedHalf) {
        pack.round_through(self.weight.panels_mut());
        pack.round_through(self.bias.data_mut());
    }

    fn param_count(&self) -> usize {
        self.weight.n() * self.weight.k() + self.bias.numel()
    }

    /// `y = x · Wᵀ + b` with batch-stable bits: equal to
    /// [`Linear::forward_stable_into`] over the unpacked layer.
    fn forward_into(&self, x: &Tensor, y: &mut Tensor) {
        let (t, k) = x.shape().as_2d();
        assert_eq!(k, self.weight.k(), "packed linear: in dim");
        y.reset_for([t, self.weight.n()]);
        matmul_nt_packed(x.data(), self.weight.view(), y.data_mut(), t);
        add_bias(y, &self.bias);
    }
}

/// Overwrites `dst` with `src`, reusing `dst`'s allocation.
fn load(dst: &mut Tensor, src: &Tensor) {
    dst.reset_for(*src.shape());
    dst.data_mut().copy_from_slice(src.data());
}

/// The serving image of one [`Block`]: layernorm vectors and biases as
/// they are, and the QKV, output-projection and MLP weights packed once
/// into the GEMM engine's panel layout ([`PackedB`]), so a decode pass
/// packs no weight. Images are what the serving engine keeps in its host
/// store and circulates through its device shells. Parameter accounting
/// ([`DecodeBlock::param_count`]) excludes panel padding.
#[derive(Clone, Debug)]
pub struct DecodeBlock {
    ln1_g: Tensor,
    ln1_b: Tensor,
    qkv: PackedLinear,
    proj: PackedLinear,
    ln2_g: Tensor,
    ln2_b: Tensor,
    fc1: PackedLinear,
    fc2: PackedLinear,
    heads: usize,
}

impl DecodeBlock {
    /// Packs a block's serving image.
    pub fn pack(block: &Block) -> Self {
        DecodeBlock {
            ln1_g: block.ln1_g.clone(),
            ln1_b: block.ln1_b.clone(),
            qkv: PackedLinear::pack(&block.attn.qkv),
            proj: PackedLinear::pack(&block.attn.proj),
            ln2_g: block.ln2_g.clone(),
            ln2_b: block.ln2_b.clone(),
            fc1: PackedLinear::pack(&block.fc1),
            fc2: PackedLinear::pack(&block.fc2),
            heads: block.attn.heads,
        }
    }

    /// Repacks from `block` in place, reusing every buffer.
    pub fn repack_from(&mut self, block: &Block) {
        load(&mut self.ln1_g, &block.ln1_g);
        load(&mut self.ln1_b, &block.ln1_b);
        self.qkv.repack_from(&block.attn.qkv);
        self.proj.repack_from(&block.attn.proj);
        load(&mut self.ln2_g, &block.ln2_g);
        load(&mut self.ln2_b, &block.ln2_b);
        self.fc1.repack_from(&block.fc1);
        self.fc2.repack_from(&block.fc2);
        self.heads = block.attn.heads;
    }

    /// Copies another image in, reusing every buffer (the serving H2D
    /// copy of one layer). Copying packs nothing.
    pub fn copy_from(&mut self, src: &DecodeBlock) {
        load(&mut self.ln1_g, &src.ln1_g);
        load(&mut self.ln1_b, &src.ln1_b);
        self.qkv.copy_from(&src.qkv);
        self.proj.copy_from(&src.proj);
        load(&mut self.ln2_g, &src.ln2_g);
        load(&mut self.ln2_b, &src.ln2_b);
        self.fc1.copy_from(&src.fc1);
        self.fc2.copy_from(&src.fc2);
        self.heads = src.heads;
    }

    /// Rounds every parameter in place through `pack`'s half format — the
    /// value grid a half-width H2D payload lands on. Element-wise, so it
    /// equals packing a rounded block (panel padding stays zero); a no-op
    /// at F32.
    pub fn round_through(&mut self, pack: &mut PackedHalf) {
        for t in [
            &mut self.ln1_g,
            &mut self.ln1_b,
            &mut self.ln2_g,
            &mut self.ln2_b,
        ] {
            pack.round_through(t.data_mut());
        }
        for l in [&mut self.qkv, &mut self.proj, &mut self.fc1, &mut self.fc2] {
            l.round_through(pack);
        }
    }

    /// Parameter count (`12·h² + 13·h`), panel padding excluded.
    pub fn param_count(&self) -> usize {
        self.ln1_g.numel()
            + self.ln1_b.numel()
            + self.ln2_g.numel()
            + self.ln2_b.numel()
            + [&self.qkv, &self.proj, &self.fc1, &self.fc2]
                .iter()
                .map(|l| l.param_count())
                .sum::<usize>()
    }

    /// The one-run case of [`DecodeBlock::forward_decode_batch`]: `R` new
    /// tokens `x: [R, H]` of one sequence against its [`KvCache`].
    pub fn forward_decode(
        &self,
        x: &Tensor,
        cache: &mut KvCache,
        ws: &mut BlockDecodeScratch,
        y: &mut Tensor,
    ) {
        let r = x.shape().dim(0);
        self.forward_decode_batch(x, &[r], std::slice::from_mut(cache), ws, y);
    }

    /// Incremental forward over a ragged stack of sequences: `x: [ΣR, H]`
    /// holds `runs[s]` consecutive new tokens of sequence `s` (prefill
    /// runs, single decode tokens, or `0` to sit out), each reading and
    /// extending its own `caches[s]`. LN1 → QKV → proj → LN2 → fc1 → GELU
    /// → fc2 run once over the whole stack; only attention is per run.
    /// The serving decode path: every other decode entry calls this.
    ///
    /// Every product is batch-stable — the weights through
    /// [`matmul_nt_packed`], attention through the K cache's panels and
    /// the stable NN entry — LN and GELU are row-/element-wise, and each
    /// softmax covers exactly its own sequence's causal prefix, so one
    /// token's output bits are independent of how many tokens — of its
    /// own sequence or of others — ride the call: prefill, token-at-a-time
    /// decode and any stacking agree bit-for-bit. Writes the block output
    /// into `y` (reused across calls).
    pub fn forward_decode_batch(
        &self,
        x: &Tensor,
        runs: &[usize],
        caches: &mut [KvCache],
        ws: &mut BlockDecodeScratch,
        y: &mut Tensor,
    ) {
        layernorm_into(
            x,
            &self.ln1_g,
            &self.ln1_b,
            LN_EPS,
            &mut ws.ln1_out,
            &mut ws.ln_cache,
        );
        self.qkv.forward_into(&ws.ln1_out, ws.attn.qkv_mut());
        ws.attn.attend(self.heads, runs, caches);
        self.proj.forward_into(ws.attn.ctx(), &mut ws.attn_out);
        // after_attn = x + attn_out, reusing the attention output buffer.
        add_assign(&mut ws.attn_out, x);
        layernorm_into(
            &ws.attn_out,
            &self.ln2_g,
            &self.ln2_b,
            LN_EPS,
            &mut ws.ln1_out,
            &mut ws.ln_cache,
        );
        self.fc1.forward_into(&ws.ln1_out, &mut ws.fc1_out);
        gelu_into(&ws.fc1_out, &mut ws.gelu_out);
        self.fc2.forward_into(&ws.gelu_out, y);
        add_assign(y, &ws.attn_out);
    }
}

/// Gradients of one [`Block`].
#[derive(Clone, Debug)]
pub struct BlockGrads {
    /// LN1 gain gradient.
    pub ln1_g: Tensor,
    /// LN1 bias gradient.
    pub ln1_b: Tensor,
    /// Attention gradients.
    pub attn: AttentionGrads,
    /// LN2 gain gradient.
    pub ln2_g: Tensor,
    /// LN2 bias gradient.
    pub ln2_b: Tensor,
    /// MLP up-projection gradients.
    pub fc1: LinearGrads,
    /// MLP down-projection gradients.
    pub fc2: LinearGrads,
}

const LN_EPS: f32 = 1e-5;

impl Block {
    /// Creates a block for hidden size `hidden` with `heads` attention heads.
    pub fn new(hidden: usize, heads: usize, rng: &mut ChaCha8Rng) -> Self {
        Block {
            ln1_g: Tensor::full([hidden], 1.0),
            ln1_b: Tensor::zeros([hidden]),
            attn: Attention::new(hidden, heads, rng),
            ln2_g: Tensor::full([hidden], 1.0),
            ln2_b: Tensor::zeros([hidden]),
            fc1: Linear::new(4 * hidden, hidden, rng),
            fc2: Linear::new(hidden, 4 * hidden, rng),
        }
    }

    /// Total parameter count; equals `12·h² + 13·h`.
    pub fn param_count(&self) -> usize {
        self.ln1_g.numel()
            + self.ln1_b.numel()
            + self.attn.param_count()
            + self.ln2_g.numel()
            + self.ln2_b.numel()
            + self.fc1.param_count()
            + self.fc2.param_count()
    }

    /// Forward for one sample `x: [T, H]`, returning the output and the full
    /// activation cache.
    pub fn forward(&self, x: &Tensor) -> (Tensor, BlockCache) {
        let (ln1_out, ln1_cache) = layernorm(x, &self.ln1_g, &self.ln1_b, LN_EPS);
        let (attn_out, attn_cache) = self.attn.forward(&ln1_out);
        let after_attn = add(x, &attn_out);
        scratch::give(attn_out);
        let (ln2_out, ln2_cache) = layernorm(&after_attn, &self.ln2_g, &self.ln2_b, LN_EPS);
        let fc1_out = self.fc1.forward(&ln2_out);
        let gelu_out = gelu(&fc1_out);
        let mlp_out = self.fc2.forward(&gelu_out);
        let y = add(&after_attn, &mlp_out);
        scratch::give(mlp_out);
        (
            y,
            BlockCache {
                ln1_out,
                ln1_cache,
                attn_cache,
                after_attn,
                ln2_out,
                ln2_cache,
                fc1_out,
                gelu_out,
            },
        )
    }

    /// Forward pass that discards intermediate activations (checkpointed FP:
    /// only the block *input* is retained by the caller). The discarded
    /// activations go back to the thread-local scratch pool, so repeated
    /// recompute passes (the offloaded trainer's BP loop) do not allocate.
    pub fn forward_no_cache(&self, x: &Tensor) -> Tensor {
        let (y, cache) = self.forward(x);
        cache.recycle();
        y
    }

    /// Incremental forward for serving: runs `R` new tokens `x: [R, H]` of
    /// one sequence through the block, reading and extending the sequence's
    /// per-layer [`KvCache`]. The one-run case of
    /// [`Block::forward_decode_batch`]; writes the block output into `y`.
    pub fn forward_decode(
        &self,
        x: &Tensor,
        cache: &mut KvCache,
        ws: &mut BlockDecodeScratch,
        y: &mut Tensor,
    ) {
        let r = x.shape().dim(0);
        self.forward_decode_batch(x, &[r], std::slice::from_mut(cache), ws, y);
    }

    /// Incremental forward over a ragged stack of sequences: packs this
    /// block's serving image into `ws` (reusing its buffers) and runs
    /// [`DecodeBlock::forward_decode_batch`], so the bits are the serving
    /// engine's. Callers that decode repeatedly over fixed weights should
    /// keep a [`DecodeBlock`] instead of paying the pack every call.
    pub fn forward_decode_batch(
        &self,
        x: &Tensor,
        runs: &[usize],
        caches: &mut [KvCache],
        ws: &mut BlockDecodeScratch,
        y: &mut Tensor,
    ) {
        let image = match ws.image.take() {
            Some(mut image) => {
                image.repack_from(self);
                image
            }
            None => DecodeBlock::pack(self),
        };
        image.forward_decode_batch(x, runs, caches, ws, y);
        ws.image = Some(image);
    }

    /// Backward for one sample given upstream `dy`, the block input `x` and
    /// a cache (recompute it with [`Block::forward`] when checkpointing).
    /// Returns `dx`; parameter gradients accumulate into `grads`.
    pub fn backward(
        &self,
        dy: &Tensor,
        x: &Tensor,
        cache: &BlockCache,
        grads: &mut BlockGrads,
    ) -> Tensor {
        // z = after_attn + mlp_out: gradient flows to both summands.
        let mut d_after_attn = scratch::take_copy(dy);
        // Through MLP.
        let d_gelu_out = self.fc2.backward(dy, &cache.gelu_out, &mut grads.fc2);
        let d_fc1_out = gelu_backward(&d_gelu_out, &cache.fc1_out);
        scratch::give(d_gelu_out);
        let d_ln2_out = self
            .fc1
            .backward(&d_fc1_out, &cache.ln2_out, &mut grads.fc1);
        scratch::give(d_fc1_out);
        let d_after_attn_ln = layernorm_backward(
            &d_ln2_out,
            &cache.after_attn,
            &self.ln2_g,
            &cache.ln2_cache,
            &mut grads.ln2_g,
            &mut grads.ln2_b,
        );
        scratch::give(d_ln2_out);
        add_assign(&mut d_after_attn, &d_after_attn_ln);
        scratch::give(d_after_attn_ln);

        // after_attn = x + attn_out.
        let mut dx = scratch::take_copy(&d_after_attn);
        let d_ln1_out = self.attn.backward(
            &d_after_attn,
            &cache.ln1_out,
            &cache.attn_cache,
            &mut grads.attn,
        );
        scratch::give(d_after_attn);
        let dx_ln = layernorm_backward(
            &d_ln1_out,
            x,
            &self.ln1_g,
            &cache.ln1_cache,
            &mut grads.ln1_g,
            &mut grads.ln1_b,
        );
        scratch::give(d_ln1_out);
        add_assign(&mut dx, &dx_ln);
        scratch::give(dx_ln);
        dx
    }

    /// Allocates zeroed gradients.
    pub fn zero_grads(&self) -> BlockGrads {
        BlockGrads {
            ln1_g: Tensor::zeros(*self.ln1_g.shape()),
            ln1_b: Tensor::zeros(*self.ln1_b.shape()),
            attn: self.attn.zero_grads(),
            ln2_g: Tensor::zeros(*self.ln2_g.shape()),
            ln2_b: Tensor::zeros(*self.ln2_b.shape()),
            fc1: self.fc1.zero_grads(),
            fc2: self.fc2.zero_grads(),
        }
    }

    /// Visits every parameter tensor alongside its gradient, in a fixed
    /// canonical order (used by the optimizer and by flatten/unflatten).
    pub fn visit_params_mut<'a>(
        &'a mut self,
        grads: &'a BlockGrads,
        mut f: impl FnMut(&mut Tensor, &Tensor),
    ) {
        f(&mut self.ln1_g, &grads.ln1_g);
        f(&mut self.ln1_b, &grads.ln1_b);
        f(&mut self.attn.qkv.weight, &grads.attn.qkv.weight);
        f(&mut self.attn.qkv.bias, &grads.attn.qkv.bias);
        f(&mut self.attn.proj.weight, &grads.attn.proj.weight);
        f(&mut self.attn.proj.bias, &grads.attn.proj.bias);
        f(&mut self.ln2_g, &grads.ln2_g);
        f(&mut self.ln2_b, &grads.ln2_b);
        f(&mut self.fc1.weight, &grads.fc1.weight);
        f(&mut self.fc1.bias, &grads.fc1.bias);
        f(&mut self.fc2.weight, &grads.fc2.weight);
        f(&mut self.fc2.bias, &grads.fc2.bias);
    }

    /// Flattens all parameters into a single vector (canonical order).
    pub fn flatten_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.flatten_params_into(&mut out);
        out
    }

    /// Flattens all parameters into a reusable vector (canonical order),
    /// clearing it first. Steady-state callers (the prefetcher's H2D
    /// staging path) reuse one vector across steps and never reallocate.
    pub fn flatten_params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.param_count());
        for t in self.param_tensors() {
            out.extend_from_slice(t.data());
        }
    }

    /// All parameter tensors in canonical order.
    pub fn param_tensors(&self) -> [&Tensor; 12] {
        [
            &self.ln1_g,
            &self.ln1_b,
            &self.attn.qkv.weight,
            &self.attn.qkv.bias,
            &self.attn.proj.weight,
            &self.attn.proj.bias,
            &self.ln2_g,
            &self.ln2_b,
            &self.fc1.weight,
            &self.fc1.bias,
            &self.fc2.weight,
            &self.fc2.bias,
        ]
    }

    /// All parameter tensors in canonical order, mutably.
    fn param_tensors_mut(&mut self) -> [&mut Tensor; 12] {
        [
            &mut self.ln1_g,
            &mut self.ln1_b,
            &mut self.attn.qkv.weight,
            &mut self.attn.qkv.bias,
            &mut self.attn.proj.weight,
            &mut self.attn.proj.bias,
            &mut self.ln2_g,
            &mut self.ln2_b,
            &mut self.fc1.weight,
            &mut self.fc1.bias,
            &mut self.fc2.weight,
            &mut self.fc2.bias,
        ]
    }

    /// Overwrites all parameters from a flat vector in canonical order.
    ///
    /// # Panics
    /// Panics if `flat.len() != self.param_count()`.
    pub fn load_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.param_count());
        let mut off = 0;
        for p in self.param_tensors_mut() {
            let n = p.numel();
            p.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        }
    }
}

impl BlockGrads {
    /// Resets all gradients to zero.
    pub fn zero_(&mut self) {
        self.ln1_g.zero_();
        self.ln1_b.zero_();
        self.attn.zero_();
        self.ln2_g.zero_();
        self.ln2_b.zero_();
        self.fc1.zero_();
        self.fc2.zero_();
    }

    /// All gradient tensors in canonical order.
    fn tensors(&self) -> [&Tensor; 12] {
        [
            &self.ln1_g,
            &self.ln1_b,
            &self.attn.qkv.weight,
            &self.attn.qkv.bias,
            &self.attn.proj.weight,
            &self.attn.proj.bias,
            &self.ln2_g,
            &self.ln2_b,
            &self.fc1.weight,
            &self.fc1.bias,
            &self.fc2.weight,
            &self.fc2.bias,
        ]
    }

    /// Flattens all gradients into a single vector (canonical order).
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.flatten_into(&mut out);
        out
    }

    /// Flattens all gradients into a reusable vector (canonical order),
    /// clearing it first. The offloaded trainer's D2H/optimizer path calls
    /// this once per layer per step into one persistent buffer.
    pub fn flatten_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for t in self.tensors() {
            out.extend_from_slice(t.data());
        }
    }

    /// `self += scale * other`, tensor by tensor in canonical order. Both
    /// the resident and the offloaded trainers accumulate per-sample
    /// gradients through this one routine, so their floating-point op
    /// sequences are identical — the basis of the bit-exact equivalence
    /// tests. (The vectorized [`axpy`] evaluates `a + scale * b` with the
    /// same two-rounding sequence as the scalar loop it replaced.)
    pub fn accumulate_scaled(&mut self, other: &BlockGrads, scale: f32) {
        axpy(&mut self.ln1_g, scale, &other.ln1_g);
        axpy(&mut self.ln1_b, scale, &other.ln1_b);
        axpy(&mut self.attn.qkv.weight, scale, &other.attn.qkv.weight);
        axpy(&mut self.attn.qkv.bias, scale, &other.attn.qkv.bias);
        axpy(&mut self.attn.proj.weight, scale, &other.attn.proj.weight);
        axpy(&mut self.attn.proj.bias, scale, &other.attn.proj.bias);
        axpy(&mut self.ln2_g, scale, &other.ln2_g);
        axpy(&mut self.ln2_b, scale, &other.ln2_b);
        axpy(&mut self.fc1.weight, scale, &other.fc1.weight);
        axpy(&mut self.fc1.bias, scale, &other.fc1.bias);
        axpy(&mut self.fc2.weight, scale, &other.fc2.weight);
        axpy(&mut self.fc2.bias, scale, &other.fc2.bias);
    }

    /// Adds another gradient set element-wise (micro-batch accumulation).
    pub fn accumulate(&mut self, other: &BlockGrads) {
        add_assign(&mut self.ln1_g, &other.ln1_g);
        add_assign(&mut self.ln1_b, &other.ln1_b);
        add_assign(&mut self.attn.qkv.weight, &other.attn.qkv.weight);
        add_assign(&mut self.attn.qkv.bias, &other.attn.qkv.bias);
        add_assign(&mut self.attn.proj.weight, &other.attn.proj.weight);
        add_assign(&mut self.attn.proj.bias, &other.attn.proj.bias);
        add_assign(&mut self.ln2_g, &other.ln2_g);
        add_assign(&mut self.ln2_b, &other.ln2_b);
        add_assign(&mut self.fc1.weight, &other.fc1.weight);
        add_assign(&mut self.fc1.bias, &other.fc1.bias);
        add_assign(&mut self.fc2.weight, &other.fc2.weight);
        add_assign(&mut self.fc2.bias, &other.fc2.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_tensor::init::{normal, seeded_rng};

    #[test]
    fn param_count_formula() {
        let b = Block::new(32, 4, &mut seeded_rng(70));
        assert_eq!(b.param_count(), 12 * 32 * 32 + 13 * 32);
    }

    #[test]
    fn forward_shapes() {
        let b = Block::new(16, 2, &mut seeded_rng(71));
        let x = normal([6, 16], 1.0, &mut seeded_rng(72));
        let (y, _) = b.forward(&x);
        assert_eq!(y.shape().dims(), &[6, 16]);
        assert!(y.all_finite());
    }

    #[test]
    fn recompute_matches_cached_forward() {
        let b = Block::new(16, 2, &mut seeded_rng(73));
        let x = normal([5, 16], 1.0, &mut seeded_rng(74));
        let (y1, _) = b.forward(&x);
        let y2 = b.forward_no_cache(&x);
        assert_eq!(y1, y2);
    }

    #[test]
    fn gradient_check_through_block() {
        let mut rng = seeded_rng(75);
        let b = Block::new(8, 2, &mut rng);
        let x = normal([3, 8], 0.5, &mut rng);
        let w = normal([3, 8], 1.0, &mut rng);
        let loss = |xin: &Tensor| -> f32 {
            let (y, _) = b.forward(xin);
            y.data()
                .iter()
                .zip(w.data().iter())
                .map(|(a, c)| a * c)
                .sum()
        };
        let (_, cache) = b.forward(&x);
        let mut grads = b.zero_grads();
        let dx = b.backward(&w, &x, &cache, &mut grads);
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 5e-2 * (1.0 + num.abs()),
                "dx[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn flatten_load_round_trip() {
        let mut rng = seeded_rng(76);
        let b1 = Block::new(16, 2, &mut rng);
        let flat = b1.flatten_params();
        assert_eq!(flat.len(), b1.param_count());
        let mut b2 = Block::new(16, 2, &mut seeded_rng(999));
        b2.load_flat_params(&flat);
        assert_eq!(b2.flatten_params(), flat);
        // Same forward result.
        let x = normal([4, 16], 1.0, &mut rng);
        assert_eq!(b1.forward_no_cache(&x), b2.forward_no_cache(&x));
    }

    #[test]
    fn decode_image_rounds_and_counts_like_the_flat_block() {
        let mut rng = seeded_rng(78);
        let b = Block::new(16, 2, &mut rng);
        let image = DecodeBlock::pack(&b);
        assert_eq!(image.param_count(), b.param_count());

        // Rounding the copied image equals imaging the rounded block.
        let mut pack = PackedHalf::new(stronghold_tensor::Precision::Bf16);
        let mut shell = DecodeBlock::pack(&Block::new(16, 2, &mut seeded_rng(5)));
        shell.copy_from(&image);
        shell.round_through(&mut pack);
        let mut flat = b.flatten_params();
        pack.round_through(&mut flat);
        let mut rounded = b.clone();
        rounded.load_flat_params(&flat);

        let x = normal([3, 16], 1.0, &mut rng);
        let run = |img: &DecodeBlock| {
            let mut cache = KvCache::new(2, 8, 4);
            let mut y = Tensor::zeros([1]);
            img.forward_decode(&x, &mut cache, &mut BlockDecodeScratch::new(), &mut y);
            y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(&shell), run(&DecodeBlock::pack(&rounded)));
    }

    #[test]
    fn grads_accumulate() {
        let mut rng = seeded_rng(77);
        let b = Block::new(8, 2, &mut rng);
        let x = normal([3, 8], 1.0, &mut rng);
        let dy = normal([3, 8], 1.0, &mut rng);
        let (_, cache) = b.forward(&x);
        let mut g1 = b.zero_grads();
        b.backward(&dy, &x, &cache, &mut g1);
        let mut g2 = b.zero_grads();
        g2.accumulate(&g1);
        g2.accumulate(&g1);
        let f1 = g1.flatten();
        let f2 = g2.flatten();
        for (a, b) in f2.iter().zip(f1.iter()) {
            assert!((a - 2.0 * b).abs() < 1e-5);
        }
    }
}
