//! Workload definitions and their seeded input generators.
//!
//! The workload seed is the only source of variation: it picks the training
//! batches, the serving prompts and the output lengths. Model weights use a
//! fixed seed, so two seeds differ only in what the program is given.

use stronghold_core::serve::GenRequest;
use stronghold_model::config::ModelConfig;
use stronghold_model::data::SyntheticCorpus;

/// Seed of every model's initial weights.
pub const MODEL_SEED: u64 = 7;

/// A training batch: `(inputs, targets)` per sample.
pub type Batch = Vec<(Vec<u32>, Vec<u32>)>;

/// Shape of a training workload.
#[derive(Clone, Copy, Debug)]
pub struct TrainShape {
    pub name: &'static str,
    pub cfg: ModelConfig,
    pub window: usize,
    /// Layers whose FP32 masters + Adam moments stay in RAM; the rest spill
    /// to the swap file. `None` keeps every layer resident.
    pub ram_layers: Option<usize>,
    /// Concurrent Adam actors (capped at the core count).
    pub optimizer_workers: usize,
}

impl TrainShape {
    /// Tokens trained per step.
    pub fn tokens_per_step(&self) -> u64 {
        (self.cfg.batch * self.cfg.seq) as u64
    }
}

/// Compute-bound windowed training: every layer host-resident, window 2.
pub fn train_window() -> TrainShape {
    TrainShape {
        name: "train-window",
        cfg: ModelConfig::new(8, 128, 4)
            .with_seq(64)
            .with_vocab(512)
            .with_batch(4),
        window: 2,
        ram_layers: None,
        // Updates are small here; a second actor only competes with compute.
        optimizer_workers: 1,
    }
}

/// Parameter-bound training: wide layers, one short sample, and a RAM
/// budget of two layers so six page through the swap file every step.
pub fn train_spill() -> TrainShape {
    TrainShape {
        name: "train-spill",
        cfg: ModelConfig::new(8, 256, 4)
            .with_seq(8)
            .with_vocab(512)
            .with_batch(1),
        window: 2,
        ram_layers: Some(2),
        optimizer_workers: 2,
    }
}

/// Distinct batches a training run cycles through.
pub const BATCH_POOL: usize = 16;

/// The batches a training run feeds, in order (step `k` uses
/// `batches[k % BATCH_POOL]`).
pub fn train_batches(cfg: &ModelConfig, seed: u64) -> Vec<Batch> {
    let mut corpus = SyntheticCorpus::new(cfg.vocab, seed);
    (0..BATCH_POOL)
        .map(|_| corpus.next_batch(cfg.batch, cfg.seq))
        .collect()
}

/// Shape of the serving workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeShape {
    pub cfg: ModelConfig,
    pub window: usize,
    pub slots: usize,
    /// Closed-loop clients, each with one request outstanding.
    pub clients: usize,
    pub prompt: (usize, usize),
    pub short_out: (usize, usize),
    pub long_out: (usize, usize),
    /// Every `long_every`-th request of a client asks for a long output
    /// (staggered across clients), so the mix is exact for every seed.
    pub long_every: u64,
}

/// Continuous-batching decode: 8 clients against 4 slots, greedy sampling.
pub fn serve_decode() -> ServeShape {
    ServeShape {
        cfg: ModelConfig::new(8, 128, 4).with_seq(224).with_vocab(512),
        window: 2,
        slots: 4,
        clients: 8,
        prompt: (8, 32),
        short_out: (24, 40),
        long_out: (128, 192),
        long_every: 4,
    }
}

/// SplitMix64: a small, dependency-free generator for lengths and choices.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the inclusive range `lo..=hi`.
    pub fn range(&mut self, (lo, hi): (usize, usize)) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Client `client`'s stream of requests: request `k` is a pure function of
/// `(seed, client, k)`, so a closed loop replays identically whatever order
/// completions arrive in.
pub struct ClientStream {
    shape: ServeShape,
    client: u64,
    next: u64,
    rng: Rng,
    corpus: SyntheticCorpus,
}

impl ClientStream {
    pub fn new(shape: ServeShape, seed: u64, client: usize) -> Self {
        let s = seed
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(client as u64 + 1);
        ClientStream {
            shape,
            client: client as u64,
            next: 0,
            rng: Rng::new(s),
            corpus: SyntheticCorpus::new(shape.cfg.vocab, s),
        }
    }

    /// The client's next request. Ids are `client << 32 | k`.
    pub fn next_request(&mut self) -> GenRequest {
        let sh = self.shape;
        let plen = self.rng.range(sh.prompt);
        let long = (self.next + self.client).is_multiple_of(sh.long_every);
        let out = self
            .rng
            .range(if long { sh.long_out } else { sh.short_out });
        let prompt = (0..plen).map(|_| self.corpus.draw_token()).collect();
        let id = self.client << 32 | self.next;
        self.next += 1;
        GenRequest {
            id,
            prompt,
            max_new_tokens: out,
            seed: id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_repeat_for_a_seed_and_differ_across_seeds() {
        for shape in [train_window(), train_spill()] {
            let a = train_batches(&shape.cfg, 11);
            assert_eq!(a, train_batches(&shape.cfg, 11));
            assert_ne!(a, train_batches(&shape.cfg, 12));
            assert_eq!(a.len(), BATCH_POOL);
            for b in &a {
                assert_eq!(b.len(), shape.cfg.batch);
                assert!(b
                    .iter()
                    .all(|(x, y)| x.len() == shape.cfg.seq && y.len() == shape.cfg.seq));
            }
            // Distinct batches inside one run, too.
            assert_ne!(a[0], a[1]);
        }
    }

    fn requests(seed: u64, client: usize, n: usize) -> Vec<(u64, Vec<u32>, usize)> {
        let mut s = ClientStream::new(serve_decode(), seed, client);
        (0..n)
            .map(|_| {
                let r = s.next_request();
                (r.id, r.prompt, r.max_new_tokens)
            })
            .collect()
    }

    #[test]
    fn requests_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(requests(3, 0, 50), requests(3, 0, 50));
        assert_ne!(requests(3, 0, 50), requests(4, 0, 50));
        assert_ne!(requests(3, 0, 50), requests(3, 1, 50));
    }

    #[test]
    fn requests_fit_the_slot_and_carry_a_heavy_tail() {
        let sh = serve_decode();
        let reqs: Vec<_> = (0..sh.clients).flat_map(|c| requests(9, c, 200)).collect();
        let long = reqs.iter().filter(|r| r.2 >= sh.long_out.0).count();
        for (_, p, out) in &reqs {
            assert!((sh.prompt.0..=sh.prompt.1).contains(&p.len()));
            assert!(p.len() + out <= sh.cfg.seq, "request must fit max_seq");
        }
        // Exactly one in four is long.
        assert_eq!(long * sh.long_every as usize, reqs.len());
        let ids: std::collections::BTreeSet<u64> = reqs.iter().map(|r| r.0).collect();
        assert_eq!(ids.len(), reqs.len(), "ids are unique");
    }
}
