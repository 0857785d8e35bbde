//! The serving engine end-to-end: continuous batching on the windowed
//! offload runtime must serve a trained checkpoint with token streams that
//! are (a) bit-identical to the fully-resident static-batching reference,
//! (b) invariant to every scheduling knob — window size, slot count,
//! compute workers, arrival interleaving — and (c) still correct when the
//! model's parameter bytes exceed the device arena.

use stronghold_baselines::{StaticBatchConfig, StaticBatchGenerator};
use stronghold_core::adam::AdamParams;
use stronghold_core::host::{HostOffloadConfig, HostOffloadTrainer, TrainingState};
use stronghold_core::serve::{GenRequest, GenResult, ServeConfig, ServeEngine};
use stronghold_core::telemetry::Telemetry;
use stronghold_integration_tests::batch_for;
use stronghold_model::block::BlockDecodeScratch;
use stronghold_model::config::tiny;
use stronghold_model::transformer::{HeadDecodeScratch, Transformer};
use stronghold_tensor::attention::KvCache;
use stronghold_tensor::init::{normal, seeded_rng};
use stronghold_tensor::{PackedHalf, Precision, Tensor};

/// A trained SHTS blob: the serving entry point every engine under test
/// shares, so stream differences can only come from the engine itself.
fn trained_blob() -> (bytes::Bytes, stronghold_model::config::ModelConfig) {
    let cfg = tiny(3);
    let batch = batch_for(&cfg, 77);
    let mut t = HostOffloadTrainer::new(
        cfg,
        11,
        HostOffloadConfig {
            window: 2,
            optimizer_workers: 2,
            adam: AdamParams {
                lr: 1e-3,
                ..AdamParams::default()
            },
            ..HostOffloadConfig::default()
        },
    );
    for _ in 0..3 {
        t.train_step(&batch);
    }
    (t.save_training_state(), cfg)
}

fn workload() -> Vec<GenRequest> {
    let lens = [(2usize, 6usize), (5, 3), (3, 5), (4, 4), (2, 4)];
    lens.iter()
        .enumerate()
        .map(|(i, &(p, n))| GenRequest {
            id: i as u64,
            prompt: (0..p as u32)
                .map(|t| (t * 11 + 3 * i as u32) % 64)
                .collect(),
            max_new_tokens: n,
            seed: 500 + i as u64,
        })
        .collect()
}

fn by_id(mut rs: Vec<GenResult>) -> Vec<GenResult> {
    rs.sort_by_key(|r| r.id);
    rs
}

/// Prefill and token-at-a-time decode must be *bit-identical* through the
/// whole model stack (embedding → blocks → final LN → tied head): the
/// batch-stable GEMM entries make every product's bits independent of how
/// many rows ride in the run.
#[test]
fn prefill_and_decode_logits_are_bit_identical() {
    let cfg = tiny(3);
    let model = Transformer::new(cfg, 21);
    let prompt: Vec<u32> = (0..7u32).map(|t| (t * 13 + 5) % 64).collect();
    let dh = cfg.hidden / cfg.heads;

    let run = |chunks: &[&[u32]]| -> Vec<f32> {
        let mut kv: Vec<KvCache> = (0..cfg.layers)
            .map(|_| KvCache::new(cfg.heads, dh, cfg.seq))
            .collect();
        let mut ws = BlockDecodeScratch::new();
        let mut head_ws = HeadDecodeScratch::new();
        let mut x = Tensor::zeros([1]);
        let mut y = Tensor::zeros([1]);
        let mut logits = Tensor::zeros([1]);
        let mut pos = 0;
        for chunk in chunks {
            model.embed_at_into(chunk, pos, &mut x);
            for (i, cache) in kv.iter_mut().enumerate() {
                model.block_forward_decode(i, &x, cache, &mut ws, &mut y);
                std::mem::swap(&mut x, &mut y);
            }
            pos += chunk.len();
        }
        model.lm_logits_last_into(&x, &mut head_ws, &mut logits);
        logits.data().to_vec()
    };

    let full = run(&[&prompt]);
    let singles: Vec<&[u32]> = prompt.chunks(1).collect();
    let token_at_a_time = run(&singles);
    let split = run(&[&prompt[..3], &prompt[3..]]);
    assert_eq!(
        full, token_at_a_time,
        "prefill vs decode logits must match bitwise"
    );
    assert_eq!(full, split, "mid-sequence prefill must not change the bits");
}

/// The determinism matrix: one trained blob, one workload, every
/// scheduling shape — window sizes, slot counts, worker counts, staggered
/// arrivals — must emit byte-identical per-request token streams within a
/// precision. (Bf16 streams differ from F32 streams — the device grid is
/// coarser — but are equally schedule-invariant.)
#[test]
fn token_streams_are_invariant_to_scheduling_shape() {
    let (blob, _cfg) = trained_blob();
    for precision in [Precision::F32, Precision::Bf16] {
        let mk = |serve: ServeConfig| {
            ServeEngine::from_state_blob(blob.clone(), serve, Telemetry::disabled()).unwrap()
        };
        let base_cfg = ServeConfig {
            precision,
            ..ServeConfig::default()
        };
        let baseline = by_id(mk(base_cfg.clone()).generate(workload()));
        assert_eq!(baseline.len(), 5);

        let shapes = [
            ServeConfig {
                window: 1,
                ..base_cfg.clone()
            },
            ServeConfig {
                window: 3,
                slots: 1,
                ..base_cfg.clone()
            },
            ServeConfig {
                slots: 3,
                compute_workers: 2,
                ..base_cfg.clone()
            },
        ];
        for (si, cfg) in shapes.into_iter().enumerate() {
            let got = by_id(mk(cfg).generate(workload()));
            for (a, b) in baseline.iter().zip(got.iter()) {
                assert_eq!(
                    a.tokens, b.tokens,
                    "{precision:?} shape {si}: req {} stream changed with the schedule",
                    a.id
                );
            }
        }

        // Staggered arrivals: half the workload lands mid-flight.
        let mut eng = mk(base_cfg);
        let reqs = workload();
        let (first, rest) = reqs.split_at(2);
        for r in first {
            eng.submit(r.clone());
        }
        let mut got = Vec::new();
        got.extend(eng.step());
        for r in rest {
            eng.submit(r.clone());
        }
        while eng.active_slots() > 0 || eng.queue_depth() > 0 {
            got.extend(eng.step());
        }
        let got = by_id(got);
        for (a, b) in baseline.iter().zip(got.iter()) {
            assert_eq!(
                a.tokens, b.tokens,
                "{precision:?}: req {} stream changed with arrival timing",
                a.id
            );
        }
    }
}

/// The headline claim: a model whose FP32 parameter bytes exceed the
/// device arena serves end-to-end via layer streaming, never exceeding the
/// budget — and emits the same streams as an unconstrained engine.
#[test]
fn serves_a_model_larger_than_the_device_arena() {
    let (blob, _cfg) = trained_blob();
    let tel = Telemetry::enabled();
    let mut roomy =
        ServeEngine::from_state_blob(blob.clone(), ServeConfig::default(), Telemetry::disabled())
            .unwrap();
    let want = by_id(roomy.generate(workload()));

    // Budget for the KV arena plus two parameter slots: window clamps to 1
    // and only a third of the model is ever device-resident.
    let kv = roomy.kv_arena_bytes();
    let bb = roomy.block_bytes();
    let cap = kv + 2 * bb + bb / 2;
    let mut tight = ServeEngine::from_state_blob(
        blob,
        ServeConfig {
            window: 3,
            device_capacity: Some(cap),
            ..ServeConfig::default()
        },
        tel.clone(),
    )
    .unwrap();
    assert!(
        tight.param_bytes() > cap,
        "the model must not fit the arena: {} <= {}",
        tight.param_bytes(),
        cap
    );
    assert_eq!(tight.window(), 1, "budget admits exactly m = 1");
    let got = by_id(tight.generate(workload()));
    assert!(
        tight.device().peak() <= cap,
        "serving blew the device budget"
    );
    for (a, b) in want.iter().zip(got.iter()) {
        assert_eq!(
            a.tokens, b.tokens,
            "req {}: streaming changed the stream",
            a.id
        );
    }

    // The engine's telemetry tells the same story.
    let tokens: u64 = want.iter().map(|r| r.tokens.len() as u64).sum();
    assert_eq!(tel.counter("serve.tokens").get(), tokens);
    assert_eq!(tel.counter("serve.completed").get(), want.len() as u64);
    assert!(tel.counter("serve.prefill_tokens").get() > 0);
    assert!(tel.counter("serve.decode_tokens").get() > 0);
}

/// Continuous batching vs the fully-resident static reference on a
/// *trained* model: the schedules differ wildly, the bits must not.
#[test]
fn continuous_and_static_agree_on_a_trained_model() {
    let (blob, _cfg) = trained_blob();
    let st = TrainingState::decode(blob.clone()).unwrap();
    let mut stat = StaticBatchGenerator::from_model(st.model, StaticBatchConfig::default());
    let mut cont =
        ServeEngine::from_state_blob(blob, ServeConfig::default(), Telemetry::disabled()).unwrap();
    let a = by_id(stat.generate(workload()));
    let b = by_id(cont.generate(workload()));
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(
            x.tokens, y.tokens,
            "req {}: static and continuous disagree",
            x.id
        );
    }
}

/// The ragged mix of one batched serving round: a fresh prefill of 5, a
/// decode with 4 tokens cached, an idle slot, a mid-sequence prefill of 3
/// after 2 cached, and a decode with 6 cached — as `(run, history)`.
const RAGGED: [(usize, usize); 5] = [(5, 0), (1, 4), (0, 3), (3, 2), (1, 6)];

/// Rows `row0..row0 + n` of a `[T, H]` tensor as their own tensor.
fn rows_of(x: &Tensor, row0: usize, n: usize) -> Tensor {
    let h = x.shape().dim(1);
    Tensor::from_vec([n, h], x.data()[row0 * h..(row0 + n) * h].to_vec())
}

/// One stacked `Block::forward_decode_batch` over a ragged mix of prefill
/// runs, decode tokens and an idle slot must reproduce per-slot
/// `forward_decode` bit-for-bit: output rows and every cached K/V entry,
/// on the f32 and the bf16-rounded device grid, with the attention runs on
/// one thread or fanned across two.
#[test]
fn ragged_batched_decode_matches_per_slot_decode_bitwise() {
    let cfg = tiny(2);
    let model = Transformer::new(cfg, 31);
    let dh = cfg.hidden / cfg.heads;
    let mut rng = seeded_rng(32);
    let rows: usize = RAGGED.iter().map(|&(r, _)| r).sum();
    let x = normal([rows, cfg.hidden], 1.0, &mut rng);
    let runs: Vec<usize> = RAGGED.iter().map(|&(r, _)| r).collect();
    // Every slot's cache starts from its own seeded history.
    let history: Vec<KvCache> = RAGGED
        .iter()
        .map(|&(_, past)| {
            let mut c = KvCache::new(cfg.heads, dh, cfg.seq);
            if past > 0 {
                let xp = normal([past, cfg.hidden], 1.0, &mut rng);
                let mut y = Tensor::zeros([1]);
                model.blocks[1].forward_decode(&xp, &mut c, &mut BlockDecodeScratch::new(), &mut y);
            }
            c
        })
        .collect();

    for precision in [Precision::F32, Precision::Bf16] {
        // The shell exactly as the engine's prefetcher stages it.
        let mut block = model.blocks[0].clone();
        let mut flat = block.flatten_params();
        if precision.is_half() {
            PackedHalf::new(precision).round_through(&mut flat);
        }
        block.load_flat_params(&flat);

        let mut want_caches = history.clone();
        let mut want = Vec::new();
        let mut ws = BlockDecodeScratch::new();
        let mut y = Tensor::zeros([1]);
        let mut row0 = 0;
        for (cache, &r) in want_caches.iter_mut().zip(&runs) {
            if r > 0 {
                block.forward_decode(&rows_of(&x, row0, r), cache, &mut ws, &mut y);
                want.extend(y.data().iter().map(|v| v.to_bits()));
            }
            row0 += r;
        }

        for workers in [1, 2] {
            let mut caches = history.clone();
            let mut y = Tensor::zeros([1]);
            let mut ws = BlockDecodeScratch::with_workers(workers);
            block.forward_decode_batch(&x, &runs, &mut caches, &mut ws, &mut y);
            let got: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got, want,
                "{precision:?} x{workers}: batched rows differ from per-slot decode"
            );
            for (s, (a, b)) in caches.iter().zip(&want_caches).enumerate() {
                assert_eq!(a.len(), b.len(), "slot {s}: cache length");
                for head in 0..cfg.heads {
                    for (ka, kb) in [
                        (a.keys(head), b.keys(head)),
                        (a.values(head), b.values(head)),
                    ] {
                        let ka: Vec<u32> = ka.iter().map(|v| v.to_bits()).collect();
                        let kb: Vec<u32> = kb.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            ka, kb,
                            "{precision:?} x{workers}: slot {s} head {head} KV cache differs"
                        );
                    }
                }
            }
        }
    }
}

/// The batched LM head — each non-empty run's last row gathered into one
/// layernorm and one `[B, vocab]` product — must equal the per-slot
/// `lm_logits_last_into` bit-for-bit.
#[test]
fn batched_lm_head_matches_per_slot_head_bitwise() {
    let cfg = tiny(2);
    let model = Transformer::new(cfg, 33);
    let runs: Vec<usize> = RAGGED.iter().map(|&(r, _)| r).collect();
    let rows: usize = runs.iter().sum();
    let x = normal([rows, cfg.hidden], 1.0, &mut seeded_rng(34));

    let mut logits = Tensor::zeros([1]);
    model.lm_logits_last_batch_into(&x, &runs, &mut HeadDecodeScratch::new(), &mut logits);
    let busy = runs.iter().filter(|&&r| r > 0).count();
    assert_eq!(logits.shape().dims(), &[busy, cfg.vocab]);

    let mut ws = HeadDecodeScratch::new();
    let mut one = Tensor::zeros([1]);
    let mut got = logits.data().chunks_exact(cfg.vocab);
    let mut row0 = 0;
    for (s, &r) in runs.iter().enumerate() {
        if r == 0 {
            continue;
        }
        model.lm_logits_last_into(&rows_of(&x, row0, r), &mut ws, &mut one);
        row0 += r;
        let a: Vec<u32> = got.next().unwrap().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = one.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "slot {s}: batched head logits differ");
    }
}

/// Serving packs once, at construction: engine rounds read every weight,
/// the tied head and every cached key from pre-packed panels, so no round
/// packs an NT `B` operand. The counter is per thread; with one compute
/// worker the whole compute loop runs on the calling thread, which the
/// live NN count (the context product's row copy of V) confirms.
#[test]
fn engine_rounds_pack_no_nt_operand() {
    use stronghold_tensor::matmul::stats;
    for precision in [Precision::F32, Precision::Bf16] {
        let mut eng = ServeEngine::new(
            tiny(3),
            9,
            ServeConfig {
                precision,
                ..ServeConfig::default()
            },
        );
        let before = stats::b_floats_packed();
        let out = eng.generate(workload());
        assert_eq!(out.len(), 5);
        let after = stats::b_floats_packed();
        assert!(after[0] > before[0], "{precision:?}: rounds ran elsewhere");
        assert_eq!(
            after[1] - before[1],
            0,
            "{precision:?}: a round packed NT B floats"
        );
    }
}
