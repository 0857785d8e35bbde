//! The serving workload (`serve-decode`): closed-loop clients against
//! `ServeEngine::submit`/`step`, driven from one thread.
//!
//! Latency is timed from the benchmark's own send timestamps. The engine's
//! `GenResult::ttft_ns`/`latency_ns` start at *admission* (the request's
//! `submit_ns` is stamped in `admit`), so they leave out the time a request
//! waits in the queue; the difference is reported as
//! `serve.queue_wait_ms_p50`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use stronghold_baselines::{StaticBatchConfig, StaticBatchGenerator};
use stronghold_core::serve::{GenRequest, GenResult, ServeConfig, ServeEngine};
use stronghold_core::telemetry::Telemetry;
use stronghold_model::transformer::Transformer;
use stronghold_tensor::{matmul, ops};

use crate::context;
use crate::probes;
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::workload::{ClientStream, ServeShape, MODEL_SEED};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

pub fn engine_config(shape: &ServeShape) -> ServeConfig {
    ServeConfig {
        window: shape.window,
        slots: shape.slots,
        max_seq: shape.cfg.seq,
        compute_workers: 1,
        temperature: 0.0,
        ..ServeConfig::default()
    }
}

/// Worker pools the workload sets, for the context line.
pub fn pools(shape: &ServeShape) -> String {
    format!(
        "compute_workers={} slots={} clients={}",
        engine_config(shape).compute_workers,
        shape.slots,
        shape.clients
    )
}

/// Builds an engine and runs one short request through it, so the first
/// timed round finds its threads, caches and scratch pools warm.
fn setup(shape: &ServeShape, tel: Telemetry) -> (ServeEngine, f64) {
    let t0 = Instant::now();
    let model = Transformer::new(shape.cfg, MODEL_SEED);
    let mut engine = ServeEngine::from_model(model, engine_config(shape), tel);
    engine.generate(vec![GenRequest {
        id: u64::MAX,
        prompt: (0..shape.prompt.0 as u32).collect(),
        max_new_tokens: 4,
        seed: 0,
    }]);
    (engine, t0.elapsed().as_secs_f64())
}

/// What one closed-loop run observed. Timings cover the rounds that began
/// before the deadline; the drain after it only completes open requests.
#[derive(Default)]
struct Record {
    round_ms: Vec<f64>,
    /// Gaps between consecutive tokens of one request.
    itl_ms: Vec<f64>,
    /// Send → first token, on the benchmark's clock.
    ttft_ms: Vec<f64>,
    /// That TTFT minus the engine's admission-based `ttft_ns`.
    queue_wait_ms: Vec<f64>,
    tokens: u64,
    rounds: u64,
    elapsed: f64,
    sent: Vec<GenRequest>,
    results: Vec<GenResult>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the closed loop for `seconds`: every client keeps one request
/// outstanding and sends its next the moment the previous completes.
fn closed_loop(engine: &mut ServeEngine, shape: &ServeShape, seed: u64, seconds: f64) -> Record {
    let mut clients: Vec<ClientStream> = (0..shape.clients)
        .map(|c| ClientStream::new(*shape, seed, c))
        .collect();
    let mut rec = Record::default();
    let mut sent_at: HashMap<u64, Instant> = HashMap::new();
    let mut first_at: HashMap<u64, Instant> = HashMap::new();
    let mut last_at: HashMap<u64, Instant> = HashMap::new();
    let mut queued: VecDeque<u64> = VecDeque::new();
    let mut active: Vec<u64> = Vec::new();
    let mut send = |client: usize,
                    engine: &mut ServeEngine,
                    rec: &mut Record,
                    sent_at: &mut HashMap<u64, Instant>,
                    queued: &mut VecDeque<u64>| {
        let req = clients[client].next_request();
        queued.push_back(req.id);
        rec.sent.push(req.clone());
        sent_at.insert(req.id, Instant::now());
        engine.submit(req);
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    for c in 0..shape.clients {
        send(c, engine, &mut rec, &mut sent_at, &mut queued);
    }
    loop {
        let t0 = Instant::now();
        let in_window = t0 < deadline;
        if !in_window && queued.is_empty() && active.is_empty() {
            return rec;
        }
        let queued_before = engine.queue_depth();
        let done = engine.step();
        let t1 = Instant::now();
        // Every request active before the round got one token in it.
        for id in &active {
            let last = last_at.insert(*id, t1).expect("active request has a token");
            if in_window {
                rec.itl_ms.push(ms(t1 - last));
            }
        }
        // Admission is FIFO at the start of the round, and an admitted
        // request's prefill yields its first token in that same round.
        for _ in 0..queued_before - engine.queue_depth() {
            let id = queued.pop_front().expect("admitted request was queued");
            if in_window {
                rec.ttft_ms.push(ms(t1 - sent_at[&id]));
            }
            first_at.insert(id, t1);
            last_at.insert(id, t1);
            active.push(id);
        }
        if in_window {
            rec.round_ms.push(ms(t1 - t0));
            rec.tokens += active.len() as u64;
            rec.rounds += 1;
            rec.elapsed = (t1 - start).as_secs_f64();
        }
        for r in done {
            active.retain(|a| *a != r.id);
            let sent = sent_at.remove(&r.id).expect("completed request was sent");
            let first = first_at
                .remove(&r.id)
                .expect("completed request had a first token");
            last_at.remove(&r.id);
            if in_window {
                rec.queue_wait_ms
                    .push(ms(first - sent) - r.ttft_ns as f64 / 1e6);
            }
            let client = (r.id >> 32) as usize;
            rec.results.push(r);
            if Instant::now() < deadline {
                send(client, engine, &mut rec, &mut sent_at, &mut queued);
            }
        }
    }
}

/// Checks every served stream against `StaticBatchGenerator` (fully
/// resident, one request at a time, greedy) on the same requests.
fn check(shape: &ServeShape, records: &[&Record], out: &mut Outcome) {
    let mut requests: BTreeMap<u64, GenRequest> = BTreeMap::new();
    for rec in records {
        for r in &rec.sent {
            requests.entry(r.id).or_insert_with(|| r.clone());
        }
    }
    let want: HashMap<u64, GenResult> = StaticBatchGenerator::new(
        shape.cfg,
        MODEL_SEED,
        StaticBatchConfig {
            slots: 1,
            max_seq: shape.cfg.seq,
            temperature: 0.0,
        },
    )
    .generate(requests.values().cloned().collect())
    .into_iter()
    .map(|r| (r.id, r))
    .collect();
    for rec in records {
        let got: HashMap<u64, &GenResult> = rec.results.iter().map(|r| (r.id, r)).collect();
        out.attempted += rec.sent.len() as u64;
        out.failed += rec
            .sent
            .iter()
            .filter(|r| {
                let ok = got.get(&r.id).is_some_and(|g| {
                    g.tokens.len() == r.max_new_tokens && g.tokens == want[&r.id].tokens
                });
                !ok
            })
            .count() as u64;
    }
}

fn print_record(label: &str, rec: &Record) {
    println!(
        "# {label}: {} requests sent, {} completed, {} rounds / {} tokens in {:.3} s; ITL ms p50 {:.3} p90 {:.3}; TTFT ms p50 {:.3} p90 {:.3} ({} samples); queue wait ms p50 {:.3}",
        rec.sent.len(),
        rec.results.len(),
        rec.rounds,
        rec.tokens,
        rec.elapsed,
        percentile(&rec.itl_ms, 50.0),
        percentile(&rec.itl_ms, 90.0),
        percentile(&rec.ttft_ms, 50.0),
        percentile(&rec.ttft_ms, 90.0),
        rec.ttft_ms.len(),
        median(&rec.queue_wait_ms),
    );
}

/// The untraced run: a set-up, the closed loop for `seconds`, more set-ups
/// for the `setup_s` median, then the stream check.
pub fn run(shape: &ServeShape, seed: u64, seconds: f64) -> Outcome {
    let (mut engine, first_setup) = setup(shape, Telemetry::disabled());
    let rec = closed_loop(&mut engine, shape, seed, seconds);
    // Read before any other engine exists, so the peak is this one's.
    let rss = context::peak_rss_bytes();
    let mut setups = vec![first_setup];
    while setups.len() < SETUPS {
        setups.push(setup(shape, Telemetry::disabled()).1);
    }
    let mut out = Outcome::default();
    check(shape, &[&rec], &mut out);
    print_record("closed loop", &rec);
    println!("# set-ups (s) {setups:?}");
    out.set("setup_s", median(&setups));
    out.set("tokens_per_s", rec.tokens as f64 / rec.elapsed);
    out.set("step_ms_p50", percentile(&rec.itl_ms, 50.0));
    out.set("step_ms_p90", percentile(&rec.itl_ms, 90.0));
    out.set("device_peak_bytes", engine.device().peak() as f64);
    out.set("host_peak_rss_bytes", rss as f64);
    out.set("success_rate", out.success_rate());
    out
}

/// The traced run: a third of the time untraced, two thirds with telemetry
/// on, the decode-round probe, then the stream check.
pub fn run_traced(shape: &ServeShape, seed: u64, seconds: f64) -> Outcome {
    let (mut plain, _) = setup(shape, Telemetry::disabled());
    let plain_rec = closed_loop(&mut plain, shape, seed, seconds / 3.0);

    let tel = Telemetry::enabled();
    let (mut traced, _) = setup(shape, tel.clone());
    let gemm0 = matmul::stats::snapshot();
    let ops0: u64 = ops::stats::snapshot().iter().map(|o| o.nanos).sum();
    let h2d0 = traced.device().h2d_bytes();
    let counter = |name: &str| tel.counter(name).get();
    let (rounds0, tokens0) = (counter("serve.rounds"), counter("serve.tokens"));
    let (pre0, dec0) = (
        counter("serve.prefill_tokens"),
        counter("serve.decode_tokens"),
    );
    let rec = closed_loop(&mut traced, shape, seed, seconds * 2.0 / 3.0);
    // Counter deltas cover every round of the loop, drain included, so
    // they are normalized by the same rounds and tokens.
    let gemm1 = matmul::stats::snapshot();
    let gemm = |f: fn(&matmul::stats::LayoutStats) -> u64| -> f64 {
        (gemm1.iter().map(f).sum::<u64>() - gemm0.iter().map(f).sum::<u64>()) as f64
    };
    let op_ns = (ops::stats::snapshot().iter().map(|o| o.nanos).sum::<u64>() - ops0) as f64;
    let rounds = (counter("serve.rounds") - rounds0).max(1) as f64;
    let tokens = (counter("serve.tokens") - tokens0).max(1) as f64;
    let prefill = (counter("serve.prefill_tokens") - pre0) as f64;
    let decode = (counter("serve.decode_tokens") - dec0) as f64;
    let h2d = (traced.device().h2d_bytes() - h2d0) as f64;
    let decode_round = probes::decode_round(shape);

    let mut out = Outcome::default();
    check(shape, &[&plain_rec, &rec], &mut out);

    let plain_tps = plain_rec.tokens as f64 / plain_rec.elapsed;
    let traced_tps = rec.tokens as f64 / rec.elapsed;
    out.set("tensor.gemm_ms_per_step", gemm(|s| s.nanos) / 1e6 / rounds);
    out.set(
        "tensor.gemm_gflops",
        gemm(|s| s.flops) / gemm(|s| s.nanos).max(1.0),
    );
    out.set("tensor.op_ms_per_step", op_ns / 1e6 / rounds);
    out.set("tensor.gemm_calls_per_token", gemm(|s| s.calls) / tokens);
    out.set("model.decode_round_ms", decode_round);
    out.set("device.h2d_bytes_per_round", h2d / rounds);
    out.set("serve.round_ms_p50", percentile(&rec.round_ms, 50.0));
    out.set("serve.round_ms_p90", percentile(&rec.round_ms, 90.0));
    out.set(
        "serve.tokens_per_round",
        rec.tokens as f64 / rec.rounds.max(1) as f64,
    );
    out.set("serve.queue_wait_ms_p50", median(&rec.queue_wait_ms));
    out.set("serve.prefill_share", prefill / (prefill + decode).max(1.0));
    out.set("serve.ttft_ms_p50", percentile(&rec.ttft_ms, 50.0));
    out.set("serve.ttft_ms_p90", percentile(&rec.ttft_ms, 90.0));
    out.set("trace.overhead_frac", plain_tps / traced_tps - 1.0);

    print_record("untraced", &plain_rec);
    print_record("traced", &rec);
    println!(
        "# per round: GEMM {:.3} ms in {:.1} calls, other ops {:.3} ms, H2D {:.0} B; decode-round probe {decode_round:.3} ms",
        gemm(|s| s.nanos) / 1e6 / rounds,
        gemm(|s| s.calls) / rounds,
        op_ns / 1e6 / rounds,
        h2d / rounds
    );
    println!(
        "# tracing overhead: untraced {plain_tps:.1} tok/s, traced {traced_tps:.1} tok/s ({:+.2}%)",
        (plain_tps / traced_tps - 1.0) * 100.0
    );
    context::write_chrome_trace(&tel, "serve-decode", seed);
    out
}
