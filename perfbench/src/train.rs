//! The training workloads (`train-window`, `train-spill`): windowed offload
//! training through `HostOffloadTrainer`, driven one step at a time.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stronghold_core::adam::AdamParams;
use stronghold_core::hooks::{HookCtx, HookPoint};
use stronghold_core::host::autotune::calibrate_host;
use stronghold_core::host::{HostOffloadConfig, HostOffloadTrainer, HostResidentTrainer};
use stronghold_core::telemetry::Telemetry;
use stronghold_core::tier::RESIDENT_BYTES_PER_PARAM;
use stronghold_sim::calibration::HostCalibration;
use stronghold_tensor::{matmul, ops};

use crate::context;
use crate::probes;
use crate::report::Outcome;
use crate::stats::{median, percentile, quartiles, split_step, HookEvent, StepSplit};
use crate::workload::{train_batches, Batch, TrainShape, MODEL_SEED};

/// Steps each trainer runs before measurement (scratch pools, channels and
/// the optimizer pipeline settle).
const WARMUP_STEPS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The trainer configuration of a workload. Every worker pool is at most
/// the core count.
pub fn offload_config(shape: &TrainShape) -> HostOffloadConfig {
    HostOffloadConfig {
        window: shape.window,
        optimizer_workers: shape.optimizer_workers.min(context::cores()),
        offload_workers: 1,
        compute_workers: 1,
        spill_workers: 1,
        host_capacity: shape
            .ram_layers
            .map(|n| n as u64 * RESIDENT_BYTES_PER_PARAM * shape.cfg.block_params()),
        ..HostOffloadConfig::default()
    }
}

/// Worker pools the workload sets, for the context line.
pub fn pools(shape: &TrainShape) -> String {
    let c = offload_config(shape);
    format!(
        "optimizer_workers={} offload_workers={} compute_workers={} spill_workers={}",
        c.optimizer_workers, c.offload_workers, c.compute_workers, c.spill_workers
    )
}

/// A trainer plus the losses of every step it ran; step `k` trains on
/// `batches[k % len]`.
struct TrainerRun {
    trainer: HostOffloadTrainer,
    losses: Vec<f32>,
}

impl TrainerRun {
    fn step(&mut self, batches: &[Batch]) {
        let batch = &batches[self.losses.len() % batches.len()];
        let loss = self.trainer.train_step(batch);
        self.losses.push(loss);
    }

    /// Steps until `seconds` have passed; returns each step's milliseconds
    /// and the wall seconds the steps took.
    fn run_for(&mut self, batches: &[Batch], seconds: f64) -> (Vec<f64>, f64) {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut ms = Vec::new();
        loop {
            let t = Instant::now();
            self.step(batches);
            let now = Instant::now();
            ms.push((now - t).as_secs_f64() * 1e3);
            if now >= deadline {
                return (ms, (now - start).as_secs_f64());
            }
        }
    }
}

/// Per-layer hook firings, appended from inside `train_step`.
#[derive(Clone, Default)]
struct HookLog(Arc<Mutex<Vec<HookEvent>>>);

impl HookLog {
    fn attach(&self, trainer: &mut HostOffloadTrainer, tel: &Telemetry, layers: usize) {
        use HookPoint::*;
        for layer in 0..layers {
            for point in [PreForward, PostForward, PreBackward, PostBackward] {
                let (log, tel) = (self.0.clone(), tel.clone());
                trainer
                    .hooks_mut()
                    .register(layer, point, move |ctx: &HookCtx| {
                        let at_ns = tel.now_nanos();
                        log.lock().expect("hook log").push(HookEvent {
                            layer: ctx.layer,
                            point,
                            at_ns,
                        });
                    });
            }
        }
    }

    fn take(&self) -> Vec<HookEvent> {
        std::mem::take(&mut *self.0.lock().expect("hook log"))
    }
}

/// Builds a trainer and brings it to a settled state: construction, the
/// warm-up steps and a flush. Returns the run and the seconds it took.
fn setup(
    shape: &TrainShape,
    batches: &[Batch],
    tel: Telemetry,
    log: Option<&HookLog>,
) -> (TrainerRun, f64) {
    let t0 = Instant::now();
    let mut trainer = HostOffloadTrainer::with_telemetry(
        shape.cfg,
        MODEL_SEED,
        offload_config(shape),
        tel.clone(),
    );
    if let Some(log) = log {
        log.attach(&mut trainer, &tel, shape.cfg.layers);
    }
    let mut s = TrainerRun {
        trainer,
        losses: Vec::new(),
    };
    for _ in 0..WARMUP_STEPS {
        s.step(batches);
    }
    s.trainer.flush();
    (s, t0.elapsed().as_secs_f64())
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Replays every run's batches on `HostResidentTrainer` (same seed,
/// same batches) and counts steps whose loss is not bit-equal; a run
/// whose final parameters differ is a broken run.
fn check_against_resident(
    shape: &TrainShape,
    batches: &[Batch],
    runs: &[&TrainerRun],
    out: &mut Outcome,
) {
    let mut order: Vec<&TrainerRun> = runs.to_vec();
    order.sort_by_key(|s| s.losses.len());
    let mut reference = HostResidentTrainer::new(shape.cfg, MODEL_SEED, AdamParams::default());
    let mut ref_losses: Vec<f32> = Vec::new();
    for s in order {
        while ref_losses.len() < s.losses.len() {
            ref_losses.push(reference.train_step(&batches[ref_losses.len() % batches.len()]));
        }
        out.attempted += s.losses.len() as u64;
        out.failed += s
            .losses
            .iter()
            .zip(&ref_losses)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count() as u64;
        s.trainer.flush();
        let params_equal = (0..shape.cfg.layers)
            .all(|i| bits(&s.trainer.block_params(i)) == bits(&reference.block_params(i)));
        if !params_equal {
            out.broken.push(format!(
                "parameters after {} steps differ from the resident trainer",
                s.losses.len()
            ));
        }
    }
}

/// Checks the spill plan and the swap-file traffic of `steps` steps
/// against the `TierPlan` per-step formulas, exactly.
fn check_spill(
    shape: &TrainShape,
    s: &TrainerRun,
    before: (u64, u64),
    steps: u64,
    out: &mut Outcome,
) {
    let nb = shape.cfg.layers;
    let want_spilled = shape.ram_layers.map_or(0, |r| nb.saturating_sub(r));
    if s.trainer.spilled_layers() != want_spilled {
        out.broken.push(format!(
            "{} layers spilled, the budget asks for {want_spilled}",
            s.trainer.spilled_layers()
        ));
    }
    let plan = s.trainer.tier_plan();
    let m = s.trainer.window();
    let f2h: u64 = (0..nb).map(|l| plan.f2h_bytes_per_step(l, m)).sum();
    let h2f: u64 = (0..nb).map(|l| plan.h2f_bytes_per_step(l)).sum();
    let after = s.trainer.spill_traffic();
    let got = (after.0 - before.0, after.1 - before.1);
    if got != (steps * f2h, steps * h2f) {
        out.broken.push(format!(
            "spill traffic {got:?} over {steps} steps, TierPlan predicts {:?}",
            (steps * f2h, steps * h2f)
        ));
    }
}

/// The untraced run: a set-up, steps for `seconds`, more set-ups for the
/// `setup_s` median, then the output checks.
pub fn run(shape: &TrainShape, seed: u64, seconds: f64) -> Outcome {
    let batches = train_batches(&shape.cfg, seed);
    let (mut s, first_setup) = setup(shape, &batches, Telemetry::disabled(), None);
    let traffic0 = s.trainer.spill_traffic();
    let (steps_ms, elapsed) = s.run_for(&batches, seconds);
    // Read before any other trainer exists, so the peak is this one's.
    let rss = context::peak_rss_bytes();
    let device_peak = s.trainer.device().peak();
    s.trainer.flush();
    let mut setups = vec![first_setup];
    while setups.len() < SETUPS {
        setups.push(setup(shape, &batches, Telemetry::disabled(), None).1);
    }

    let mut out = Outcome::default();
    check_spill(shape, &s, traffic0, steps_ms.len() as u64, &mut out);
    check_against_resident(shape, &batches, &[&s], &mut out);

    let n = steps_ms.len();
    println!(
        "# steps: {n} in {elapsed:.3} s; step ms p50 {:.3} p90 {:.3}; set-ups (s) {setups:?}",
        percentile(&steps_ms, 50.0),
        percentile(&steps_ms, 90.0)
    );
    if let Some((q1, q2, q3)) = quartiles(&steps_ms) {
        println!("# step ms quartiles {q1:.3} / {q2:.3} / {q3:.3}");
    }
    out.set("setup_s", median(&setups));
    out.set(
        "tokens_per_s",
        (n as u64 * shape.tokens_per_step()) as f64 / elapsed,
    );
    out.set("step_ms_p50", percentile(&steps_ms, 50.0));
    out.set("step_ms_p90", percentile(&steps_ms, 90.0));
    out.set("device_peak_bytes", device_peak as f64);
    out.set("host_peak_rss_bytes", rss as f64);
    out.set("success_rate", out.success_rate());
    out
}

/// Cumulative counters read before and after the traced steps.
struct Counters {
    gemm_flops: u64,
    gemm_nanos: u64,
    gemm_calls: u64,
    op_nanos: u64,
    h2d: u64,
    d2h: u64,
    f2h: u64,
    h2f: u64,
    optim_busy_ns: u64,
    fill_wait_ns: u64,
}

impl Counters {
    fn read(t: &HostOffloadTrainer, tel: &Telemetry) -> Self {
        let gemm = matmul::stats::snapshot();
        Counters {
            gemm_flops: gemm.iter().map(|g| g.flops).sum(),
            gemm_nanos: gemm.iter().map(|g| g.nanos).sum(),
            gemm_calls: gemm.iter().map(|g| g.calls).sum(),
            op_nanos: ops::stats::snapshot().iter().map(|o| o.nanos).sum(),
            h2d: t.device().h2d_bytes(),
            d2h: t.device().d2h_bytes(),
            f2h: tel.counter("spill.f2h_bytes").get(),
            h2f: tel.counter("spill.h2f_bytes").get(),
            optim_busy_ns: tel.counter("optim.busy_ns").get(),
            fill_wait_ns: t.fill_wait_nanos(),
        }
    }

    fn since(&self, b: &Counters) -> Counters {
        Counters {
            gemm_flops: self.gemm_flops - b.gemm_flops,
            gemm_nanos: self.gemm_nanos - b.gemm_nanos,
            gemm_calls: self.gemm_calls - b.gemm_calls,
            op_nanos: self.op_nanos - b.op_nanos,
            h2d: self.h2d - b.h2d,
            d2h: self.d2h - b.d2h,
            f2h: self.f2h - b.f2h,
            h2f: self.h2f - b.h2f,
            optim_busy_ns: self.optim_busy_ns - b.optim_busy_ns,
            fill_wait_ns: self.fill_wait_ns - b.fill_wait_ns,
        }
    }
}

/// `calibrate_host` totals over the traced steps only (the warm-up's
/// totals subtracted, as the calibration tests do).
fn calibration_between(
    skip: &HostCalibration,
    total: &HostCalibration,
    steps: u64,
    wall_ns: u64,
) -> HostCalibration {
    HostCalibration {
        steps,
        wall_ns,
        compute_ns: total.compute_ns - skip.compute_ns,
        h2d_bytes: total.h2d_bytes - skip.h2d_bytes,
        h2d_busy_ns: total.h2d_busy_ns - skip.h2d_busy_ns,
        d2h_bytes: total.d2h_bytes - skip.d2h_bytes,
        d2h_busy_ns: total.d2h_busy_ns - skip.d2h_busy_ns,
        overlap_ns: total.overlap_ns.saturating_sub(skip.overlap_ns),
        spill_read_bytes: total.spill_read_bytes - skip.spill_read_bytes,
        spill_read_busy_ns: total.spill_read_busy_ns - skip.spill_read_busy_ns,
        spill_write_bytes: total.spill_write_bytes - skip.spill_write_bytes,
        spill_write_busy_ns: total.spill_write_busy_ns - skip.spill_write_busy_ns,
    }
}

/// One traced step: its bracket on the telemetry clock and its hooks.
struct TracedStep {
    start: u64,
    end: u64,
    events: Vec<HookEvent>,
}

/// Sums each step's `fp L{i}` / `bp L{i}` compute spans and splits it.
fn split_steps(tel: &Telemetry, steps: &[TracedStep], layers: usize) -> (StepSplit, usize) {
    let mut fp = vec![vec![0u64; layers]; steps.len()];
    let mut bp = vec![vec![0u64; layers]; steps.len()];
    for span in tel.spans().iter().filter(|s| s.track == "compute") {
        let k = steps.partition_point(|s| s.start <= span.start_ns);
        if k == 0 || span.end_ns > steps[k - 1].end {
            continue; // outside the traced steps (warm-up)
        }
        let (dst, layer) = if let Some(l) = span.name.strip_prefix("fp L") {
            (&mut fp, l)
        } else if let Some(l) = span.name.strip_prefix("bp L") {
            (&mut bp, l)
        } else {
            continue;
        };
        if let Ok(i) = layer.parse::<usize>() {
            if i < layers {
                dst[k - 1][i] += span.end_ns - span.start_ns;
            }
        }
    }
    let mut total = StepSplit::default();
    let mut split = 0;
    for (k, s) in steps.iter().enumerate() {
        if let Some(one) = split_step(layers, s.start, s.end, &s.events, &fp[k], &bp[k]) {
            total.accumulate(&one);
            split += 1;
        }
    }
    (total, split)
}

/// The traced run: a third of the time untraced, two thirds with
/// telemetry and per-layer hooks, then direct layer probes and the output
/// checks. Prints the per-layer report and returns the per-layer metrics.
pub fn run_traced(shape: &TrainShape, seed: u64, seconds: f64) -> Outcome {
    let batches = train_batches(&shape.cfg, seed);
    let nb = shape.cfg.layers;
    let tokens = shape.tokens_per_step() as f64;

    let (mut plain, _) = setup(shape, &batches, Telemetry::disabled(), None);
    let (plain_ms, plain_elapsed) = plain.run_for(&batches, seconds / 3.0);
    plain.trainer.flush();
    let plain_step_ms = plain_elapsed * 1e3 / plain_ms.len() as f64;

    let tel = Telemetry::enabled();
    let log = HookLog::default();
    let (mut traced, _) = setup(shape, &batches, tel.clone(), Some(&log));
    log.take(); // warm-up firings
    let before = Counters::read(&traced.trainer, &tel);
    let skip = calibrate_host(&tel, traced.trainer.device(), WARMUP_STEPS as u64, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 2.0 / 3.0);
    let mut steps = Vec::new();
    loop {
        let start = tel.now_nanos();
        traced.step(&batches);
        let end = tel.now_nanos();
        steps.push(TracedStep {
            start,
            end,
            events: log.take(),
        });
        if Instant::now() >= deadline {
            break;
        }
    }
    let wall_ns: u64 = steps.iter().map(|s| s.end - s.start).sum();
    traced.trainer.flush();
    let n = steps.len() as f64;
    let d = Counters::read(&traced.trainer, &tel).since(&before);
    let total_cal = calibrate_host(
        &tel,
        traced.trainer.device(),
        (WARMUP_STEPS + steps.len()) as u64,
        0,
    );
    let cal = calibration_between(&skip, &total_cal, steps.len() as u64, wall_ns);
    let (split, split_n) = split_steps(&tel, &steps, nb);
    let traced_step_ms = wall_ns as f64 / 1e6 / n;

    let (fp_probe, bp_probe) = probes::block_fp_bp(shape, &batches[0]);
    let adam_ms = probes::adam_step(shape.cfg.block_params() as usize);
    let nvme = if shape.ram_layers.is_some() {
        probes::nvme_mb_s(shape.cfg.block_params() as usize)
            .map_err(|e| println!("# nvme probe failed: {e}"))
            .unwrap_or((0.0, 0.0))
    } else {
        (0.0, 0.0)
    };

    let mut out = Outcome::default();
    check_against_resident(shape, &batches, &[&plain, &traced], &mut out);

    let per_step = |ns: f64| ns / 1e6 / split_n.max(1) as f64;
    let ms_n = |ns: u64| ns as f64 / 1e6 / n;
    out.set("tensor.gemm_ms_per_step", ms_n(d.gemm_nanos));
    out.set(
        "tensor.gemm_gflops",
        d.gemm_flops as f64 / d.gemm_nanos.max(1) as f64,
    );
    out.set("tensor.op_ms_per_step", ms_n(d.op_nanos));
    out.set(
        "tensor.gemm_calls_per_token",
        d.gemm_calls as f64 / (n * tokens),
    );
    out.set("model.block_fp_ms", fp_probe);
    out.set("model.block_bp_ms", bp_probe);
    out.set("offloaded.fp_ms_per_step", per_step(split.fp));
    out.set("offloaded.bp_ms_per_step", per_step(split.bp));
    out.set("offloaded.h2d_wait_ms_per_step", per_step(split.wait));
    out.set("offloaded.head_ms_per_step", per_step(split.head));
    out.set("offloaded.tail_ms_per_step", per_step(split.tail));
    let residual_frac = split.residual() / split.step.max(1.0);
    out.set("offloaded.residual_frac", residual_frac);
    out.set("device.h2d_bytes_per_step", d.h2d as f64 / n);
    out.set("device.d2h_bytes_per_step", d.d2h as f64 / n);
    let update_p50 = tel.histogram("optim.update_ns").percentile(50.0);
    out.set("optim.update_ms_p50", update_p50 as f64 / 1e6);
    out.set("optim.busy_ms_per_step", ms_n(d.optim_busy_ns));
    out.set("adam.step_ms_per_layer", adam_ms);
    out.set("spill.fill_wait_ms_per_step", ms_n(d.fill_wait_ns));
    out.set("spill.f2h_bytes_per_step", d.f2h as f64 / n);
    out.set("spill.h2f_bytes_per_step", d.h2f as f64 / n);
    let queue_p50 = tel.histogram("spill.queue_wait_ns").percentile(50.0);
    out.set("spill.queue_wait_ms_p50", queue_p50 as f64 / 1e6);
    out.set("nvme.read_mb_s", nvme.0);
    out.set("nvme.write_mb_s", nvme.1);
    let compute_ns = nb as f64 * (fp_probe + bp_probe) * 1e6;
    let predicted = cal.predict_step_ns_for(d.h2d as f64 / n, d.d2h as f64 / n, compute_ns) / 1e6;
    out.set("calib.predicted_step_ms", predicted);
    out.set("calib.measured_step_ms", plain_step_ms);
    out.set("trace.overhead_frac", traced_step_ms / plain_step_ms - 1.0);

    // ---- the human-readable report ----
    println!(
        "# traced steps: {} ({} split); untraced steps: {}",
        steps.len(),
        split_n,
        plain_ms.len()
    );
    println!("# layer   fp_ms   bp_ms  wait_ms   (per step)");
    for (i, (f, b, w)) in split.layers.iter().enumerate() {
        println!(
            "# L{i:<4} {:>7.3} {:>7.3} {:>8.3}",
            per_step(*f),
            per_step(*b),
            per_step(*w)
        );
    }
    let status = |ok: bool| if ok { "holds" } else { "DOES NOT HOLD" };
    println!(
        "# closure: step {:.3} ms = fp {:.3} + bp {:.3} + wait {:.3} + head {:.3} + tail {:.3} + residual {:.3} ({:.2}% <= 5%: {})",
        per_step(split.step),
        per_step(split.fp),
        per_step(split.bp),
        per_step(split.wait),
        per_step(split.head),
        per_step(split.tail),
        per_step(split.residual()),
        residual_frac * 100.0,
        status(residual_frac.abs() <= 0.05)
    );
    println!(
        "# calibrate_host predicted step {predicted:.3} ms (probe compute {:.3} ms + exposed copy + residual) vs measured untraced {plain_step_ms:.3} ms",
        compute_ns / 1e6
    );
    println!(
        "# tracing overhead: untraced {:.1} tok/s, traced {:.1} tok/s ({:+.2}% step time)",
        tokens * 1e3 / plain_step_ms,
        tokens * 1e3 / traced_step_ms,
        (traced_step_ms / plain_step_ms - 1.0) * 100.0
    );
    let compute_share = (split.fp + split.bp) / split.step.max(1.0);
    let param_work = ms_n(d.fill_wait_ns) + ms_n(d.optim_busy_ns) + per_step(split.wait);
    println!(
        "# split: FP+BP compute {:.1}% of the step; fill wait + optimizer busy + exposed wait {:.3} ms vs GEMM {:.3} ms per step",
        compute_share * 100.0,
        param_work,
        ms_n(d.gemm_nanos)
    );
    if shape.ram_layers.is_some() {
        println!(
            "# split check (parameter work > GEMM): {}",
            status(param_work > ms_n(d.gemm_nanos))
        );
    } else {
        println!(
            "# split check (FP+BP > 80% of step): {}",
            status(compute_share > 0.8)
        );
    }
    context::write_chrome_trace(&tel, shape.name, seed);
    out
}
