//! Metric catalogue and the one-line JSON result.
//!
//! Every workload prints every metric of the list its mode asks for: the
//! end-to-end list untraced, the per-layer list traced. A per-layer metric a
//! workload does not exercise (spill traffic while nothing spills, serving
//! rounds while training) reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("tokens_per_s", "tok/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("device_peak_bytes", "B"),
    ("host_peak_rss_bytes", "B"),
    ("success_rate", "frac"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("tensor.gemm_ms_per_step", "ms"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.op_ms_per_step", "ms"),
    ("tensor.gemm_calls_per_token", "calls/tok"),
    ("model.block_fp_ms", "ms"),
    ("model.block_bp_ms", "ms"),
    ("model.decode_round_ms", "ms"),
    ("offloaded.fp_ms_per_step", "ms"),
    ("offloaded.bp_ms_per_step", "ms"),
    ("offloaded.h2d_wait_ms_per_step", "ms"),
    ("offloaded.head_ms_per_step", "ms"),
    ("offloaded.tail_ms_per_step", "ms"),
    ("offloaded.residual_frac", "frac"),
    ("device.h2d_bytes_per_step", "B"),
    ("device.d2h_bytes_per_step", "B"),
    ("device.h2d_bytes_per_round", "B"),
    ("optim.update_ms_p50", "ms"),
    ("optim.busy_ms_per_step", "ms"),
    ("adam.step_ms_per_layer", "ms"),
    ("spill.fill_wait_ms_per_step", "ms"),
    ("spill.f2h_bytes_per_step", "B"),
    ("spill.h2f_bytes_per_step", "B"),
    ("spill.queue_wait_ms_p50", "ms"),
    ("nvme.read_mb_s", "MB/s"),
    ("nvme.write_mb_s", "MB/s"),
    ("serve.round_ms_p50", "ms"),
    ("serve.round_ms_p90", "ms"),
    ("serve.tokens_per_round", "tok"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.prefill_share", "frac"),
    ("serve.ttft_ms_p50", "ms"),
    ("serve.ttft_ms_p90", "ms"),
    ("calib.predicted_step_ms", "ms"),
    ("calib.measured_step_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked units of work: training steps, or generation requests.
    pub attempted: u64,
    /// Units whose output check failed.
    pub failed: u64,
    /// Whole-run checks that failed (e.g. a spill-traffic total), named.
    pub broken: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty() && self.attempted > 0
    }

    /// Share of attempted units that passed their check.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
    }

    /// The result line: every metric of `catalogue` in order, missing ones
    /// as 0, non-finite values as 0.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_catalogue_metric_once() {
        let mut o = Outcome {
            attempted: 4,
            failed: 1,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25);
        o.set("tokens_per_s", f64::NAN);
        let line = o.json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"tokens_per_s\": {\"value\": 0, \"unit\": \"tok/s\"}"));
        for (name, _) in END_TO_END {
            assert_eq!(line.matches(&format!("\"{name}\"")).count(), 1);
        }
        assert_eq!(o.success_rate(), 0.75);
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
