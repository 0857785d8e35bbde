//! Order statistics and the per-step time split.
//!
//! Everything here is plain arithmetic over measured numbers, so it is unit
//! tested directly (`cargo test` in this package).

use stronghold_core::hooks::HookPoint;

/// Linear-interpolation percentile (`p` in `[0, 100]`) of an unsorted
/// sample; 0 for an empty sample. Matches NumPy's default method.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of a sample (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Quartiles `(q1, q2, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the benchmark's spread
/// check uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let m = ld + 1;
    // Python's integer rescaling, including its linear extrapolation when
    // the clamped index leaves `delta` outside 0..4.
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// One hook firing seen by the benchmark, stamped on the telemetry clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HookEvent {
    pub layer: usize,
    pub point: HookPoint,
    pub at_ns: u64,
}

/// Where one training step's wall time went, from hook intervals and
/// compute spans. All fields are nanoseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepSplit {
    pub step: f64,
    /// Block forward compute (sum over layers of the `fp L{i}` spans).
    pub fp: f64,
    /// Block recompute + backward (sum of the `bp L{i}` spans).
    pub bp: f64,
    /// Exposed wait: the part of each FP hook interval not covered by the
    /// layer's compute, plus each BP gap `PostBackward(i+1) → PreBackward(i)`
    /// (waiting for a re-fetched layer or a full offload queue).
    pub wait: f64,
    /// Embedding (step start → `PreForward(0)`) plus loss head
    /// (`PostForward(L-1)` → `PreBackward(L-1)`).
    pub head: f64,
    /// `PostBackward(0)` → return: embedding backward, pipeline drain,
    /// resident-group Adam and step bookkeeping.
    pub tail: f64,
    /// Per layer: `(fp compute, bp compute, exposed wait)`.
    pub layers: Vec<(f64, f64, f64)>,
}

impl StepSplit {
    /// Step time the named parts do not cover.
    pub fn residual(&self) -> f64 {
        self.step - (self.fp + self.bp + self.wait + self.head + self.tail)
    }

    /// Adds another step's split into this running total.
    pub fn accumulate(&mut self, o: &StepSplit) {
        self.step += o.step;
        self.fp += o.fp;
        self.bp += o.bp;
        self.wait += o.wait;
        self.head += o.head;
        self.tail += o.tail;
        if self.layers.len() < o.layers.len() {
            self.layers.resize(o.layers.len(), (0.0, 0.0, 0.0));
        }
        for (a, b) in self.layers.iter_mut().zip(&o.layers) {
            a.0 += b.0;
            a.1 += b.1;
            a.2 += b.2;
        }
    }
}

/// Splits one step of `layers` blocks. `start`/`end` bracket the
/// `train_step` call, `events` are that step's hook firings, and
/// `fp_compute[i]`/`bp_compute[i]` the layer's compute span lengths. Returns
/// `None` if a hook the split needs did not fire.
pub fn split_step(
    layers: usize,
    start: u64,
    end: u64,
    events: &[HookEvent],
    fp_compute: &[u64],
    bp_compute: &[u64],
) -> Option<StepSplit> {
    let at = |layer: usize, point: HookPoint| {
        events
            .iter()
            .find(|e| e.layer == layer && e.point == point)
            .map(|e| e.at_ns as f64)
    };
    let nb = layers;
    let mut s = StepSplit {
        step: end.saturating_sub(start) as f64,
        layers: vec![(0.0, 0.0, 0.0); nb],
        ..StepSplit::default()
    };
    for i in 0..nb {
        let (fpc, bpc) = (fp_compute[i] as f64, bp_compute[i] as f64);
        let fp_wait =
            (at(i, HookPoint::PostForward)? - at(i, HookPoint::PreForward)? - fpc).max(0.0);
        let bp_gap = if i + 1 < nb {
            (at(i, HookPoint::PreBackward)? - at(i + 1, HookPoint::PostBackward)?).max(0.0)
        } else {
            0.0
        };
        s.fp += fpc;
        s.bp += bpc;
        s.wait += fp_wait + bp_gap;
        s.layers[i] = (fpc, bpc, fp_wait + bp_gap);
    }
    s.head = (at(0, HookPoint::PreForward)? - start as f64)
        + (at(nb - 1, HookPoint::PreBackward)? - at(nb - 1, HookPoint::PostForward)?);
    s.tail = end as f64 - at(0, HookPoint::PostBackward)?;
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    fn ev(layer: usize, point: HookPoint, at_ns: u64) -> HookEvent {
        HookEvent {
            layer,
            point,
            at_ns,
        }
    }

    /// A two-layer step with every interval chosen by hand:
    /// embed 5, FP L0 [5,25] compute 15, FP L1 [27,47] compute 20, head
    /// [47,57], BP L1 [57,77] compute 20, gap 4, BP L0 [81,101] compute 18,
    /// tail [101,110].
    #[test]
    fn split_accounts_every_nanosecond() {
        use HookPoint::*;
        let events = [
            ev(0, PreForward, 5),
            ev(0, PostForward, 25),
            ev(1, PreForward, 27),
            ev(1, PostForward, 47),
            ev(1, PreBackward, 57),
            ev(1, PostBackward, 77),
            ev(0, PreBackward, 81),
            ev(0, PostBackward, 101),
        ];
        let s = split_step(2, 0, 110, &events, &[15, 20], &[18, 20]).unwrap();
        assert_eq!(s.step, 110.0);
        assert_eq!(s.fp, 35.0);
        assert_eq!(s.bp, 38.0);
        // FP waits 5 + 0, BP gap before layer 0: 4.
        assert_eq!(s.wait, 9.0);
        assert_eq!(s.head, 5.0 + 10.0);
        assert_eq!(s.tail, 9.0);
        assert_eq!(s.layers, vec![(15.0, 18.0, 9.0), (20.0, 20.0, 0.0)]);
        // Unnamed: the FP gap [25,27] and BP L0's 2 ns outside its span.
        assert_eq!(s.residual(), 4.0);

        let mut total = StepSplit::default();
        total.accumulate(&s);
        total.accumulate(&s);
        assert_eq!(total.step, 220.0);
        assert_eq!(total.residual(), 8.0);
        assert_eq!(total.layers[0], (30.0, 36.0, 18.0));
    }

    #[test]
    fn split_needs_every_hook() {
        use HookPoint::*;
        let events = [ev(0, PreForward, 1), ev(0, PostForward, 2)];
        assert!(split_step(1, 0, 3, &events, &[1], &[1]).is_none());
    }
}
