//! The offline profiler (workflow step ③).
//!
//! For every compiled runtime, Arlo's schedulers need two quantities (§3.3):
//!
//! * `M_i` — the maximum number of requests one instance can complete within
//!   the SLO, and
//! * `L_i` — the mapping from the number of outstanding requests ("batch
//!   size" in the paper's formulation) to the mean completion latency.
//!
//! With batch-1 sequential execution, `b` requests queued at an idle
//! instance complete at `e, 2e, …, b·e` (execution cost `e`), so the mean
//! completion latency is `e·(b+1)/2` — this is exactly what profiling a
//! burst against a real engine measures. The profiler tabulates that curve
//! so the ILP evaluates it by lookup + interpolation, never by re-deriving
//! the formula (keeping the solver agnostic to the execution model, as it
//! would be with measured profiles).

use crate::latency::{CompileMode, CompiledRuntime};
use serde::{Deserialize, Serialize};

/// Tabulated `outstanding requests → mean completion latency (ms)` curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchLatencyMap {
    /// `latencies_ms[b-1]` is the mean latency with `b` outstanding requests.
    latencies_ms: Vec<f64>,
}

impl BatchLatencyMap {
    /// Build from explicit measurements (index 0 ⇒ batch of 1).
    pub fn from_measurements(latencies_ms: Vec<f64>) -> Self {
        assert!(!latencies_ms.is_empty(), "need at least one measurement");
        assert!(
            latencies_ms.windows(2).all(|w| w[1] >= w[0]),
            "mean latency must be non-decreasing in load"
        );
        BatchLatencyMap { latencies_ms }
    }

    /// Largest tabulated batch size.
    pub fn max_batch(&self) -> usize {
        self.latencies_ms.len()
    }

    /// Mean completion latency (ms) with `b` outstanding requests.
    ///
    /// Fractional `b` (the ILP's `B_i = C_i / N_i` is rarely integral) is
    /// linearly interpolated; values beyond the tabulated range are linearly
    /// extrapolated from the last segment. `b = 0` returns 0.
    #[inline]
    pub fn mean_latency_ms(&self, b: f64) -> f64 {
        assert!(
            b >= 0.0 && b.is_finite(),
            "batch size must be finite and >= 0"
        );
        if b == 0.0 {
            return 0.0;
        }
        let n = self.latencies_ms.len();
        if b <= 1.0 {
            // Between "idle" (0 ⇒ 0) and one outstanding request.
            return self.latencies_ms[0] * b;
        }
        let idx = b as usize; // batch index, 1-based (truncation is floor: b > 1)
        let frac = b - idx as f64;
        if idx >= n {
            // Beyond the profiled range the instance is past its
            // within-SLO capacity: backlog compounds across SLO periods,
            // so the effective mean latency grows superlinearly. Use the
            // worse of the final-slope linear extension and a quadratic
            // scaling of the last measured point — the linear extension is
            // a single-burst truth, the quadratic term prices sustained
            // overload so the allocator never plans a runtime past its
            // capacity without strong cause.
            let last = self.latencies_ms[n - 1];
            let slope = if n >= 2 {
                self.latencies_ms[n - 1] - self.latencies_ms[n - 2]
            } else {
                self.latencies_ms[0]
            };
            let linear = last + slope * (b - n as f64);
            let quadratic = last * (b / n as f64).powi(2);
            return linear.max(quadratic);
        }
        let lo = self.latencies_ms[idx - 1];
        if frac == 0.0 {
            lo
        } else {
            let hi = self.latencies_ms[idx];
            lo + (hi - lo) * frac
        }
    }
}

/// The profile of one compiled runtime: everything the Runtime Scheduler's
/// ILP and the Request Scheduler's congestion heuristic consume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeProfile {
    /// The profiled runtime.
    pub runtime: CompiledRuntime,
    /// Per-request execution latency (ms) at the compiled length. For
    /// dynamic runtimes this is the worst case (model `max_length`).
    pub exec_ms: f64,
    /// `M_i`: maximum requests completable within the SLO by one instance.
    /// Zero means a single execution already violates the SLO.
    pub capacity_within_slo: u32,
    /// `L_i`: outstanding-requests → mean completion latency.
    pub batch_latency: BatchLatencyMap,
    /// The SLO (ms) the profile was taken against.
    pub slo_ms: f64,
}

impl RuntimeProfile {
    /// Profile one runtime against an SLO, tabulating the batch curve up to
    /// `M_i` (capped at `max_batch_hint` entries to bound table size).
    pub fn measure(runtime: CompiledRuntime, slo_ms: f64, max_batch_hint: usize) -> Self {
        assert!(slo_ms > 0.0, "SLO must be positive");
        assert!(max_batch_hint >= 1, "need at least one batch point");
        let exec_ms = runtime.exec_ms(runtime.max_length());
        let capacity = (slo_ms / exec_ms).floor() as u32;
        let table_len = (capacity as usize).clamp(1, max_batch_hint);
        let latencies = (1..=table_len)
            .map(|b| exec_ms * (b as f64 + 1.0) / 2.0)
            .collect();
        RuntimeProfile {
            runtime,
            exec_ms,
            capacity_within_slo: capacity,
            batch_latency: BatchLatencyMap::from_measurements(latencies),
            slo_ms,
        }
    }

    /// Longest request this runtime serves (`max_length`).
    pub fn max_length(&self) -> u32 {
        self.runtime.max_length()
    }

    /// Whether this runtime can serve requests of length `len`.
    pub fn can_serve(&self, len: u32) -> bool {
        self.runtime.can_serve(len)
    }

    /// `L_i(b)`: mean completion latency (ms) at instance load `b`.
    pub fn mean_latency_ms(&self, b: f64) -> f64 {
        self.batch_latency.mean_latency_ms(b)
    }
}

/// Profile a family of runtimes against a shared SLO (the offline stage of
/// Arlo's workflow). Returned profiles are sorted by ascending `max_length`,
/// the order every downstream component assumes.
pub fn profile_runtimes(
    runtimes: &[CompiledRuntime],
    slo_ms: f64,
    max_batch_hint: usize,
) -> Vec<RuntimeProfile> {
    let mut profiles: Vec<RuntimeProfile> = runtimes
        .iter()
        .cloned()
        .map(|rt| RuntimeProfile::measure(rt, slo_ms, max_batch_hint))
        .collect();
    profiles.sort_by_key(|p| p.max_length());
    assert!(
        profiles
            .windows(2)
            .all(|w| w[0].max_length() != w[1].max_length()),
        "duplicate max_length in runtime family"
    );
    profiles
}

/// True if the profile describes a static runtime (Arlo only allocates
/// static runtimes; dynamic profiles exist for the DT baseline).
pub fn is_static(profile: &RuntimeProfile) -> bool {
    matches!(profile.runtime.mode(), CompileMode::Static { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelSpec;

    fn bert_base_profile(len: u32) -> RuntimeProfile {
        RuntimeProfile::measure(
            CompiledRuntime::new_static(ModelSpec::bert_base(), len),
            150.0,
            64,
        )
    }

    #[test]
    fn capacity_matches_slo_division() {
        let p = bert_base_profile(512);
        // exec ≈ 4.86 ms, SLO 150 ms ⇒ M ≈ 30.
        assert!(
            (29..=31).contains(&p.capacity_within_slo),
            "M = {}",
            p.capacity_within_slo
        );
        let p64 = bert_base_profile(64);
        // exec ≈ 1.13 ms ⇒ M ≈ 132.
        assert!(
            (125..=140).contains(&p64.capacity_within_slo),
            "M = {}",
            p64.capacity_within_slo
        );
    }

    #[test]
    fn batch_latency_is_burst_mean() {
        let p = bert_base_profile(512);
        let e = p.exec_ms;
        assert!((p.mean_latency_ms(1.0) - e).abs() < 1e-9);
        assert!((p.mean_latency_ms(3.0) - 2.0 * e).abs() < 1e-9);
        assert_eq!(p.mean_latency_ms(0.0), 0.0);
    }

    #[test]
    fn batch_latency_interpolates_and_extrapolates() {
        let map = BatchLatencyMap::from_measurements(vec![2.0, 3.0, 4.0]);
        assert!((map.mean_latency_ms(1.5) - 2.5).abs() < 1e-12);
        assert!((map.mean_latency_ms(0.5) - 1.0).abs() < 1e-12);
        // Beyond the table: the quadratic overload term dominates the
        // final-slope linear extension (4·(5/3)² ≈ 11.1 > 6.0).
        assert!((map.mean_latency_ms(5.0) - 4.0 * (5.0f64 / 3.0).powi(2)).abs() < 1e-9);
        // Overload pricing is monotone and superlinear.
        assert!(map.mean_latency_ms(6.0) > 2.0 * map.mean_latency_ms(4.0));
        assert_eq!(map.max_batch(), 3);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn batch_map_rejects_decreasing() {
        BatchLatencyMap::from_measurements(vec![3.0, 2.0]);
    }

    #[test]
    fn profile_family_sorted_by_length() {
        let model = ModelSpec::bert_base();
        let rts: Vec<CompiledRuntime> = [512u32, 64, 256, 128]
            .iter()
            .map(|&l| CompiledRuntime::new_static(model.clone(), l))
            .collect();
        let profiles = profile_runtimes(&rts, 150.0, 32);
        let lens: Vec<u32> = profiles.iter().map(|p| p.max_length()).collect();
        assert_eq!(lens, vec![64, 128, 256, 512]);
        // Larger runtimes have lower capacity.
        assert!(profiles
            .windows(2)
            .all(|w| w[0].capacity_within_slo >= w[1].capacity_within_slo));
    }

    #[test]
    #[should_panic(expected = "duplicate max_length")]
    fn profile_family_rejects_duplicates() {
        let model = ModelSpec::bert_base();
        let rts = vec![
            CompiledRuntime::new_static(model.clone(), 64),
            CompiledRuntime::new_static(model, 64),
        ];
        profile_runtimes(&rts, 150.0, 32);
    }

    #[test]
    fn infeasible_slo_gives_zero_capacity() {
        let p = RuntimeProfile::measure(
            CompiledRuntime::new_static(ModelSpec::bert_large(), 512),
            10.0, // Bert-Large at 512 costs ≈ 16.8 ms > 10 ms SLO
            8,
        );
        assert_eq!(p.capacity_within_slo, 0);
    }

    #[test]
    fn dynamic_profile_uses_worst_case() {
        let p = RuntimeProfile::measure(
            CompiledRuntime::new_dynamic(ModelSpec::bert_base()),
            150.0,
            8,
        );
        assert!(!is_static(&p));
        let expected = ModelSpec::bert_base().dynamic_latency_ms(512);
        assert!((p.exec_ms - expected).abs() < 1e-9);
    }
}
