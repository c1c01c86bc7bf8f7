//! The §V validation experiment: model prediction vs simulator
//! measurement for the 12-workload suite.
//!
//! Mirrors Fig. 11: for each application the model predicts the MS and CS
//! throughput at the flow-balance intersection; the simulator measures
//! them; PCT/RCT columns and the paper's accuracy metric
//! (`mean(1 − |PCT − RCT|/RCT)`) summarise the comparison. Following the
//! paper's Kepler setup, global loads do not use L1 (f(k) is "mostly
//! linear"), so the basic model faces the cache-less simulator.

use crate::arch::sim_config_for;
use crate::fitting::{assemble_model, workload_precision};
use serde::{Deserialize, Serialize};
use xmodel_core::presets::GpuSpec;
use xmodel_sim::{simulate, SimWorkload};
use xmodel_workloads::Workload;

/// Validation record for one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppValidation {
    /// Application name.
    pub name: String,
    /// Predicted CS throughput (warp-ops/cycle) — the paper's PCT.
    pub predicted_cs: f64,
    /// Measured CS throughput — the paper's RCT.
    pub measured_cs: f64,
    /// Predicted MS throughput (requests/cycle).
    pub predicted_ms: f64,
    /// Measured MS throughput.
    pub measured_ms: f64,
    /// Predicted spatial state `k` (warps in MS).
    pub predicted_k: f64,
    /// Measured mean `k`.
    pub measured_k: f64,
    /// Occupancy `n` used for both.
    pub n: f64,
    /// Degradation provenance when the operating point came from a rung
    /// below the exact solver (`"grid-scan"` / `"baseline-estimate"`);
    /// `None` for an exact solve. See [`xmodel_core::degrade`].
    pub degraded: Option<String>,
}

impl AppValidation {
    /// Per-app accuracy on CS throughput: `1 − |PCT − RCT|/RCT`,
    /// clamped at 0.
    pub fn accuracy(&self) -> f64 {
        if self.measured_cs <= 0.0 {
            return 0.0;
        }
        (1.0 - (self.predicted_cs - self.measured_cs).abs() / self.measured_cs).max(0.0)
    }
}

/// Full suite validation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Per-application records, in suite order.
    pub apps: Vec<AppValidation>,
}

impl ValidationReport {
    /// Mean CS-throughput prediction accuracy (the paper reports 84.1%).
    pub fn mean_accuracy(&self) -> f64 {
        if self.apps.is_empty() {
            return 0.0;
        }
        self.apps.iter().map(AppValidation::accuracy).sum::<f64>() / self.apps.len() as f64
    }

    /// The worst-predicted application.
    pub fn worst(&self) -> Option<&AppValidation> {
        self.apps
            .iter()
            .min_by(|a, b| a.accuracy().total_cmp(&b.accuracy()))
    }
}

/// Validate one workload on a GPU.
///
/// The operating point is resolved through the degradation ladder
/// ([`xmodel_core::degrade`]), so a workload whose curves defeat exact
/// bracketing still validates — with [`AppValidation::degraded`] recording
/// the provenance — instead of aborting the suite.
pub fn validate_one(spec: &GpuSpec, workload: &Workload) -> xmodel_core::Result<AppValidation> {
    let model = assemble_model(spec, workload, 0);
    let resolved = model.resolve_operating_point()?;
    let op = resolved.point;

    let precision = workload_precision(workload);
    let mut cfg = sim_config_for(spec, precision);
    cfg.request_bytes = 128.0 * workload.coalesce;
    let wl = SimWorkload {
        trace: workload.trace,
        ops_per_request: model.workload.z,
        ilp: model.workload.e,
        warps: model.workload.n as u32,
    };
    let stats = simulate(&cfg, &wl, 15_000, 60_000);

    Ok(AppValidation {
        name: workload.name.to_string(),
        predicted_cs: op.cs_throughput,
        measured_cs: stats.cs_throughput(),
        predicted_ms: op.ms_throughput,
        measured_ms: stats.ms_throughput(),
        predicted_k: op.k,
        measured_k: stats.avg_k(),
        n: model.workload.n,
        degraded: resolved
            .degradation
            .is_degraded()
            .then(|| resolved.degradation.as_str().to_string()),
    })
}

/// Run the full §V validation suite on a GPU (the paper uses the K40).
/// Applications are validated on `std::thread::scope` worker threads
/// (one simulator instance each), preserving suite order in the report.
/// Each handle is joined inside the scope, so a panicked worker becomes
/// that app's typed error instead of re-panicking the whole suite.
pub fn validate_suite(spec: &GpuSpec) -> xmodel_core::Result<ValidationReport> {
    let suite = Workload::suite();
    let slots: Vec<xmodel_core::Result<AppValidation>> = std::thread::scope(|scope| {
        let handles: Vec<_> = suite
            .iter()
            .map(|w| scope.spawn(move || validate_one(spec, w)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or(Err(xmodel_core::ModelError::NoConvergence {
                        routine: "validate",
                    }))
            })
            .collect()
    });
    let apps = slots.into_iter().collect::<xmodel_core::Result<Vec<_>>>()?;
    Ok(ValidationReport { apps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmodel_workloads::WorkloadId;

    #[test]
    fn single_app_prediction_is_in_the_ballpark() {
        let spec = GpuSpec::kepler_k40();
        let v = validate_one(&spec, &Workload::get(WorkloadId::Nn)).unwrap();
        assert!(v.measured_cs > 0.0 && v.predicted_cs > 0.0);
        assert!(v.accuracy() > 0.6, "accuracy = {} ({v:?})", v.accuracy());
        assert_eq!(v.degraded, None, "healthy workload must solve exactly");
    }

    #[test]
    fn suite_accuracy_matches_paper_band() {
        // The paper reports 84.1% mean accuracy with three extracted
        // parameters. Our simulator has extra second-order effects the
        // model ignores, so accept ≥ 70% while recording the real value in
        // EXPERIMENTS.md.
        let spec = GpuSpec::kepler_k40();
        let rep = validate_suite(&spec).unwrap();
        assert_eq!(rep.apps.len(), 12);
        let acc = rep.mean_accuracy();
        assert!(
            acc > 0.70,
            "mean accuracy = {acc:.3}; worst = {:?}",
            rep.worst()
        );
    }

    #[test]
    fn spatial_state_prediction_correlates() {
        // The model's core claim: it predicts the thread distribution.
        // Memory-bound gesummv parks nearly all warps in MS; the
        // compute-heavy leukocyte keeps a markedly larger CS share — in
        // both the model and the simulator (GPU-scale latencies keep k
        // high in absolute terms even for compute-bound kernels).
        let spec = GpuSpec::kepler_k40();
        let v = validate_one(&spec, &Workload::get(WorkloadId::Gesummv)).unwrap();
        assert!(v.predicted_k > 0.8 * v.n, "model says MS-heavy");
        assert!(v.measured_k > 0.8 * v.n, "sim agrees");
        let c = validate_one(&spec, &Workload::get(WorkloadId::Leukocyte)).unwrap();
        assert!(
            c.predicted_k / c.n < v.predicted_k / v.n - 0.1,
            "model: leukocyte less MS-heavy ({} vs {})",
            c.predicted_k / c.n,
            v.predicted_k / v.n
        );
        assert!(
            c.measured_k / c.n < v.measured_k / v.n - 0.1,
            "sim: leukocyte less MS-heavy ({} vs {})",
            c.measured_k / c.n,
            v.measured_k / v.n
        );
    }
}
