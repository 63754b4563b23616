//! The metric catalog and the result line.

use crate::checks::Checks;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("time_to_solution_s", "s"),
    ("updates_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run; a layer
/// the workload never runs reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("gravity.eval_ms", "ms"),
    ("gravity.ns_per_interaction", "ns"),
    ("gravity.interactions_per_update", "count"),
    ("fdps.tree_build_ms", "ms"),
    ("fdps.tree_refresh_ms", "ms"),
    ("fdps.walk_index_ms", "ms"),
    ("fdps.tree_reuse_ratio", "1"),
    ("sph.density_ms", "ms"),
    ("sph.force_ms", "ms"),
    ("sph.density_ns_per_interaction", "ns"),
    ("sph.force_ns_per_interaction", "ns"),
    ("sph.h_walks_per_iteration", "1"),
    ("sph.tree_reuse_ratio", "1"),
    ("surrogate.predict_ms", "ms"),
    ("surrogate.voxelize_ms", "ms"),
    ("surrogate.encode_ms", "ms"),
    ("unet.forward_ms", "ms"),
    ("surrogate.decode_ms", "ms"),
    ("surrogate.gibbs_ms", "ms"),
    ("surrogate.region_gas_mean", "count"),
    ("surrogate.regions_dispatched", "count"),
    ("surrogate.regions_applied", "count"),
    ("scheduler.substeps_per_base_step", "count"),
    ("scheduler.active_fraction", "1"),
    ("snapshot.encode_ms", "ms"),
    ("ckpt.commit_ms", "ms"),
    ("ckpt.bytes_per_commit", "bytes"),
    ("dist.force_share", "1"),
    ("dist.density_share", "1"),
    ("dist.tree_share", "1"),
    ("dist.comm_share", "1"),
    ("mpisim.bytes_per_step", "bytes"),
    ("dist.rank_imbalance", "1"),
    ("core.untimed_share", "1"),
    ("astro.cooling_ms", "ms"),
    ("setup.ic_s", "s"),
    ("setup.weights_decode_s", "s"),
    ("trace.overhead_frac", "1"),
];

/// Render a number as JSON: shortest round-trip digits, `null` when not
/// finite (a non-finite metric also fails the run, see [`result_line`]).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`, with
/// `metrics` holding exactly the catalog's names in catalog order.
/// `correct` is false when any check failed or any value is not finite.
pub fn result_line(
    checks: &Checks,
    catalog: &[(&str, &str)],
    value: impl Fn(&str) -> f64,
) -> String {
    let values: Vec<f64> = catalog.iter().map(|(n, _)| value(n)).collect();
    let correct = checks.failed == 0 && values.iter().all(|v| v.is_finite());
    let metrics: Vec<String> = catalog
        .iter()
        .zip(&values)
        .map(|((name, unit), v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(name),
                num(*v),
                string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        if checks.attempted == 0 {
            1
        } else {
            checks.failed
        },
        metrics.join(", ")
    )
}

/// A flat JSON object of named integers.
pub fn counts_object(counts: &[(&str, u64)]) -> String {
    let body: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON array of strings.
pub fn strings_array(items: &[String]) -> String {
    let body: Vec<String> = items.iter().map(|s| string(s)).collect();
    format!("[{}]", body.join(", "))
}
