//! The output check: the scheduler's record stream against the
//! reference path, job by job and field by field.

use crate::reference::JobOutcome;
use slimfly::plan::Job;
use slimfly::Record;

/// FNV-1a over the bytes, for the printed record-stream digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// The first field where `got` differs from `want`, if any. Flow rows'
/// `latency` and `p99` come from an estimate the library keeps
/// private, so for them only NaN-ness (saturation) is compared.
pub fn record_diff(got: &Record, want: &Record) -> Option<&'static str> {
    let flow = want.backend == "flow";
    let latency_same = |a: f64, b: f64| {
        if flow {
            a.is_nan() == b.is_nan()
        } else {
            same_f64(a, b)
        }
    };
    let checks = [
        ("topology", got.topology == want.topology),
        ("spec", got.spec == want.spec),
        ("routing", got.routing == want.routing),
        ("traffic", got.traffic == want.traffic),
        ("backend", got.backend == want.backend),
        ("packet_size", got.packet_size == want.packet_size),
        ("offered", same_f64(got.offered, want.offered)),
        ("latency", latency_same(got.latency, want.latency)),
        ("p99", latency_same(got.p99, want.p99)),
        ("accepted", same_f64(got.accepted, want.accepted)),
        ("avg_hops", same_f64(got.avg_hops, want.avg_hops)),
        ("saturated", got.saturated == want.saturated),
        (
            "max_link_util",
            same_f64(got.max_link_util, want.max_link_util),
        ),
    ];
    checks.iter().find(|(_, ok)| !ok).map(|(name, _)| *name)
}

/// Problems with one job's scheduler outcome: not one record per load,
/// or a disagreement with the reference outcome (when given).
pub fn job_problems(job: &Job, got: &JobOutcome, want: Option<&JobOutcome>) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(recs) = got {
        if recs.len() != job.loads.len() {
            out.push(format!(
                "job {}: {} records for {} loads",
                job.id,
                recs.len(),
                job.loads.len()
            ));
        }
    }
    match (got, want) {
        (_, None) | (Err(_), Some(Err(_))) => {}
        (Ok(_), Some(Err(e))) => out.push(format!("job {}: reference failed: {e}", job.id)),
        (Err(e), Some(Ok(_))) => out.push(format!("job {}: scheduler failed: {e}", job.id)),
        (Ok(g), Some(Ok(w))) => {
            if g.len() != w.len() {
                out.push(format!(
                    "job {}: {} records vs {} in the reference",
                    job.id,
                    g.len(),
                    w.len()
                ));
            }
            for (i, (a, b)) in g.iter().zip(w).enumerate() {
                if let Some(field) = record_diff(a, b) {
                    out.push(format!(
                        "job {} record {i}: field {field} differs from the reference",
                        job.id
                    ));
                }
            }
        }
    }
    out
}
