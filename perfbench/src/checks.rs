//! Output correctness checks.  Each returns a description of the first
//! mismatch; the tests below show every check rejecting a corrupted
//! output.

use pt_core::LayeredSchedule;
use serde::Value;

/// Tolerance of the ODE check: the largest allowed `|parallel −
/// sequential|` relative to `max(1, max |sequential|)`.  The SPMD programs
/// perform the sequential solver's floating-point operations in the same
/// order, so the difference is exactly 0 today; the tolerance only leaves
/// room for a reordered reduction.
pub const ODE_REL_TOL: f64 = 1e-12;

/// The fields of a `ptsched serve` reply that must match a cold compute.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyFields {
    pub signature: String,
    pub layers: u64,
    pub makespan_ms_per_step: f64,
}

/// Cache outcome reported in a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTag {
    Hit,
    Miss,
    Followed,
}

fn field<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

/// Parse one reply line; an error reply or a malformed line is an error.
pub fn parse_reply(line: &str) -> Result<(ReplyFields, CacheTag), String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad reply {line:?}: {e}"))?;
    if field(&v, "ok") != Some(&Value::Bool(true)) {
        return Err(format!("error reply: {line}"));
    }
    let cache = match field(&v, "cache") {
        Some(Value::Str(s)) if s == "hit" => CacheTag::Hit,
        Some(Value::Str(s)) if s == "miss" => CacheTag::Miss,
        Some(Value::Str(s)) if s == "followed" => CacheTag::Followed,
        other => return Err(format!("reply without a cache status: {other:?}")),
    };
    let signature = match field(&v, "signature") {
        Some(Value::Str(s)) => s.clone(),
        other => return Err(format!("reply without a signature: {other:?}")),
    };
    let layers = match field(&v, "layers") {
        Some(Value::UInt(n)) => *n,
        Some(Value::Int(n)) if *n >= 0 => *n as u64,
        other => return Err(format!("reply without a layer count: {other:?}")),
    };
    let makespan_ms_per_step = match field(&v, "makespan_ms_per_step") {
        Some(Value::Float(x)) => *x,
        Some(Value::Int(n)) => *n as f64,
        Some(Value::UInt(n)) => *n as f64,
        other => return Err(format!("reply without a makespan: {other:?}")),
    };
    Ok((
        ReplyFields {
            signature,
            layers,
            makespan_ms_per_step,
        },
        cache,
    ))
}

/// A reply must equal the cold compute to the bit.
pub fn check_reply(got: &ReplyFields, want: &ReplyFields) -> Result<(), String> {
    if got.signature != want.signature {
        return Err(format!(
            "signature {} != cold {}",
            got.signature, want.signature
        ));
    }
    if got.layers != want.layers {
        return Err(format!("layers {} != cold {}", got.layers, want.layers));
    }
    if got.makespan_ms_per_step.to_bits() != want.makespan_ms_per_step.to_bits() {
        return Err(format!(
            "makespan {:e} != cold {:e}",
            got.makespan_ms_per_step, want.makespan_ms_per_step
        ));
    }
    Ok(())
}

/// Every answered request is exactly one of hit, miss or follow.
pub fn check_serve_counts(
    hits: u64,
    misses: u64,
    followed: u64,
    requests: u64,
) -> Result<(), String> {
    if hits + misses + followed != requests {
        return Err(format!(
            "hits {hits} + misses {misses} + followed {followed} != requests {requests}"
        ));
    }
    Ok(())
}

/// A pipeline schedule must be structurally valid, and its simulated
/// makespan must equal the single-sweep-worker reference to the bit.
pub fn check_schedule(
    schedule: &LayeredSchedule,
    makespan: f64,
    reference_makespan: f64,
) -> Result<(), String> {
    schedule.validate()?;
    if makespan.to_bits() != reference_makespan.to_bits() {
        return Err(format!(
            "makespan {makespan:e} != single-worker reference {reference_makespan:e}"
        ));
    }
    Ok(())
}

/// The parallel final state must match the sequential solver within
/// [`ODE_REL_TOL`].  Returns the largest absolute difference on success.
pub fn check_state(parallel: &[f64], sequential: &[f64]) -> Result<f64, String> {
    if parallel.len() != sequential.len() {
        return Err(format!(
            "state length {} != sequential {}",
            parallel.len(),
            sequential.len()
        ));
    }
    let scale = sequential.iter().fold(1.0f64, |m, x| m.max(x.abs()));
    let mut worst = 0.0f64;
    for (i, (p, s)) in parallel.iter().zip(sequential).enumerate() {
        let d = (p - s).abs();
        if d.is_nan() || d > ODE_REL_TOL * scale {
            return Err(format!("component {i}: parallel {p:e} vs sequential {s:e}"));
        }
        worst = worst.max(d);
    }
    Ok(worst)
}

/// A count that must repeat exactly across repetitions of the same input.
pub fn check_repeat(what: &str, first: u64, again: u64) -> Result<(), String> {
    if first != again {
        return Err(format!(
            "{what}: {again} differs from the first run's {first}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::LayerSchedule;
    use pt_mtask::TaskId;

    const REPLY: &str = r#"{"ok":true,"cache":"hit","signature":"00ff","layers":4,"makespan_ms_per_step":1.25,"cost_evaluations":0}"#;

    #[test]
    fn reply_check_accepts_an_identical_reply() {
        let (got, tag) = parse_reply(REPLY).unwrap();
        assert_eq!(tag, CacheTag::Hit);
        assert_eq!(check_reply(&got, &got.clone()), Ok(()));
    }

    #[test]
    fn reply_check_rejects_each_corrupted_field() {
        let (want, _) = parse_reply(REPLY).unwrap();
        let mut bad = want.clone();
        bad.signature = "00fe".into();
        assert!(check_reply(&bad, &want).is_err());
        let mut bad = want.clone();
        bad.layers += 1;
        assert!(check_reply(&bad, &want).is_err());
        let mut bad = want.clone();
        bad.makespan_ms_per_step = f64::from_bits(want.makespan_ms_per_step.to_bits() + 1);
        assert!(check_reply(&bad, &want).is_err());
    }

    #[test]
    fn error_and_malformed_replies_are_rejected() {
        assert!(parse_reply(r#"{"ok":false,"error":"boom"}"#).is_err());
        assert!(parse_reply("{\"ok\":true").is_err());
        assert!(parse_reply(&REPLY.replace("\"hit\"", "\"maybe\"")).is_err());
    }

    #[test]
    fn serve_counts_must_add_up() {
        assert_eq!(check_serve_counts(7, 2, 1, 10), Ok(()));
        assert!(check_serve_counts(7, 2, 0, 10).is_err());
    }

    fn schedule() -> LayeredSchedule {
        LayeredSchedule {
            total_cores: 4,
            layers: vec![LayerSchedule {
                group_sizes: vec![2, 2],
                assignments: vec![vec![TaskId(0)], vec![TaskId(1)]],
            }],
        }
    }

    #[test]
    fn schedule_check_rejects_an_invalid_schedule_or_a_changed_makespan() {
        let good = schedule();
        assert_eq!(check_schedule(&good, 2.0, 2.0), Ok(()));
        assert!(check_schedule(&good, 2.0, f64::from_bits(2.0f64.to_bits() + 1)).is_err());
        let mut bad = good.clone();
        bad.layers[0].group_sizes = vec![2, 1]; // no longer sums to P
        assert!(check_schedule(&bad, 2.0, 2.0).is_err());
        let mut bad = good;
        bad.layers[0].assignments[1] = vec![TaskId(0)]; // task placed twice
        assert!(check_schedule(&bad, 2.0, 2.0).is_err());
    }

    #[test]
    fn state_check_rejects_a_perturbed_state() {
        let seq = vec![1.0, -3.0, 0.5];
        assert_eq!(check_state(&seq, &seq), Ok(0.0));
        let mut bad = seq.clone();
        bad[1] += 1e-9;
        assert!(check_state(&bad, &seq).is_err());
        bad[1] = f64::NAN;
        assert!(check_state(&bad, &seq).is_err());
        assert!(check_state(&seq[..2], &seq).is_err());
    }

    #[test]
    fn repeat_check_rejects_a_changed_count() {
        assert_eq!(check_repeat("x", 5, 5), Ok(()));
        assert!(check_repeat("x", 5, 6).is_err());
    }
}
