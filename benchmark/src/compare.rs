//! `irf-benchmark compare A B`: two sets of runs side by side. Each
//! set is a directory whose `results.jsonl` the runs appended to. For
//! every workload and metric it prints both medians and quartiles,
//! the relative gap of B against A, the bound `BENCHMARK.json` fixes,
//! and whether B is within it, worse, or the sets are too noisy to
//! tell.

use crate::json::{self, Value};
use crate::measure::median;
use crate::metrics::{spec_of, Better, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;

/// Metric values by (workload, metric name), in run order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn read_set(dir: &Path) -> Result<Samples, String> {
    let path = dir.join("results.jsonl");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut samples = Samples::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("result line has no workload")?;
        let Some(Value::Obj(metrics)) = run.get("metrics") else {
            return Err("result line has no metrics".into());
        };
        // An untraced run also records the statistics no bound holds on.
        let unbounded = match run.get("unbounded") {
            Some(Value::Obj(unbounded)) => Some(unbounded),
            _ => None,
        };
        for (name, metric) in metrics.iter().chain(unbounded.into_iter().flatten()) {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(samples)
}

/// The bounds `BENCHMARK.json` fixes on the end-to-end metrics.
fn read_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let manifest = json::parse(&text)?;
    let listed = manifest
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    Ok(listed
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them, which is how the bounds were set.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len < 2 {
        let only = sorted.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let at = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Within,
    Worse,
    Unresolved,
}

/// `gap` is B's median over A's, minus one, signed so that positive
/// is worse. A set whose own quartiles are further apart than the
/// bound cannot resolve a change of that size.
fn verdict(gap_worse: f64, spread_a: f64, spread_b: f64, bound: f64) -> Verdict {
    if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if gap_worse > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

pub fn run(a: &Path, b: &Path, manifest: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (read_set(a)?, read_set(b)?);
    let bounds = read_bounds(manifest)?;
    println!(
        "{:<14} {:<28} {:>11} {:>17} {:>11} {:>17} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "gap", "bound"
    );
    let mut all_within = true;
    for workload in WORKLOADS {
        for ((_, name), values_a) in set_a.iter().filter(|((w, _), _)| w == workload) {
            let Some(values_b) = set_b.get(&(workload.to_string(), name.clone())) else {
                continue;
            };
            let (med_a, med_b) = (median(values_a), median(values_b));
            let ((a1, a3), (b1, b3)) = (quartiles(values_a), quartiles(values_b));
            let gap = med_b / med_a - 1.0;
            let better = spec_of(name).map_or(Better::Lower, |spec| spec.2);
            let gap_worse = if better == Better::Lower { gap } else { -gap };
            let (bound_text, verdict_text) = match bounds.get(name) {
                Some(&bound) => {
                    let v = verdict(gap_worse, (a3 - a1) / med_a, (b3 - b1) / med_b, bound);
                    all_within &= v == Verdict::Within;
                    (format!("{bound:.2}"), format!("{v:?}").to_lowercase())
                }
                None => ("-".to_string(), "-".to_string()),
            };
            println!(
                "{workload:<14} {name:<28} {med_a:>11.5} {:>17} {med_b:>11.5} {:>17} {:>+7.1}% {bound_text:>6}  {verdict_text}  (n={}/{})",
                format!("{a1:.4}..{a3:.4}"),
                format!("{b1:.4}..{b3:.4}"),
                100.0 * gap,
                values_a.len(),
                values_b.len()
            );
        }
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(verdict(0.05, 0.02, 0.03, 0.10), Verdict::Within);
        assert_eq!(verdict(-0.30, 0.02, 0.03, 0.10), Verdict::Within);
        assert_eq!(verdict(0.12, 0.02, 0.03, 0.10), Verdict::Worse);
        assert_eq!(verdict(0.12, 0.02, 0.11, 0.10), Verdict::Unresolved);
    }
}
