//! A Prometheus text exposition format (version 0.0.4) linter, built
//! for the test suite only.
//!
//! `/v1/metrics` is hand-rendered in this stack, so nothing but tests
//! stands between a formatting bug and an unscrapeable endpoint. The
//! linter checks what a scraper would choke on: malformed names and
//! label sets, unparseable sample values, duplicate series, `# TYPE` /
//! `# HELP` placement, and histogram shape (cumulative buckets ending
//! in `+Inf`, `_sum`/`_count` present and consistent).

use std::collections::{BTreeMap, BTreeSet};

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A parsed sample line.
#[derive(Debug)]
struct Sample {
    name: String,
    /// Sorted `label="value"` pairs (with `le` kept separate).
    labels: Vec<(String, String)>,
    le: Option<String>,
    value: f64,
    line_no: usize,
}

/// Splits `name{labels} value` and validates the pieces.
fn parse_sample(line: &str, line_no: usize, errors: &mut Vec<String>) -> Option<Sample> {
    let (series, value_str) = match line.find('}') {
        Some(close) => {
            let (series, rest) = line.split_at(close + 1);
            (series, rest.trim())
        }
        None => {
            let mut parts = line.splitn(2, ' ');
            (parts.next()?, parts.next().unwrap_or("").trim())
        }
    };
    let Ok(value) = value_str.parse::<f64>() else {
        errors.push(format!("line {line_no}: unparseable value {value_str:?}"));
        return None;
    };
    let (name, mut labels, mut le) = match series.find('{') {
        None => (series.to_string(), Vec::new(), None),
        Some(open) => {
            if !series.ends_with('}') {
                errors.push(format!("line {line_no}: unterminated label set"));
                return None;
            }
            let name = series[..open].to_string();
            let body = &series[open + 1..series.len() - 1];
            let mut labels = Vec::new();
            let mut le = None;
            let mut rest = body;
            while !rest.is_empty() {
                let Some(eq) = rest.find('=') else {
                    errors.push(format!("line {line_no}: label without '='"));
                    return None;
                };
                let key = rest[..eq].trim().to_string();
                let after = &rest[eq + 1..];
                if !after.starts_with('"') {
                    errors.push(format!("line {line_no}: unquoted label value"));
                    return None;
                }
                // Find the closing quote, honouring backslash escapes.
                let mut end = None;
                let mut escaped = false;
                for (i, c) in after.char_indices().skip(1) {
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        end = Some(i);
                        break;
                    }
                }
                let Some(end) = end else {
                    errors.push(format!("line {line_no}: unterminated label value"));
                    return None;
                };
                let value = after[1..end].to_string();
                if !valid_label_name(&key) {
                    errors.push(format!("line {line_no}: invalid label name {key:?}"));
                }
                if key == "le" {
                    le = Some(value);
                } else {
                    labels.push((key, value));
                }
                rest = after[end + 1..].trim_start_matches(',').trim_start();
            }
            (name, labels, le)
        }
    };
    if !valid_metric_name(&name) {
        errors.push(format!("line {line_no}: invalid metric name {name:?}"));
        return None;
    }
    labels.sort();
    // `le` on a non-bucket series is legal but, in this stack, always
    // a rendering bug; treat it as a plain label there.
    if le.is_some() && !name.ends_with("_bucket") {
        labels.push(("le".to_string(), le.take().unwrap_or_default()));
        labels.sort();
    }
    Some(Sample {
        name,
        labels,
        le,
        value,
        line_no,
    })
}

/// The family a suffixed series belongs to (`x_bucket` → `x` when a
/// histogram `x` was declared, etc.).
fn family_of<'a>(name: &'a str, histograms: &BTreeSet<String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if histograms.contains(stem) {
                return stem;
            }
        }
    }
    name
}

/// Lints `text`; returns every problem found (empty = clean).
#[must_use]
pub fn lint(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut helped: BTreeSet<String> = BTreeSet::new();
    let mut histograms: BTreeSet<String> = BTreeSet::new();
    let mut seen_sample_of: BTreeSet<String> = BTreeSet::new();
    let mut samples: Vec<Sample> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("").to_string();
            let kind = parts.next().unwrap_or("").trim().to_string();
            if !valid_metric_name(&name) {
                errors.push(format!("line {line_no}: TYPE for invalid name {name:?}"));
                continue;
            }
            if !matches!(
                kind.as_str(),
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                errors.push(format!("line {line_no}: unknown TYPE {kind:?}"));
            }
            if typed.insert(name.clone(), kind.clone()).is_some() {
                errors.push(format!("line {line_no}: duplicate TYPE for {name}"));
            }
            if seen_sample_of.contains(&name) {
                errors.push(format!("line {line_no}: TYPE for {name} after its samples"));
            }
            if kind == "histogram" {
                histograms.insert(name);
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("").to_string();
            if !helped.insert(name.clone()) {
                errors.push(format!("line {line_no}: duplicate HELP for {name}"));
            }
            if seen_sample_of.contains(&name) {
                errors.push(format!("line {line_no}: HELP for {name} after its samples"));
            }
            continue;
        }
        if line.starts_with('#') {
            // Other comments are allowed and ignored.
            continue;
        }
        if let Some(sample) = parse_sample(line, line_no, &mut errors) {
            seen_sample_of.insert(family_of(&sample.name, &histograms).to_string());
            samples.push(sample);
        }
    }
    // Duplicate series.
    let mut seen_series: BTreeSet<String> = BTreeSet::new();
    for s in &samples {
        let key = format!("{}|{:?}|le={:?}", s.name, s.labels, s.le);
        if !seen_series.insert(key) {
            errors.push(format!(
                "line {}: duplicate series {}{:?}",
                s.line_no, s.name, s.labels
            ));
        }
    }
    // Histogram shape per (family, labelset).
    for family in &histograms {
        let mut groups: BTreeMap<Vec<(String, String)>, Vec<&Sample>> = BTreeMap::new();
        for s in &samples {
            if family_of(&s.name, &histograms) == family.as_str() {
                groups.entry(s.labels.clone()).or_default().push(s);
            }
        }
        if groups.is_empty() {
            continue;
        }
        for (labels, group) in groups {
            let buckets: Vec<&&Sample> = group
                .iter()
                .filter(|s| s.name == format!("{family}_bucket"))
                .collect();
            let sum = group.iter().find(|s| s.name == format!("{family}_sum"));
            let count = group.iter().find(|s| s.name == format!("{family}_count"));
            let ctx = format!("histogram {family}{labels:?}");
            if sum.is_none() {
                errors.push(format!("{ctx}: missing _sum"));
            }
            let Some(count) = count else {
                errors.push(format!("{ctx}: missing _count"));
                continue;
            };
            let Some(inf) = buckets.iter().find(|s| s.le.as_deref() == Some("+Inf")) else {
                errors.push(format!("{ctx}: missing le=\"+Inf\" bucket"));
                continue;
            };
            if (inf.value - count.value).abs() > f64::EPSILON {
                errors.push(format!(
                    "{ctx}: +Inf bucket {} != _count {}",
                    inf.value, count.value
                ));
            }
            // Finite bounds must ascend and counts must be cumulative.
            let mut finite: Vec<(f64, f64)> = buckets
                .iter()
                .filter_map(|s| {
                    let le = s.le.as_deref()?;
                    if le == "+Inf" {
                        return None;
                    }
                    match le.parse::<f64>() {
                        Ok(bound) => Some((bound, s.value)),
                        Err(_) => {
                            errors.push(format!("{ctx}: unparseable le {le:?}"));
                            None
                        }
                    }
                })
                .collect();
            finite.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in finite.windows(2) {
                if w[0].1 > w[1].1 {
                    errors.push(format!(
                        "{ctx}: bucket counts not cumulative at le={}",
                        w[1].0
                    ));
                }
            }
            if let Some(&(bound, v)) = finite.last() {
                if v > inf.value {
                    errors.push(format!(
                        "{ctx}: le={bound} count {v} exceeds +Inf {}",
                        inf.value
                    ));
                }
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_exposition_passes() {
        let text = "\
# HELP irf_requests_total Requests.
# TYPE irf_requests_total counter
irf_requests_total{route=\"predict\",status=\"200\"} 4
irf_requests_total{route=\"whatif\",status=\"200\"} 1
# HELP irf_http_request_seconds Latency.
# TYPE irf_http_request_seconds histogram
irf_http_request_seconds_bucket{endpoint=\"predict\",le=\"0.1\"} 3
irf_http_request_seconds_bucket{endpoint=\"predict\",le=\"0.5\"} 4
irf_http_request_seconds_bucket{endpoint=\"predict\",le=\"+Inf\"} 4
irf_http_request_seconds_sum{endpoint=\"predict\"} 0.4
irf_http_request_seconds_count{endpoint=\"predict\"} 4
irf_amg_levels 3
";
        assert_eq!(lint(text), Vec::<String>::new());
    }

    #[test]
    fn catches_duplicate_series_and_bad_values() {
        let errors = lint("irf_x_total 1\nirf_x_total 2\nirf_y_total nope\n");
        assert!(errors.iter().any(|e| e.contains("duplicate series")));
        assert!(errors.iter().any(|e| e.contains("unparseable value")));
    }

    #[test]
    fn catches_invalid_names() {
        let errors = lint("9bad_name 1\nok_name{9bad=\"v\"} 1\n");
        assert!(errors.iter().any(|e| e.contains("invalid metric name")));
        assert!(errors.iter().any(|e| e.contains("invalid label name")));
    }

    #[test]
    fn catches_histogram_shape_problems() {
        let text = "\
# TYPE irf_h histogram
irf_h_bucket{le=\"0.1\"} 5
irf_h_bucket{le=\"0.5\"} 3
irf_h_bucket{le=\"+Inf\"} 6
irf_h_sum 1.0
irf_h_count 7
";
        let errors = lint(text);
        assert!(errors.iter().any(|e| e.contains("not cumulative")));
        assert!(errors
            .iter()
            .any(|e| e.contains("+Inf bucket 6 != _count 7")));
    }

    #[test]
    fn catches_missing_inf_and_count() {
        let text = "\
# TYPE irf_h histogram
irf_h_bucket{le=\"0.1\"} 1
irf_h_sum 0.05
";
        let errors = lint(text);
        assert!(errors.iter().any(|e| e.contains("missing _count")));
    }

    #[test]
    fn catches_type_after_samples() {
        let text = "irf_z_total 1\n# TYPE irf_z_total counter\n";
        let errors = lint(text);
        assert!(errors.iter().any(|e| e.contains("after its samples")));
    }

    #[test]
    fn escaped_quotes_in_label_values_parse() {
        let text = "irf_q_total{route=\"a\\\"b\\\\c\"} 1\n";
        assert_eq!(lint(text), Vec::<String>::new());
    }
}
