//! The shape every run shares: three fresh set-ups timed back to back
//! (the last one kept), one untimed op per class, then 60 ops in the
//! fixed order `cheap cheap costly` x 20, timed op by op, each output
//! checked off the clock.
//!
//! A run reports two kinds of timing. The sample statistics of its 60
//! ops (median, 5/6 quantile, ops per second) are what a user sees,
//! and on the shared machine the bounds were measured on they move by
//! 10-40 % between runs of identical code, so they carry no bound. The
//! fastest op of each class moves by 2-6 %, is named for what it is,
//! and is what the bounds in `BENCHMARK.json` hold.

use crate::metrics::spec_of;
use std::time::Instant;

/// The two same-cost op classes of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Cheap,
    Costly,
}

/// Two cheap ops per costly one, each class same-cost by
/// construction: the median of a run's op times then lies inside the
/// cheap class, and the 5/6 quantile (the highest with ten samples
/// beyond it) is the median of the costly class.
pub const PATTERN: [Class; 3] = [Class::Cheap, Class::Cheap, Class::Costly];

/// The ops a traced run replays through the walked layers: three per
/// class, as `(class, index within the class)`.
pub const REPLAY_PLAN: [(Class, usize); 6] = [
    (Class::Cheap, 0),
    (Class::Cheap, 1),
    (Class::Costly, 0),
    (Class::Cheap, 2),
    (Class::Costly, 1),
    (Class::Costly, 2),
];

/// Timed rounds of [`PATTERN`] in a run: 60 ops. The count, not a
/// clock, ends the window, so a run does the same work on every commit
/// and its peak resident set does not depend on how fast the ops were.
pub const ROUNDS: usize = 20;

/// Fresh set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// One workload's timed op and its untimed output check. `index`
/// counts the ops of that class so far, warm-up included.
pub trait Ops {
    type Output;
    fn op(&mut self, class: Class, index: usize) -> Result<Self::Output, String>;
    fn check(&mut self, class: Class, index: usize, output: Self::Output) -> Result<(), String>;
}

/// One op that succeeded and passed its check.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub seconds: f64,
}

#[derive(Debug, Default)]
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    pub samples: Vec<Sample>,
    /// Every set-up of the run, the one the ops ran on last.
    pub setup_seconds: Vec<f64>,
}

impl Window {
    pub fn class_seconds(&self, class: Class) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.seconds)
            .collect()
    }

    /// How each class's op times were distributed.
    fn class_notes(&self) -> Vec<String> {
        [Class::Cheap, Class::Costly]
            .into_iter()
            .map(|class| {
                let times = self.class_seconds(class);
                format!(
                    "{class:?} ops: n {} min {:.4} p25 {:.4} p50 {:.4} p75 {:.4} max {:.4} s",
                    times.len(),
                    quantile(&times, 0.0),
                    quantile(&times, 0.25),
                    quantile(&times, 0.5),
                    quantile(&times, 0.75),
                    quantile(&times, 1.0)
                )
            })
            .collect()
    }
}

/// One untraced run: [`SETUPS`] calls of `setup` are timed, each
/// state but the last handed to `discard` off the clock; one untimed op
/// of each class warms the kept state, then [`ROUNDS`] rounds of
/// [`PATTERN`] are timed. An op that errs or fails its check counts as
/// failed and its time is dropped.
pub fn run_untraced<S, W: Ops>(
    mut setup: impl FnMut() -> Result<S, String>,
    mut discard: impl FnMut(S),
    into_ops: impl FnOnce(S) -> W,
) -> Result<(W, Window), String> {
    let mut window = Window::default();
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(earlier) = kept.take() {
            discard(earlier);
        }
        let (state, seconds) = timed(&mut setup);
        window.setup_seconds.push(seconds);
        kept = Some(state?);
    }
    let mut workload = into_ops(kept.expect("SETUPS is at least one"));

    let mut next = [0usize; 2];
    let mut take = |class: Class| {
        let slot = &mut next[class as usize];
        *slot += 1;
        *slot - 1
    };
    for class in [Class::Cheap, Class::Costly] {
        let index = take(class);
        workload
            .op(class, index)
            .and_then(|out| workload.check(class, index, out))
            .map_err(|e| format!("warm-up {class:?} op failed: {e}"))?;
    }
    for _ in 0..ROUNDS {
        for class in PATTERN {
            let index = take(class);
            window.attempted += 1;
            let (output, seconds) = timed(|| workload.op(class, index));
            match output.and_then(|out| workload.check(class, index, out)) {
                Ok(()) => window.samples.push(Sample { class, seconds }),
                Err(error) => {
                    window.failed += 1;
                    eprintln!("{class:?} op {index} failed: {error}");
                }
            }
        }
    }
    Ok((workload, window))
}

/// The value of rank `ceil(q * n)` among the sorted samples (the
/// smallest for `q = 0`): with 60 samples, `q = 1/2` is the 30th and
/// `q = 5/6` the 50th.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The smallest sample.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

/// Times one call.
pub fn timed<R>(call: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = call();
    (result, start.elapsed().as_secs_f64())
}

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with(field))
                .and_then(|line| line.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Current resident set in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Peak resident set of the process so far in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

impl Metric {
    /// The unit [`crate::metrics`] lists for this metric.
    pub fn unit(&self) -> &'static str {
        spec_of(self.name)
            .unwrap_or_else(|| panic!("metric {} is not in the tables", self.name))
            .1
    }
}

/// Replaces the value of the metric called `name`.
pub fn set_metric(metrics: &mut [Metric], name: &str, value: f64) {
    let metric = metrics
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric called {name}"));
    metric.value = value;
}

/// What one run reports: the driver reads the JSON line, people the
/// lines above it.
#[derive(Debug)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Metrics printed and recorded beside `metrics` that
    /// `BENCHMARK.json` does not list, because no bound holds on them.
    pub unbounded: Vec<Metric>,
    /// Facts worth a line that are not metrics (hit counts, sizes).
    pub notes: Vec<String>,
    /// Every set-up and op time behind the end-to-end metrics, kept in
    /// `results.jsonl` so an estimator can be checked after the fact.
    pub raw: Option<Window>,
}

impl RunReport {
    /// The report of an untraced run: the end-to-end metrics of its
    /// set-ups and window. `sound` carries the workload's own
    /// invariants (no evictions, say) beside "no op failed".
    pub fn untraced(window: Window, sound: bool, mut notes: Vec<String>) -> Self {
        notes.extend(window.class_notes());
        RunReport {
            correct: sound && window.failed == 0,
            attempted: window.attempted,
            failed: window.failed,
            metrics: end_to_end(&window),
            unbounded: unbounded(&window),
            notes,
            raw: Some(window),
        }
    }

    /// The report of a traced run: the per-layer metrics and how many
    /// of the replayed ops disagreed with the walked layers.
    pub fn traced(metrics: Vec<Metric>, failed: u64, sound: bool) -> Self {
        RunReport {
            correct: sound && failed == 0,
            attempted: REPLAY_PLAN.len() as u64,
            failed,
            metrics,
            unbounded: Vec::new(),
            notes: Vec::new(),
            raw: None,
        }
    }

    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            json_metrics(&self.metrics)
        )
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit()
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Every digit of a finite value; a non-finite one (a metric that
/// could not be measured) as -1, which no real measurement takes.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "-1".to_string()
    }
}

/// The bounded end-to-end metrics of one run: the median set-up, the
/// fastest op of each class, and the peak resident set.
fn end_to_end(window: &Window) -> Vec<Metric> {
    vec![
        Metric {
            name: "setup_s",
            value: median(&window.setup_seconds),
        },
        Metric {
            name: "op_cheap_min_s",
            value: fastest(&window.class_seconds(Class::Cheap)),
        },
        Metric {
            name: "op_costly_min_s",
            value: fastest(&window.class_seconds(Class::Costly)),
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
        },
    ]
}

/// The sample statistics of the run's op times, reported without a
/// bound: the median and the 5/6 quantile (with 60 ops the 30th and
/// the 50th fastest, the highest quantile with ten samples beyond
/// it), and ops per second of op wall time, the benchmark's own work
/// between ops left out.
fn unbounded(window: &Window) -> Vec<Metric> {
    let seconds: Vec<f64> = window.samples.iter().map(|s| s.seconds).collect();
    vec![
        Metric {
            name: "op_p50_s",
            value: quantile(&seconds, 0.5),
        },
        Metric {
            name: "op_tail_s",
            value: quantile(&seconds, 5.0 / 6.0),
        },
        Metric {
            name: "ops_per_s",
            value: seconds.len() as f64 / seconds.iter().sum::<f64>(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_ranks_and_medians_average_the_middle() {
        let samples: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 30.0);
        assert_eq!(quantile(&samples, 5.0 / 6.0), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    struct Fixed;
    impl Ops for Fixed {
        type Output = usize;
        fn op(&mut self, _: Class, index: usize) -> Result<usize, String> {
            Ok(index)
        }
        fn check(&mut self, class: Class, index: usize, out: usize) -> Result<(), String> {
            // The warm-up took index 0 of each class.
            if class == Class::Costly && index == 2 {
                return Err("rejected".into());
            }
            (out == index).then_some(()).ok_or_else(|| "index".into())
        }
    }

    #[test]
    fn run_times_three_set_ups_and_sixty_ops_and_drops_failed_ops() {
        let mut discarded = 0;
        let (_, window) = run_untraced(|| Ok(()), |()| discarded += 1, |()| Fixed).expect("runs");
        assert_eq!((window.attempted, window.failed), (60, 1));
        assert_eq!(window.samples.len(), 59);
        assert_eq!(window.class_seconds(Class::Costly).len(), 19);
        // The last set-up is the one the ops ran on.
        assert_eq!((window.setup_seconds.len(), discarded), (3, 2));
        let metrics = [end_to_end(&window), unbounded(&window)].concat();
        assert!(metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));
    }
}
