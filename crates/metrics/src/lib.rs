//! Evaluation metrics for static IR-drop prediction.
//!
//! Implements exactly the metrics of the ICCAD-2023 contest setup the
//! paper follows: mean absolute error ([`mae`]), the hotspot
//! [`f1_score`] with positives defined as drops exceeding 90 % of the
//! golden maximum, the maximum-IR-drop error ([`mirde`]), plus
//! Pearson correlation ([`correlation`]) and a top-k hotspot overlap
//! ([`topk_overlap`]) used in the qualitative Fig. 6 discussion.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classification;
pub mod regression;
pub mod report;

pub use classification::{confusion, f1_score, topk_overlap, Confusion, HOTSPOT_THRESHOLD};
pub use regression::{correlation, mae, max_error, mirde, rmse};
pub use report::MetricReport;
