//! Structured logging on `std` alone.
//!
//! One record per call, rendered as a single JSON object line
//! (`{"ts":…,"level":"info","event":"access",…}`) and written to
//! stderr with one `write_all` (so concurrent threads never interleave
//! mid-line), ready for a collector to ingest. The active level is
//! `info` unless the `irf-serve` `--log` flag sets another
//! ([`set_level`]).
//!
//! # Cost model
//!
//! A call below the active level is one relaxed atomic load and a
//! compare — no formatting, no allocation, no lock. Callers that must
//! *compute* a field value should gate on [`enabled`] first; the
//! `&[(&str, Value)]` field slice itself lives on the caller's stack.

use crate::json::{write_escaped, write_number};
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Log severity, most to least severe. `Off` is only meaningful as a
/// filter level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is logged.
    Off = 0,
    /// The process is in trouble (bind failures, checkpoint errors).
    Error = 1,
    /// Something degraded but handled (malformed requests, fallbacks).
    Warn = 2,
    /// One line per notable unit of work (the access log lives here).
    Info = 3,
    /// Per-subsystem detail (cache churn).
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    /// Parses `off|error|warn|info|debug|trace` (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// A field value. Borrowed strings keep record emission
/// allocation-free for callers that already hold the text.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Float (non-finite values render as JSON `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(&'a str),
}

impl<'a> From<u64> for Value<'a> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl<'a> From<usize> for Value<'a> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl<'a> From<f64> for Value<'a> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl<'a> From<bool> for Value<'a> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}

/// Active filter level.
static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Test override of the output; `None` writes to stderr.
static WRITER: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// Sets the active level (the `--log` flag).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Redirects output (tests). `None` restores stderr.
pub fn set_writer(writer: Option<Box<dyn Write + Send>>) {
    *WRITER.lock().expect("log sink poisoned") = writer;
}

/// `true` when a record at `level` would be written. Gate expensive
/// field construction on this.
#[must_use]
pub fn enabled(level: Level) -> bool {
    (level as u8) <= LEVEL.load(Ordering::Relaxed)
}

/// Renders `unix_ms` as `YYYY-MM-DDTHH:MM:SS.mmmZ` (proleptic
/// Gregorian, the civil-from-days construction).
fn render_timestamp(out: &mut String, unix_ms: u64) {
    let secs = unix_ms / 1000;
    let ms = unix_ms % 1000;
    let days = (secs / 86_400) as i64;
    let tod = secs % 86_400;
    let (h, m, s) = (tod / 3600, (tod / 60) % 60, tod % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    let _ = write!(
        out,
        "{year:04}-{month:02}-{day:02}T{h:02}:{m:02}:{s:02}.{ms:03}Z"
    );
}

fn render_at(unix_ms: u64, level: Level, event: &str, fields: &[(&str, Value<'_>)]) -> String {
    let mut out = String::with_capacity(96 + fields.len() * 24);
    out.push_str("{\"ts\":\"");
    render_timestamp(&mut out, unix_ms);
    let _ = write!(out, "\",\"level\":\"{}\",\"event\":", level.as_str());
    write_escaped(event, &mut out);
    for (key, value) in fields {
        out.push(',');
        write_escaped(key, &mut out);
        out.push(':');
        match value {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => write_number(*v, &mut out),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => write_escaped(s, &mut out),
        }
    }
    out.push_str("}\n");
    out
}

/// Writes one record (a no-op below the active level).
fn emit(level: Level, event: &str, fields: &[(&str, Value<'_>)]) {
    if !enabled(level) {
        return;
    }
    let line = render_at(crate::server::unix_ms_now(), level, event, fields);
    match &mut *WRITER.lock().expect("log sink poisoned") {
        Some(w) => {
            let _ = w.write_all(line.as_bytes());
            let _ = w.flush();
        }
        None => {
            let _ = std::io::stderr().write_all(line.as_bytes());
        }
    }
}

/// Emits at [`Level::Error`].
pub fn error(event: &str, fields: &[(&str, Value<'_>)]) {
    emit(Level::Error, event, fields);
}

/// Emits at [`Level::Warn`].
pub fn warn(event: &str, fields: &[(&str, Value<'_>)]) {
    emit(Level::Warn, event, fields);
}

/// Emits at [`Level::Info`].
pub fn info(event: &str, fields: &[(&str, Value<'_>)]) {
    emit(Level::Info, event, fields);
}

/// Emits at [`Level::Debug`].
pub fn debug(event: &str, fields: &[(&str, Value<'_>)]) {
    emit(Level::Debug, event, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_and_format_parse() {
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Error < Level::Trace);
        // The one format: every record is a JSON object on one line.
        let line = render_at(
            0,
            Level::Warn,
            "request_error",
            &[("depth", Value::U64(64))],
        );
        let record = crate::json::parse(&line).expect("a record is one JSON document");
        assert_eq!(
            record.get("level").and_then(crate::json::Json::as_str),
            Some("warn")
        );
        assert_eq!(
            record.get("depth").and_then(crate::json::Json::as_u64),
            Some(64)
        );
    }

    #[test]
    fn json_records_are_single_escaped_lines() {
        let line = render_at(
            1_754_618_400_123, // 2025-08-08T02:00:00.123Z
            Level::Info,
            "access",
            &[
                ("endpoint", Value::Str("predict")),
                ("status", Value::U64(200)),
                ("duration_seconds", Value::F64(0.25)),
                ("cached", Value::Bool(true)),
                ("note", Value::Str("a \"quoted\"\nthing")),
                ("nan", Value::F64(f64::NAN)),
            ],
        );
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1);
        assert!(line.contains("\"ts\":\"2025-08-08T02:00:00.123Z\""));
        assert!(line.contains("\"level\":\"info\""));
        assert!(line.contains("\"event\":\"access\""));
        assert!(line.contains("\"endpoint\":\"predict\""));
        assert!(line.contains("\"status\":200"));
        assert!(line.contains("\"duration_seconds\":0.25"));
        assert!(line.contains("\"cached\":true"));
        assert!(line.contains("\\\"quoted\\\"\\n"));
        assert!(line.contains("\"nan\":null"));
    }

    #[test]
    fn timestamps_cover_month_boundaries() {
        let mut out = String::new();
        render_timestamp(&mut out, 0);
        assert_eq!(out, "1970-01-01T00:00:00.000Z");
        out.clear();
        // 2024-02-29T23:59:59.999Z (leap day).
        render_timestamp(&mut out, 1_709_251_199_999);
        assert_eq!(out, "2024-02-29T23:59:59.999Z");
        out.clear();
        // 2026-12-31T00:00:00.000Z.
        render_timestamp(&mut out, 1_798_675_200_000);
        assert_eq!(out, "2026-12-31T00:00:00.000Z");
    }

    #[test]
    fn disabled_levels_do_not_reach_the_writer() {
        struct Probe(std::sync::Arc<std::sync::atomic::AtomicUsize>);
        impl Write for Probe {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.fetch_add(buf.len(), Ordering::Relaxed);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let written = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        set_level(Level::Warn);
        set_writer(Some(Box::new(Probe(written.clone()))));
        info("suppressed", &[]);
        debug("suppressed", &[]);
        assert_eq!(written.load(Ordering::Relaxed), 0);
        warn("emitted", &[("k", Value::U64(1))]);
        assert!(written.load(Ordering::Relaxed) > 0);
        set_writer(None);
        set_level(Level::Info);
    }
}
