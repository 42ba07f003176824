//! SPICE numeric values with SI magnitude suffixes.

/// Parses a SPICE number such as `1.5`, `10k`, `3m`, `2.2u`, `5meg`.
///
/// Suffixes follow SPICE conventions (case-insensitive): `f` 1e-15,
/// `p` 1e-12, `n` 1e-9, `u` 1e-6, `m` 1e-3, `k` 1e3, `meg` 1e6,
/// `g` 1e9, `t` 1e12. Any trailing unit letters after the suffix are
/// ignored (`10kohm` parses as `10e3`), matching common simulators.
///
/// Returns `None` when the leading numeric part is absent or malformed.
#[must_use]
pub fn parse_spice_number(s: &str) -> Option<f64> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    // Split into the longest valid float prefix and the suffix.
    let bytes = s.as_bytes();
    let mut end = 0;
    let mut seen_digit = false;
    let mut seen_dot = false;
    let mut seen_exp = false;
    while end < bytes.len() {
        let c = bytes[end] as char;
        let ok = match c {
            '0'..='9' => {
                seen_digit = true;
                true
            }
            '+' | '-' => end == 0 || matches!(bytes[end - 1] as char, 'e' | 'E'),
            '.' if !seen_dot && !seen_exp => {
                seen_dot = true;
                true
            }
            'e' | 'E' if seen_digit && !seen_exp => {
                // Only treat as exponent when followed by digit or sign.
                let next = bytes.get(end + 1).map(|&b| b as char);
                if matches!(next, Some('0'..='9') | Some('+') | Some('-')) {
                    seen_exp = true;
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        if !ok {
            break;
        }
        end += 1;
    }
    if !seen_digit {
        return None;
    }
    let base: f64 = s[..end].parse().ok()?;
    // The suffix is matched on its bytes, whatever their case.
    let suffix = &bytes[end..];
    let starts_with = |word: &[u8]| suffix.len() >= 3 && suffix[..3].eq_ignore_ascii_case(word);
    let scale = if starts_with(b"meg") {
        1e6
    } else if starts_with(b"mil") {
        25.4e-6
    } else {
        match suffix.first().map(u8::to_ascii_lowercase) {
            None => 1.0,
            Some(b'f') => 1e-15,
            Some(b'p') => 1e-12,
            Some(b'n') => 1e-9,
            Some(b'u') => 1e-6,
            Some(b'm') => 1e-3,
            Some(b'k') => 1e3,
            Some(b'g') => 1e9,
            Some(b't') => 1e12,
            // Unknown letters are treated as a unit annotation.
            Some(c) if c.is_ascii_alphabetic() => 1.0,
            Some(_) => return None,
        }
    };
    Some(base * scale)
}

/// [`parse_spice_number`] as it was before its suffix was matched on
/// bytes (a lower-cased `String` per value): the oracle of the
/// differential tests.
#[cfg(test)]
pub(crate) fn oracle_parse_spice_number(s: &str) -> Option<f64> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    // Split into the longest valid float prefix and the suffix.
    let bytes = s.as_bytes();
    let mut end = 0;
    let mut seen_digit = false;
    let mut seen_dot = false;
    let mut seen_exp = false;
    while end < bytes.len() {
        let c = bytes[end] as char;
        let ok = match c {
            '0'..='9' => {
                seen_digit = true;
                true
            }
            '+' | '-' => end == 0 || matches!(bytes[end - 1] as char, 'e' | 'E'),
            '.' if !seen_dot && !seen_exp => {
                seen_dot = true;
                true
            }
            'e' | 'E' if seen_digit && !seen_exp => {
                // Only treat as exponent when followed by digit or sign.
                let next = bytes.get(end + 1).map(|&b| b as char);
                if matches!(next, Some('0'..='9') | Some('+') | Some('-')) {
                    seen_exp = true;
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        if !ok {
            break;
        }
        end += 1;
    }
    if !seen_digit {
        return None;
    }
    let base: f64 = s[..end].parse().ok()?;
    let suffix = s[end..].to_ascii_lowercase();
    let scale = if suffix.starts_with("meg") {
        1e6
    } else if suffix.starts_with("mil") {
        25.4e-6
    } else {
        match suffix.chars().next() {
            None => 1.0,
            Some('f') => 1e-15,
            Some('p') => 1e-12,
            Some('n') => 1e-9,
            Some('u') => 1e-6,
            Some('m') => 1e-3,
            Some('k') => 1e3,
            Some('g') => 1e9,
            Some('t') => 1e12,
            // Unknown letters are treated as a unit annotation.
            Some(c) if c.is_ascii_alphabetic() => 1.0,
            Some(_) => return None,
        }
    };
    Some(base * scale)
}

/// Formats a value for netlist output with full round-trip precision.
#[must_use]
pub fn format_spice_number(v: f64) -> String {
    // `{:e}` keeps precision compact while staying exact for f64.
    if v == 0.0 {
        "0".to_string()
    } else if (1e-3..1e6).contains(&v.abs()) {
        let s = format!("{v}");
        s
    } else {
        format!("{v:e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_numbers() {
        assert_eq!(parse_spice_number("1.5"), Some(1.5));
        assert_eq!(parse_spice_number("-3"), Some(-3.0));
        assert_eq!(parse_spice_number("2e3"), Some(2000.0));
        assert_eq!(parse_spice_number("1.2E-2"), Some(0.012));
    }

    #[test]
    fn si_suffixes() {
        assert_eq!(parse_spice_number("10k"), Some(10_000.0));
        assert_eq!(parse_spice_number("3m"), Some(0.003));
        assert_eq!(parse_spice_number("2.2u"), Some(2.2e-6));
        assert_eq!(parse_spice_number("5meg"), Some(5e6));
        let v = parse_spice_number("7n").expect("parses");
        assert!((v - 7e-9).abs() < 1e-20);
        assert_eq!(parse_spice_number("1p"), Some(1e-12));
        assert_eq!(parse_spice_number("4G"), Some(4e9));
    }

    #[test]
    fn unit_annotations_are_ignored() {
        assert_eq!(parse_spice_number("10kohm"), Some(10_000.0));
        assert_eq!(parse_spice_number("1.1v"), Some(1.1 * 1.0));
        assert_eq!(parse_spice_number("5mA"), Some(0.005));
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert_eq!(parse_spice_number(""), None);
        assert_eq!(parse_spice_number("abc"), None);
        assert_eq!(parse_spice_number("."), None);
        assert_eq!(parse_spice_number("-"), None);
    }

    #[test]
    fn exponent_without_digits_is_unit() {
        // "1e" — the 'e' cannot start an exponent, so it is a unit.
        assert_eq!(parse_spice_number("1e"), Some(1.0));
    }

    #[test]
    fn suffixes_match_the_oracle_in_any_case() {
        for number in ["1", "-2.5", "3e2", "4e", ".5"] {
            for suffix in [
                "", "f", "P", "n", "U", "m", "K", "g", "T", "meg", "MEG", "mEgohm", "me", "mil",
                "MIL", "Mi", "ohm", "V", "é", "mé", "_", "%", "meé", "1", " ",
            ] {
                let text = format!("{number}{suffix}");
                assert_eq!(
                    parse_spice_number(&text).map(f64::to_bits),
                    oracle_parse_spice_number(&text).map(f64::to_bits),
                    "{text:?}"
                );
            }
        }
    }

    #[test]
    fn format_roundtrips() {
        for v in [0.0, 1.5, -0.003, 12_345.678, 1e-9, 3.3e12] {
            let s = format_spice_number(v);
            let back = parse_spice_number(&s).expect("formatted number parses");
            assert_eq!(back, v, "value {v} formatted as {s}");
        }
    }
}
