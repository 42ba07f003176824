//! Randomized-but-deterministic property tests for the SPICE front
//! end (fixed seeds, exact reproduction on failure).

use irf_runtime::Xoshiro256pp;
use irf_spice::value::format_spice_number;
use irf_spice::{visit_cards, ParseError, StreamError, StreamedCardKind};

const CASES: u64 = 64;

/// A syntactically valid node name: ICCAD-style coordinates or a
/// free-form lowercase identifier.
fn node_name(rng: &mut Xoshiro256pp) -> String {
    if rng.random::<bool>() {
        let m = rng.random_range(1u32..=9);
        let x = rng.random_range(0i64..100_000);
        let y = rng.random_range(0i64..100_000);
        format!("n1_m{m}_{x}_{y}")
    } else {
        let len = rng.random_range(1usize..=9);
        (0..len)
            .map(|i| {
                let alphabet: &[u8] = if i == 0 {
                    b"abcdefghijklmnopqrstuvwxyz"
                } else {
                    b"abcdefghijklmnopqrstuvwxyz0123456789"
                };
                alphabet[rng.random_range(0usize..alphabet.len())] as char
            })
            .collect()
    }
}

/// A whole netlist as element tuples `(kind, node_a, node_b, value)`.
fn elements(rng: &mut Xoshiro256pp) -> Vec<(u8, String, String, f64)> {
    let len = rng.random_range(1usize..40);
    (0..len)
        .map(|_| {
            let kind = rng.random_range(0u32..3) as u8;
            let a = node_name(rng);
            let b = node_name(rng);
            let v = if rng.random::<bool>() {
                rng.random_range(1e-6f64..1e6)
            } else {
                1.0
            };
            (kind, a, b, v)
        })
        .collect()
}

fn build_source(elems: &[(u8, String, String, f64)]) -> String {
    let mut src = String::from("* generated\n");
    for (i, (kind, a, b, v)) in elems.iter().enumerate() {
        let prefix = match kind {
            0 => 'R',
            1 => 'I',
            _ => 'V',
        };
        src.push_str(&format!("{prefix}{i} {a} {b} {v:e}\n"));
    }
    src.push_str(".end\n");
    src
}

/// A visited card with owned fields.
type Card = (StreamedCardKind, String, String, String, f64);

/// Every card of `src`, or the error that stopped the stream.
fn cards(src: &str) -> Result<Vec<Card>, ParseError> {
    let mut cards = Vec::new();
    let visited = visit_cards(src.as_bytes(), |card| {
        let text = |s: &str| s.to_string();
        cards.push((
            card.kind,
            text(card.name),
            text(card.a),
            text(card.b),
            card.value,
        ));
        Ok(())
    });
    match visited {
        Ok(()) => Ok(cards),
        Err(StreamError::Parse(e)) => Err(e),
        Err(StreamError::Io(e)) => unreachable!("reading a &str cannot fail: {e}"),
    }
}

/// SPICE text for `cards`, values printed by [`format_spice_number`].
fn write(cards: &[Card]) -> String {
    let mut out = String::new();
    for (_, name, a, b, value) in cards {
        out.push_str(&format!("{name} {a} {b} {}\n", format_spice_number(*value)));
    }
    out
}

#[test]
fn parse_never_panics_on_arbitrary_text() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5C_01);
    for _ in 0..CASES {
        // Printable-ish soup: ASCII printables, newlines, and the
        // occasional multi-byte character.
        let len = rng.random_range(0usize..200);
        let s: String = (0..len)
            .map(|_| match rng.random_range(0u32..20) {
                0 => '\n',
                1 => '\t',
                2 => 'é',
                3 => '→',
                _ => (rng.random_range(0x20u32..0x7F) as u8) as char,
            })
            .collect();
        let _ = cards(&s);
    }
}

#[test]
fn generated_netlists_parse() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5C_02);
    for _ in 0..CASES {
        let elems = elements(&mut rng);
        let src = build_source(&elems);
        let n = cards(&src).expect("generated netlists are valid");
        assert_eq!(n.len(), elems.len());
        for ((kind, a, b, value), card) in elems.iter().zip(&n) {
            let want = [
                StreamedCardKind::Resistor,
                StreamedCardKind::CurrentSource,
                StreamedCardKind::VoltageSource,
            ][usize::from(*kind)];
            assert_eq!((want, a, b, *value), (card.0, &card.2, &card.3, card.4));
        }
    }
}

#[test]
fn write_parse_roundtrip() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5C_03);
    for _ in 0..CASES {
        let elems = elements(&mut rng);
        let src = build_source(&elems);
        let a = cards(&src).expect("valid");
        let b = cards(&write(&a)).expect("round-trips");
        // Values survive exactly (the writer prints full precision).
        assert_eq!(a, b);
    }
}

#[test]
fn interning_is_stable_across_duplicates() {
    // A node name may repeat on any number of cards; an element name,
    // in any ASCII case, may not.
    let mut rng = Xoshiro256pp::seed_from_u64(0x5C_04);
    for _ in 0..CASES {
        let node = node_name(&mut rng);
        let element = format!("R{}", node_name(&mut rng));
        let src = format!("{element} {node} other 1.0\nR2 {node} other2 2.0\n");
        let n = cards(&src).expect("valid");
        assert_eq!(n[0].2, n[1].2);
        let shouted = element.to_ascii_uppercase();
        let err = cards(&format!("{src}{shouted} a b 1\n")).expect_err("duplicate");
        assert_eq!(err.line, 3, "{element} / {shouted}");
    }
}

#[test]
fn spice_numbers_roundtrip() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5C_05);
    for _ in 0..CASES {
        let v = rng.random_range(-1e9f64..1e9);
        let s = irf_spice::value::format_spice_number(v);
        let back = irf_spice::value::parse_spice_number(&s).expect("formatted parses");
        assert_eq!(back, v);
    }
}

#[test]
fn si_suffix_scaling_is_multiplicative() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5C_06);
    for _ in 0..CASES {
        let base = rng.random_range(0.001f64..999.0);
        let k = irf_spice::value::parse_spice_number(&format!("{base}k")).unwrap();
        let m = irf_spice::value::parse_spice_number(&format!("{base}m")).unwrap();
        assert!((k / (base * 1e3) - 1.0).abs() < 1e-12);
        assert!((m / (base * 1e-3) - 1.0).abs() < 1e-12);
    }
}
