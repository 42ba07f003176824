//! The grid builder: SPICE cards → [`PowerGrid`].
//!
//! `Accumulator` is the one place that knows how a netlist becomes a
//! grid — ground is node `0` and never a grid node, `R <= 0` is an
//! error, a resistor leg to ground or onto itself is dropped, which
//! terminal of an `I` card carries the load and with what sign, pads
//! come from `V` cards whose minus terminal is ground, and a grid with
//! no pad is rejected. Its one front door is the card stream:
//! [`grid_from_spice_reader`] / [`grid_from_spice_path`] subscribe it
//! to [`irf_spice::visit_cards`], so SPICE bytes become a grid with no
//! source text and no netlist in memory.
//!
//! Errors surface in stream order: the first bad card — malformed,
//! a duplicate name, or electrically invalid like `R <= 0` — stops the
//! ingest, and design-wide checks (ungrounded sources, no pads) come
//! after the last card.
//!
//! # Node order
//!
//! Grid node indices are assigned in *element-type-major* order: first
//! appearance while walking all resistors, then all current sources,
//! then all voltage sources. **R cards** are therefore absorbed
//! immediately (names intern into the node table as they first appear,
//! segments are pushed in card order), while **I and V cards** are
//! buffered compactly (a resolved node index when the name is already
//! interned, the bare name otherwise — never the element name of an
//! `I` card) and replayed when the stream ends, which is when any
//! still-unseen name of theirs is interned. Whatever order the cards
//! arrive in, the grid is the same; tests pin that on sources whose
//! `V` and `I` cards come first.

use crate::error::ModelError;
use crate::grid::{Load, Pad, PgNode, PowerGrid, Segment};
use irf_spice::error::{ParseError, ParseErrorKind};
use irf_spice::{StreamError, StreamedCard, StreamedCardKind};
use std::fs::File;
use std::hash::{BuildHasher, RandomState};
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// Read-buffer capacity for [`grid_from_spice_path`].
const FILE_BUF_BYTES: usize = 1 << 20;

/// Error from a streaming grid ingest: the reader failed, the SPICE
/// text was malformed, or the design is electrically invalid.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying reader failed (including non-UTF-8 bytes).
    Io(io::Error),
    /// The SPICE text failed to parse.
    Parse(ParseError),
    /// The parsed design violates a grid invariant (non-positive
    /// resistance, ungrounded source, no pads).
    Model(ModelError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "i/o error while reading netlist: {e}"),
            IngestError::Parse(e) => write!(f, "{e}"),
            IngestError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::Parse(e) => Some(e),
            IngestError::Model(e) => Some(e),
        }
    }
}

impl From<StreamError> for IngestError {
    fn from(e: StreamError) -> Self {
        match e {
            StreamError::Io(e) => IngestError::Io(e),
            StreamError::Parse(e) => IngestError::Parse(e),
        }
    }
}

impl From<ModelError> for IngestError {
    fn from(e: ModelError) -> Self {
        IngestError::Model(e)
    }
}

/// The `(layer, x, y)` a node name encodes under the ICCAD-2023
/// convention `n<net>_m<layer>_<x>_<y>`, or `None` for any other name.
fn place(name: &str) -> Option<(u32, i64, i64)> {
    // Expect: n<net> _ m<layer> _ <x> _ <y>
    let mut parts = name.split('_');
    let (_net, layer, x, y) = (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() {
        return None;
    }
    let layer = layer.strip_prefix(['m', 'M'])?.parse::<u32>().ok()?;
    Some((layer, x.parse::<i64>().ok()?, y.parse::<i64>().ok()?))
}

/// A buffered reference to a grid node: resolved to its final index
/// when the name was already interned at buffering time, otherwise
/// the bare name, interned at replay. Indices never change once
/// assigned, so early resolution is always safe.
#[derive(Debug)]
enum NodeRef {
    Resolved(usize),
    Named(String),
}

/// The builder's name → node-index table: linear probing over
/// `(hash, index)` slots. It owns no names — a probe compares against
/// `nodes[index].name`, the one copy of every name the builder keeps.
///
/// The hash is keyed per builder (`RandomState`, SipHash): `/v1/predict`
/// ingests netlists whose node names the sender chooses, and against a
/// fixed-seed hash they can be chosen to share one probe chain. A
/// fixed-seed FNV-1a index measured faster (the builder's share of an
/// ingest 4.4 → 3.9 ms at 24 k nodes, 21 → 17 ms at 70 k;
/// EXPERIMENTS.md, "What turning SPICE text into a grid costs") and is
/// rejected for that reason.
#[derive(Debug, Default)]
struct NameIndex {
    key: RandomState,
    /// `(low half of the name's hash, node index)`; [`NameIndex::FREE`]
    /// as the index marks a free slot. Empty until the first insert,
    /// then a power of two and at least twice the node count.
    slots: Vec<(u32, u32)>,
}

impl NameIndex {
    const FREE: u32 = u32::MAX;

    /// The table doubles before it is more than half full, where linear
    /// probing looks at ~1.5 slots for a name it has and ~2.5 for a new
    /// one. Fuller tables (3/4, 7/8) ingested no faster or slower than
    /// the run-to-run spread at 24 k, 70 k and 300 k nodes
    /// (EXPERIMENTS.md); all they buy is at most 8 bytes a node.
    const MAX_LOAD_INVERSE: usize = 2;

    fn hash(&self, name: &str) -> u32 {
        // The low half is as well mixed as the whole.
        self.key.hash_one(name) as u32
    }

    fn get(&self, hash: u32, name: &str, nodes: &[PgNode]) -> Option<usize> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut at = hash as usize & mask;
        loop {
            let (slot_hash, index) = self.slots[at];
            if index == Self::FREE {
                return None;
            }
            if slot_hash == hash && nodes[index as usize].name == name {
                return Some(index as usize);
            }
            at = (at + 1) & mask;
        }
    }

    /// Records that the name hashing to `hash`, which `get` did not
    /// find, is node `index` — the count of names recorded so far.
    fn insert_new(&mut self, hash: u32, index: usize) {
        if (index + 1) * Self::MAX_LOAD_INVERSE > self.slots.len() {
            let mut grown = vec![(0, Self::FREE); (self.slots.len() * 2).max(16)];
            for &(hash, index) in self.slots.iter().filter(|slot| slot.1 != Self::FREE) {
                Self::place(&mut grown, hash, index);
            }
            self.slots = grown;
        }
        assert!(index < Self::FREE as usize, "node count fits the index");
        Self::place(&mut self.slots, hash, index as u32);
    }

    fn place(slots: &mut [(u32, u32)], hash: u32, index: u32) {
        let mask = slots.len() - 1;
        let mut at = hash as usize & mask;
        while slots[at].1 != Self::FREE {
            at = (at + 1) & mask;
        }
        slots[at] = (hash, index);
    }
}

/// The grid under construction; see the [module docs](self).
#[derive(Debug, Default)]
struct Accumulator {
    /// The node table while it can still grow; [`Accumulator::finish`]
    /// freezes it into the grid's shared table.
    nodes: Vec<PgNode>,
    segments: Vec<Segment>,
    index: NameIndex,
    /// Buffered I cards: `(chosen node, signed amps)`.
    loads: Vec<(NodeRef, f64)>,
    /// Buffered V cards: `(element name, minus-is-ground, plus,
    /// volts)`.
    pads: Vec<(String, bool, NodeRef, f64)>,
}

impl Accumulator {
    /// Interns `name` into the grid's node table (first-appearance
    /// order), or returns `None` for ground.
    fn node_index(&mut self, name: &str) -> Option<usize> {
        if name == "0" {
            return None;
        }
        let hash = self.index.hash(name);
        if let Some(idx) = self.index.get(hash, name, &self.nodes) {
            return Some(idx);
        }
        let (layer, x, y) = place(name).unwrap_or((1, 0, 0));
        let idx = self.nodes.len();
        self.nodes.push(PgNode {
            name: name.to_string(),
            layer,
            x,
            y,
            is_pad: false,
        });
        self.index.insert_new(hash, idx);
        Some(idx)
    }

    /// A deferred reference: resolved now when possible, by name
    /// otherwise.
    fn node_ref(&self, name: &str) -> NodeRef {
        match self.index.get(self.index.hash(name), name, &self.nodes) {
            Some(idx) => NodeRef::Resolved(idx),
            None => NodeRef::Named(name.to_string()),
        }
    }

    fn resolve(&mut self, r: NodeRef) -> Option<usize> {
        match r {
            NodeRef::Resolved(idx) => Some(idx),
            NodeRef::Named(name) => self.node_index(&name),
        }
    }

    fn resistor(&mut self, name: &str, a: &str, b: &str, ohms: f64) -> Result<(), ModelError> {
        // Finite and positive: the solver's SPD matrix and the
        // shortest-path passes' termination both rest on this check.
        if !(ohms > 0.0 && ohms.is_finite()) {
            return Err(ModelError::NonPositiveResistance {
                name: name.to_string(),
                ohms,
            });
        }
        let a = self.node_index(a);
        let b = self.node_index(b);
        if let (Some(a), Some(b)) = (a, b) {
            if a != b {
                self.segments.push(Segment { a, b, ohms });
            }
        }
        Ok(())
    }

    fn current_source(&mut self, from: &str, to: &str, amps: f64) {
        // A load draws current from the grid node toward ground; the
        // reversed orientation injects.
        let (node, sign) = if to == "0" {
            (from, 1.0)
        } else if from == "0" {
            (to, -1.0)
        } else {
            (from, 1.0)
        };
        if node != "0" {
            let r = self.node_ref(node);
            self.loads.push((r, sign * amps));
        }
    }

    fn voltage_source(&mut self, name: &str, plus: &str, minus: &str, volts: f64) {
        self.pads
            .push((name.to_string(), minus == "0", self.node_ref(plus), volts));
    }

    fn absorb(&mut self, card: &StreamedCard<'_>) -> Result<(), ModelError> {
        // An infinite load or pad voltage would flow through the solve
        // as a NaN/inf drop map, so sources must be finite.
        if card.kind != StreamedCardKind::Resistor && !card.value.is_finite() {
            return Err(ModelError::NonFiniteSource {
                name: card.name.to_string(),
                value: card.value,
            });
        }
        match card.kind {
            StreamedCardKind::Resistor => {
                self.resistor(card.name, card.a, card.b, card.value)?;
            }
            StreamedCardKind::CurrentSource => self.current_source(card.a, card.b, card.value),
            StreamedCardKind::VoltageSource => {
                self.voltage_source(card.name, card.a, card.b, card.value);
            }
        }
        Ok(())
    }

    /// The grid, and the slot count the name index grew to.
    fn finish(mut self) -> Result<(PowerGrid, usize), ModelError> {
        let mut loads = Vec::with_capacity(self.loads.len());
        for (r, amps) in std::mem::take(&mut self.loads) {
            if let Some(node) = self.resolve(r) {
                loads.push(Load { node, amps });
            }
        }
        let mut pads = Vec::with_capacity(self.pads.len());
        for (name, minus_is_ground, plus, volts) in std::mem::take(&mut self.pads) {
            if !minus_is_ground {
                return Err(ModelError::UngroundedSource { name });
            }
            if let Some(node) = self.resolve(plus) {
                self.nodes[node].is_pad = true;
                pads.push(Pad { node, volts });
            }
        }
        if pads.is_empty() {
            return Err(ModelError::NoPads);
        }
        // Release the index before the node table is copied frozen.
        let index_slots = self.index.slots.len();
        drop(self.index);
        let grid = PowerGrid {
            nodes: self.nodes.into(),
            segments: self.segments,
            loads,
            pads,
        };
        Ok((grid, index_slots))
    }
}

/// Streams SPICE text from `reader` directly into a [`PowerGrid`],
/// never materializing the source or a netlist; see the
/// [module docs](self) for the rules and the node order.
///
/// # Errors
///
/// [`IngestError::Io`] / [`IngestError::Parse`] from the stream
/// (duplicate element names included), [`IngestError::Model`] for
/// electrically invalid designs:
///
/// - [`ModelError::NonPositiveResistance`] for `R` not finite and
///   positive;
/// - [`ModelError::NonFiniteSource`] for an `I` or `V` value that is
///   not finite;
/// - [`ModelError::UngroundedSource`] when a voltage source's
///   negative terminal is not ground;
/// - [`ModelError::NoPads`] when no voltage source exists.
pub fn grid_from_spice_reader<R: BufRead>(reader: R) -> Result<PowerGrid, IngestError> {
    use irf_spice::stream::{CARDS_PER_CHUNK, CHUNKS_PER_BATCH};
    grid_from_spice_reader_chunked(reader, CARDS_PER_CHUNK, CHUNKS_PER_BATCH)
}

/// [`grid_from_spice_reader`] with explicit chunk and batch sizes, so
/// tests can show the grid does not depend on them.
///
/// # Errors
///
/// See [`grid_from_spice_reader`].
#[doc(hidden)]
pub fn grid_from_spice_reader_chunked<R: BufRead>(
    reader: R,
    cards_per_chunk: usize,
    chunks_per_batch: usize,
) -> Result<PowerGrid, IngestError> {
    let mut span = irf_trace::span("grid_stream_ingest");
    let mut acc = Accumulator::default();
    let mut model_err: Option<ModelError> = None;
    let visit = |card: &StreamedCard<'_>| match acc.absorb(card) {
        Ok(()) => Ok(()),
        Err(e) => {
            // The visitor contract only carries `ParseError`; park the
            // model error and abort with a sentinel that is replaced
            // below.
            model_err = Some(e);
            Err(ParseError {
                line: card.line,
                kind: ParseErrorKind::InvalidValue(String::new()),
            })
        }
    };
    let result =
        irf_spice::stream::visit_cards_chunked(reader, cards_per_chunk, chunks_per_batch, visit);
    if let Some(e) = model_err {
        return Err(IngestError::Model(e));
    }
    result?;
    let (grid, index_slots) = acc.finish()?;
    if span.is_recording() {
        span.attr("index_slots", index_slots);
        span.attr("nodes", grid.nodes.len());
        span.attr("segments", grid.segments.len());
        span.attr("loads", grid.loads.len());
        span.attr("pads", grid.pads.len());
    }
    Ok(grid)
}

/// Opens `path` and streams it through [`grid_from_spice_reader`]
/// behind a large file buffer — the bounded-memory front door for
/// on-disk netlists.
///
/// # Errors
///
/// See [`grid_from_spice_reader`]; opening the file can also fail
/// with [`IngestError::Io`].
pub fn grid_from_spice_path(path: impl AsRef<Path>) -> Result<PowerGrid, IngestError> {
    let file = File::open(path).map_err(IngestError::Io)?;
    grid_from_spice_reader(BufReader::with_capacity(FILE_BUF_BYTES, file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::PgNode;
    use std::collections::HashMap;
    use std::io::Cursor;

    /// The grid built the plain way, sharing no code with
    /// `Accumulator`: collect every card, then intern the nodes of all
    /// `R` cards, then of all `I` cards, then of all `V` cards, in a
    /// `HashMap`. Valid designs only.
    fn reference(src: &str) -> PowerGrid {
        let mut cards = Vec::new();
        irf_spice::visit_cards(src.as_bytes(), |card| {
            let (a, b) = (card.a.to_string(), card.b.to_string());
            cards.push((card.kind, a, b, card.value));
            Ok(())
        })
        .expect("parses");
        let mut ids: HashMap<String, usize> = HashMap::new();
        let mut nodes: Vec<PgNode> = Vec::new();
        let mut intern = |name: &str| -> Option<usize> {
            if name == "0" {
                return None;
            }
            if let Some(&id) = ids.get(name) {
                return Some(id);
            }
            let fields: Vec<&str> = name.split('_').collect();
            let coordinates = match fields[..] {
                [_, layer, x, y] => match (
                    layer.strip_prefix(['m', 'M']).map(str::parse::<u32>),
                    x.parse::<i64>(),
                    y.parse::<i64>(),
                ) {
                    (Some(Ok(layer)), Ok(x), Ok(y)) => (layer, x, y),
                    _ => (1, 0, 0),
                },
                _ => (1, 0, 0),
            };
            let (layer, x, y) = coordinates;
            let name = name.to_string();
            nodes.push(PgNode {
                name: name.clone(),
                layer,
                x,
                y,
                is_pad: false,
            });
            ids.insert(name, nodes.len() - 1);
            Some(nodes.len() - 1)
        };
        let of_kind = |kind| cards.iter().filter(move |card| card.0 == kind);
        let mut segments = Vec::new();
        for (_, a, b, ohms) in of_kind(StreamedCardKind::Resistor) {
            if let (Some(a), Some(b)) = (intern(a), intern(b)) {
                if a != b {
                    segments.push(Segment { a, b, ohms: *ohms });
                }
            }
        }
        let mut loads = Vec::new();
        for (_, from, to, amps) in of_kind(StreamedCardKind::CurrentSource) {
            let (node, amps) = match (from.as_str(), to.as_str()) {
                (_, "0") => (from, *amps),
                ("0", _) => (to, -amps),
                _ => (from, *amps),
            };
            if let Some(node) = intern(node) {
                loads.push(Load { node, amps });
            }
        }
        let mut pads = Vec::new();
        for (_, plus, minus, volts) in of_kind(StreamedCardKind::VoltageSource) {
            assert_eq!(minus, "0", "the reference takes grounded sources only");
            if let Some(node) = intern(plus) {
                pads.push(Pad {
                    node,
                    volts: *volts,
                });
            }
        }
        for pad in &pads {
            nodes[pad.node].is_pad = true;
        }
        PowerGrid {
            nodes: nodes.into(),
            segments,
            loads,
            pads,
        }
    }

    fn streamed(src: &str) -> Result<PowerGrid, IngestError> {
        grid_from_spice_reader(Cursor::new(src))
    }

    /// The streamed grid equals the reference, and so does its system.
    fn matches_reference(src: &str) -> PowerGrid {
        let want = reference(src);
        let got = streamed(src).expect("valid");
        assert_eq!(want, got, "src={src:?}");
        assert_eq!(want.build_system(), got.build_system(), "src={src:?}");
        got
    }

    #[test]
    fn iccad_names_decode_coordinates() {
        assert_eq!(place("n1_m4_17500_208600"), Some((4, 17_500, 208_600)));
        assert_eq!(place("n1_M2_-5_7"), Some((2, -5, 7)));
    }

    #[test]
    fn foreign_names_have_no_coordinates() {
        for name in [
            "vdd_net",
            "n1_m4_1_2_3",
            "n1_x4_1_2",
            "n1_m4_1_y",
            "n1_m-1_0_0",
        ] {
            assert_eq!(place(name), None, "{name}");
        }
    }

    #[test]
    fn matches_the_reference_builder_on_valid_designs() {
        let cases = [
            // Standard mix with coordinates, comments, continuations.
            "* hdr\nR1 n1_m1_0_0 n1_m1_2000_0 0.5\nR2 n1_m4_0_0 n1_m1_0_0 0.1\n\
             I1 n1_m1_2000_0 0 1m\nV1 n1_m4_0_0\n+ 0 1.1\n.end\n",
            // Reversed + floating current sources, pad-to-pad segment.
            "V1 p 0 1.0\nV2 q 0 1.0\nR1 p q 1.0\nR2 p a 1.0\nI1 0 a 2m\nI2 a b 1m\n",
            // Load on a node no resistor touches; grounded resistor leg.
            "V1 p 0 1.0\nR1 p a 1.0\nR2 a 0 5.0\nI1 zz 0 3m\n",
            // Self-loop resistor dropped; parallel segments kept.
            "V1 p 0 1.0\nR1 p a 2.0\nR2 p a 2.0\nR3 a a 9.0\nI1 a 0 1m\n",
            // Current source where both terminals are grid nodes: only
            // `from` carries the load.
            "V1 p 0 1.0\nR1 p a 1.0\nR2 p b 1.0\nI1 a b 4m\n",
        ];
        for src in cases {
            matches_reference(src);
        }
        let grid = matches_reference(cases[0]);
        let names: Vec<&str> = grid.nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["n1_m1_0_0", "n1_m1_2000_0", "n1_m4_0_0"]);
        let places: Vec<_> = grid.nodes.iter().map(|n| (n.layer, n.x, n.y)).collect();
        assert_eq!(places, [(1, 0, 0), (1, 2000, 0), (4, 0, 0)]);
        assert_eq!(
            grid.loads,
            [Load {
                node: 1,
                amps: 1e-3
            }]
        );
        assert_eq!(
            grid.pads,
            [Pad {
                node: 2,
                volts: 1.1
            }]
        );
    }

    #[test]
    fn node_interning_is_type_major() {
        let cases = [
            // V1 names `late` before any resistor does, but nodes are
            // interned resistors first, whichever order the cards
            // came in.
            (
                "V1 late 0 1.0\nI1 early2 0 1m\nR1 late early 1.0\nR2 early early2 2.0\n",
                vec!["late", "early", "early2"],
            ),
            // `pad` (V1) and `lone` (I1) come before any resistor node,
            // and `lone` is on no resistor at all: a builder interning
            // cards in source order would put them first.
            (
                "V1 pad 0 1.0\nI1 lone 0 1m\nI2 b 0 2m\nR1 a b 1.0\nR2 b pad 0.5\n",
                vec!["a", "b", "pad", "lone"],
            ),
        ];
        for (src, order) in cases {
            let grid = matches_reference(src);
            let names: Vec<&str> = grid.nodes.iter().map(|n| n.name.as_str()).collect();
            assert_eq!(names, order, "src={src:?}");
        }
    }

    #[test]
    fn model_errors_match() {
        let name = |name: &str| name.to_string();
        let cases = [
            (
                "R1 a b 0\nV1 a 0 1.0\n",
                ModelError::NonPositiveResistance {
                    name: name("R1"),
                    ohms: 0.0,
                },
            ),
            (
                "R1 a b -2\nV1 a 0 1.0\n",
                ModelError::NonPositiveResistance {
                    name: name("R1"),
                    ohms: -2.0,
                },
            ),
            // `1e400` and `1e300t` (1e312) both parse to +inf.
            (
                "V1 a 0 1.0\nR1 a b 1.0\nR2 b c 1e400\nI1 c 0 1m\n",
                ModelError::NonPositiveResistance {
                    name: name("R2"),
                    ohms: f64::INFINITY,
                },
            ),
            (
                "V1 a 0 1.0\nR1 a b 1.0\nR2 b c 1e300t\nI1 c 0 1m\n",
                ModelError::NonPositiveResistance {
                    name: name("R2"),
                    ohms: f64::INFINITY,
                },
            ),
            (
                "R1 a b 1.0\nV1 a b 1.0\n",
                ModelError::UngroundedSource { name: name("V1") },
            ),
            ("R1 a b 1.0\nI1 a 0 1m\n", ModelError::NoPads),
            // Sources must be finite too: an infinite load or pad
            // voltage is named, not solved into an all-zero map.
            (
                "V1 n1_m1_0_0 0 1.0\nR1 n1_m1_0_0 n1_m1_2000_0 1.0\nI1 n1_m1_2000_0 0 1e400\n",
                ModelError::NonFiniteSource {
                    name: name("I1"),
                    value: f64::INFINITY,
                },
            ),
            (
                "V1 a 0 1.0\nR1 a b 1.0\nI7 0 b -1e400\n",
                ModelError::NonFiniteSource {
                    name: name("I7"),
                    value: f64::NEG_INFINITY,
                },
            ),
            (
                "V2 a 0 1e400\nR1 a b 1.0\nI1 b 0 1m\n",
                ModelError::NonFiniteSource {
                    name: name("V2"),
                    value: f64::INFINITY,
                },
            ),
            // A bad resistor stops the stream before a later bad card.
            (
                "V1 a 0 1.0\nR1 a b 0\nR2 b c zz\n",
                ModelError::NonPositiveResistance {
                    name: name("R1"),
                    ohms: 0.0,
                },
            ),
        ];
        for (src, want) in cases {
            match streamed(src) {
                Err(IngestError::Model(got)) => assert_eq!(want, got, "src={src:?}"),
                other => panic!("expected model error for {src:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_errors_surface_with_line_numbers() {
        match streamed("V1 p 0 1.0\nR1 p a zz\n") {
            Err(IngestError::Parse(e)) => assert_eq!(e.line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        // A duplicate element name is a parse error, whatever its case.
        match streamed("V1 p 0 1.0\nR1 p a 1\nI1 a 0 1m\nr1 a p 2\n") {
            Err(IngestError::Parse(e)) => {
                assert_eq!(e.line, 4);
                assert_eq!(e.kind, ParseErrorKind::DuplicateElement("r1".into()));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn non_utf8_input_is_an_io_error() {
        // Also when an earlier line of the same batch has a parse
        // error: the read fails before any card reaches the builder.
        for src in [
            &b"V1 p 0 1.0\nR1 p a 1.0\nI1 \xFF 0 1m\n"[..],
            &b"V1 p 0 zz\nR1 p a 1.0\nI1 \xFF 0 1m\n"[..],
        ] {
            match grid_from_spice_reader(src) {
                Err(IngestError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                other => panic!("expected an InvalidData i/o error, got {other:?}"),
            }
        }
    }

    /// A seeded ~40 000-node source whose names collide in every way
    /// but equality: `n7` / `n70` / `N7` (length, case), `n7a` / `n7b`
    /// (last byte), and a multi-byte tail.
    fn many_names_source() -> String {
        let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(0x2023);
        let mut below = |n: u64| rng.random_range(0..n);
        let name = |i: u64| match i % 5 {
            0 => format!("n{}", i / 5),
            1 => format!("N{}", i / 5),
            2 => format!("n{}a", i / 5),
            3 => format!("n{}b", i / 5),
            _ => format!("n{}é", i / 5),
        };
        let mut src = String::from("* many names\nV1 pad_only 0 1.0\nI1 load_only 0 1m\n");
        for i in 0..40_000u64 {
            // A chain through every name, so each is interned by a
            // resistor, plus a cross-link to a name seen before.
            src.push_str(&format!("R{i} {} {} 0.5\n", name(i), name(i + 1)));
            if i % 3 == 0 {
                src.push_str(&format!("Rx{i} {} {} 1.5\n", name(below(i + 1)), name(i)));
            }
            if i % 7 == 0 {
                src.push_str(&format!("I{i} {} 0 1m\n", name(below(i + 1))));
            }
            if i % 9_000 == 0 {
                src.push_str(&format!("V{i} {} 0 1.0\n", name(i)));
            }
            if i % 11 == 0 {
                src.push_str(&format!("Rg{i} {} 0 50\n", name(i))); // a leg to ground
            }
        }
        src
    }

    #[test]
    fn name_index_keeps_near_miss_names_apart_through_growth() {
        let src = many_names_source();
        let grid = matches_reference(&src);
        // 40 001 chain names + the two no resistor names: the 16-slot
        // index doubled thirteen times on the way.
        assert_eq!(grid.nodes.len(), 40_003);
        let mut names: Vec<&str> = grid.nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(&names[40_001..], ["load_only", "pad_only"]);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 40_003, "every node has its own name");
    }

    #[test]
    fn path_ingest_roundtrips() {
        let src = "V1 p 0 1.0\nR1 p a 1.0\nI1 a 0 1m\n";
        let path = std::env::temp_dir().join("irf_pg_stream_test.sp");
        std::fs::write(&path, src).expect("writes");
        let got = grid_from_spice_path(&path).expect("valid");
        let duplicate = format!("{src}i1 p 0 2m\n");
        std::fs::write(&path, duplicate).expect("writes");
        let rejected = grid_from_spice_path(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(got, streamed(src).expect("valid"));
        match rejected {
            Err(IngestError::Parse(e)) => {
                assert_eq!(e.line, 4);
                assert_eq!(e.kind, ParseErrorKind::DuplicateElement("i1".into()));
            }
            other => panic!("expected the duplicate to be refused, got {other:?}"),
        }
    }

    #[test]
    fn streamed_grid_solves_like_materialized() {
        let src = "\
V1 n1_m4_0_0 0 1.0
R1 n1_m4_0_0 n1_m1_0_0 0.2
R2 n1_m1_0_0 n1_m1_1000_0 0.4
R3 n1_m1_1000_0 n1_m1_2000_0 0.4
I1 n1_m1_1000_0 0 2m
I2 n1_m1_2000_0 0 1m
";
        let a = reference(src).build_system();
        let b = streamed(src).expect("valid").build_system();
        assert_eq!(a, b);
    }
}
