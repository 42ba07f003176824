//! The grid builder: SPICE cards → [`PowerGrid`].
//!
//! `Accumulator` is the one place that knows how a netlist becomes a
//! grid — ground is node `0` and never a grid node, `R <= 0` is an
//! error, a resistor leg to ground or onto itself is dropped, which
//! terminal of an `I` card carries the load and with what sign, pads
//! come from `V` cards whose minus terminal is ground, and a grid with
//! no pad is rejected. It has two front doors:
//!
//! * [`grid_from_spice_reader`] / [`grid_from_spice_path`] subscribe it
//!   to the card-visitor stream ([`irf_spice::visit_cards`]), so a file
//!   becomes a grid with no source text and no
//!   [`Netlist`] in memory — at million-node scale
//!   those two exist only to be thrown away.
//! * [`PowerGrid::from_netlist`] replays an already parsed netlist
//!   through it.
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
//!
//! # What the card stream does not check
//!
//! Two documented differences from `parse` + `from_netlist`, on
//! *invalid* input only:
//!
//! * duplicate element names are not detected (that check needs
//!   whole-file state the visitor stream deliberately does not keep —
//!   parse the netlist with [`irf_spice::parse_reader`] when it
//!   matters);
//! * errors surface in stream order, so a model error (say `R <= 0`
//!   on line 3) can win over a parse error later in the file, where
//!   parsing the whole netlist first would report the parse error.
//!   Valid designs are unaffected.

use crate::error::ModelError;
use crate::grid::{Load, Pad, PgNode, PowerGrid, Segment};
use irf_spice::error::{ParseError, ParseErrorKind};
use irf_spice::{Netlist, NodeId, NodeInfo, StreamError, StreamedCard, StreamedCardKind};
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
        let (layer, x, y) = NodeInfo::place(name).unwrap_or((1, 0, 0));
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

impl PowerGrid {
    /// Builds the model from a parsed netlist, by replaying its
    /// elements through the grid builder: all resistors, then all
    /// current sources, then all voltage sources. The grid equals the
    /// one [`grid_from_spice_reader`] builds from the same SPICE text.
    ///
    /// # Errors
    ///
    /// - [`ModelError::NonPositiveResistance`] for `R` not finite and
    ///   positive;
    /// - [`ModelError::NoPads`] when no voltage source exists;
    /// - [`ModelError::UngroundedSource`] when a voltage source's
    ///   negative terminal is not ground.
    pub fn from_netlist(netlist: &Netlist) -> Result<Self, ModelError> {
        let name = |id: NodeId| netlist.node(id).name.as_str();
        let mut acc = Accumulator::default();
        for r in netlist.resistors() {
            acc.resistor(&r.name, name(r.a), name(r.b), r.ohms)?;
        }
        for i in netlist.current_sources() {
            acc.current_source(name(i.from), name(i.to), i.amps);
        }
        for v in netlist.voltage_sources() {
            acc.voltage_source(&v.name, name(v.plus), name(v.minus), v.volts);
        }
        acc.finish().map(|(grid, _)| grid)
    }
}

/// Streams SPICE text from `reader` directly into a [`PowerGrid`],
/// never materializing the source or a netlist. The grid is **equal**
/// to `PowerGrid::from_netlist(&irf_spice::parse(&text)?)` on the same
/// bytes; see the [module docs](self) for the two invalid-input
/// caveats.
///
/// # Errors
///
/// [`IngestError::Io`] / [`IngestError::Parse`] from the stream,
/// [`IngestError::Model`] for electrically invalid designs.
pub fn grid_from_spice_reader<R: BufRead>(reader: R) -> Result<PowerGrid, IngestError> {
    let mut span = irf_trace::span("grid_stream_ingest");
    let mut acc = Accumulator::default();
    let mut model_err: Option<ModelError> = None;
    let result = irf_spice::visit_cards(reader, |card| match acc.absorb(card) {
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
    });
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
    use irf_spice::parse;
    use std::io::Cursor;

    fn materialized(src: &str) -> Result<PowerGrid, ModelError> {
        PowerGrid::from_netlist(&parse(src).expect("parses"))
    }

    fn streamed(src: &str) -> Result<PowerGrid, IngestError> {
        grid_from_spice_reader(Cursor::new(src))
    }

    #[test]
    fn matches_from_netlist_on_valid_designs() {
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
            let want = materialized(src).expect("valid");
            let got = streamed(src).expect("valid");
            assert_eq!(want, got, "src={src:?}");
            assert_eq!(want.build_system(), got.build_system(), "src={src:?}");
        }
    }

    #[test]
    fn node_interning_is_type_major_like_from_netlist() {
        let cases = [
            // V1 names `late` before any resistor does, but nodes are
            // interned resistors first, whichever door the cards came
            // by.
            (
                "V1 late 0 1.0\nI1 early2 0 1m\nR1 late early 1.0\nR2 early early2 2.0\n",
                vec!["late", "early", "early2"],
            ),
            // The netlist interned `pad` (V1) and `lone` (I1) before
            // any resistor node, and `lone` is on no resistor at all:
            // an adapter walking the netlist's nodes, or its cards in
            // source order, would put them first.
            (
                "V1 pad 0 1.0\nI1 lone 0 1m\nI2 b 0 2m\nR1 a b 1.0\nR2 b pad 0.5\n",
                vec!["a", "b", "pad", "lone"],
            ),
        ];
        for (src, order) in cases {
            let want = materialized(src).expect("valid");
            let got = streamed(src).expect("valid");
            assert_eq!(want, got, "src={src:?}");
            assert_eq!(want.build_system(), got.build_system(), "src={src:?}");
            let names: Vec<&str> = want.nodes.iter().map(|n| n.name.as_str()).collect();
            assert_eq!(names, order, "src={src:?}");
        }
    }

    #[test]
    fn model_errors_match() {
        let cases = [
            "R1 a b 0\nV1 a 0 1.0\n",  // non-positive resistance
            "R1 a b -2\nV1 a 0 1.0\n", // negative resistance
            // `1e400` and `1e300t` (1e312) both parse to +inf.
            "V1 a 0 1.0\nR1 a b 1.0\nR2 b c 1e400\nI1 c 0 1m\n",
            "V1 a 0 1.0\nR1 a b 1.0\nR2 b c 1e300t\nI1 c 0 1m\n",
            "R1 a b 1.0\nV1 a b 1.0\n", // ungrounded source
            "R1 a b 1.0\nI1 a 0 1m\n",  // no pads
        ];
        for src in cases {
            let want = materialized(src).expect_err("invalid");
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
        let want = materialized(&src).expect("valid");
        let got = streamed(&src).expect("valid");
        // 40 001 chain names + the two no resistor names: the 16-slot
        // index doubled thirteen times on the way.
        assert_eq!(want.nodes.len(), 40_003);
        let mut names: Vec<&str> = want.nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(&names[40_001..], ["load_only", "pad_only"]);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 40_003, "every node has its own name");
        assert_eq!(want, got);
        assert_eq!(want.build_system(), got.build_system());
    }

    #[test]
    fn path_ingest_roundtrips() {
        let src = "V1 p 0 1.0\nR1 p a 1.0\nI1 a 0 1m\n";
        let path = std::env::temp_dir().join("irf_pg_stream_test.sp");
        std::fs::write(&path, src).expect("writes");
        let got = grid_from_spice_path(&path).expect("valid");
        std::fs::remove_file(&path).ok();
        assert_eq!(got, materialized(src).expect("valid"));
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
        let a = materialized(src).expect("valid").build_system();
        let b = streamed(src).expect("valid").build_system();
        assert_eq!(a, b);
    }
}
