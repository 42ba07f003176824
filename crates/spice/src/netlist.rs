//! The parsed power-grid netlist.

use std::collections::HashMap;
use std::fmt;

/// Index of an interned circuit node.
///
/// `NodeId::GROUND` is the reference node `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The SPICE ground / reference node (`0`).
    pub const GROUND: NodeId = NodeId(0);

    /// `true` for the ground node.
    #[must_use]
    pub fn is_ground(self) -> bool {
        self == NodeId::GROUND
    }

    /// Index into [`Netlist::nodes`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// Structured information about one interned node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInfo {
    /// Original name from the netlist.
    pub name: String,
    /// Metal layer parsed from the `_m<layer>_` convention, if present.
    pub layer: Option<u32>,
    /// X coordinate in database units, if encoded in the name.
    pub x: Option<i64>,
    /// Y coordinate in database units, if encoded in the name.
    pub y: Option<i64>,
}

impl NodeInfo {
    /// Parses the ICCAD-2023 naming convention `n<net>_m<layer>_<x>_<y>`.
    /// Unrecognized names produce a `NodeInfo` with no coordinates.
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        let place = Self::place(name);
        NodeInfo {
            name: name.to_string(),
            layer: place.map(|(layer, _, _)| layer),
            x: place.map(|(_, x, _)| x),
            y: place.map(|(_, _, y)| y),
        }
    }

    /// The `(layer, x, y)` a name encodes under the convention of
    /// [`NodeInfo::from_name`], or `None` for any other name.
    #[must_use]
    pub fn place(name: &str) -> Option<(u32, i64, i64)> {
        // Expect: n<net> _ m<layer> _ <x> _ <y>
        let mut parts = name.split('_');
        let (_net, layer, x, y) = (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
        if parts.next().is_some() {
            return None;
        }
        let layer = layer.strip_prefix(['m', 'M'])?.parse::<u32>().ok()?;
        Some((layer, x.parse::<i64>().ok()?, y.parse::<i64>().ok()?))
    }
}

/// A resistor element (metal segment or via).
#[derive(Debug, Clone, PartialEq)]
pub struct Resistor {
    /// Element name (e.g. `R12`).
    pub name: String,
    /// First terminal.
    pub a: NodeId,
    /// Second terminal.
    pub b: NodeId,
    /// Resistance in ohms.
    pub ohms: f64,
}

/// A DC current source (cell load). Current flows from `from` to `to`
/// through the source, i.e. a load drawing current out of the grid has
/// `from` on the grid and `to` on ground.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentSource {
    /// Element name (e.g. `I3`).
    pub name: String,
    /// Source terminal on the grid.
    pub from: NodeId,
    /// Sink terminal (usually ground).
    pub to: NodeId,
    /// Current in amperes.
    pub amps: f64,
}

/// A DC voltage source (power pad).
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageSource {
    /// Element name (e.g. `V1`).
    pub name: String,
    /// Positive terminal (the pad node).
    pub plus: NodeId,
    /// Negative terminal (usually ground).
    pub minus: NodeId,
    /// Voltage in volts.
    pub volts: f64,
}

/// A parsed power-grid netlist.
///
/// Node names are interned; `NodeId(0)` is always ground.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    nodes: Vec<NodeInfo>,
    by_name: HashMap<String, NodeId>,
    resistors: Vec<Resistor>,
    current_sources: Vec<CurrentSource>,
    voltage_sources: Vec<VoltageSource>,
}

impl Netlist {
    /// Creates an empty netlist containing only the ground node.
    #[must_use]
    pub fn new() -> Self {
        let mut n = Netlist {
            nodes: Vec::new(),
            by_name: HashMap::new(),
            resistors: Vec::new(),
            current_sources: Vec::new(),
            voltage_sources: Vec::new(),
        };
        let gid = n.intern("0");
        debug_assert_eq!(gid, NodeId::GROUND);
        n
    }

    /// Interns a node name, returning its id (creating it on first use).
    pub fn intern(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node count fits u32"));
        self.nodes.push(NodeInfo::from_name(name));
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing node by name.
    #[must_use]
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Information for a node id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this netlist.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &NodeInfo {
        &self.nodes[id.index()]
    }

    /// All nodes, indexable by [`NodeId::index`]. Index 0 is ground.
    #[must_use]
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// Number of nodes including ground.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Resistor elements.
    #[must_use]
    pub fn resistors(&self) -> &[Resistor] {
        &self.resistors
    }

    /// Current-source elements.
    #[must_use]
    pub fn current_sources(&self) -> &[CurrentSource] {
        &self.current_sources
    }

    /// Voltage-source elements.
    #[must_use]
    pub fn voltage_sources(&self) -> &[VoltageSource] {
        &self.voltage_sources
    }

    /// Adds a resistor.
    pub fn add_resistor(&mut self, r: Resistor) {
        self.resistors.push(r);
    }

    /// Adds a current source.
    pub fn add_current_source(&mut self, i: CurrentSource) {
        self.current_sources.push(i);
    }

    /// Adds a voltage source.
    pub fn add_voltage_source(&mut self, v: VoltageSource) {
        self.voltage_sources.push(v);
    }

    /// The set of metal layers present, ascending.
    #[must_use]
    pub fn layers(&self) -> Vec<u32> {
        let mut layers: Vec<u32> = self.nodes.iter().filter_map(|n| n.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        layers
    }

    /// Bounding box `(x_min, y_min, x_max, y_max)` over nodes with
    /// coordinates; `None` when no node has coordinates.
    #[must_use]
    pub fn bounding_box(&self) -> Option<(i64, i64, i64, i64)> {
        let mut bb: Option<(i64, i64, i64, i64)> = None;
        for n in &self.nodes {
            if let (Some(x), Some(y)) = (n.x, n.y) {
                bb = Some(match bb {
                    None => (x, y, x, y),
                    Some((x0, y0, x1, y1)) => (x0.min(x), y0.min(y), x1.max(x), y1.max(y)),
                });
            }
        }
        bb
    }

    /// Total load current drawn by all current sources (amperes).
    #[must_use]
    pub fn total_load_current(&self) -> f64 {
        self.current_sources.iter().map(|i| i.amps).sum()
    }

    /// Stable content fingerprint of the whole design (FNV-1a 64).
    ///
    /// Hashes every node (name and interned order) and every element
    /// with its exact parameter bits, so any electrical or naming
    /// change yields a different value, while re-parsing the same
    /// source — in this or any other process — always reproduces it.
    /// This is the root fingerprint the stage-graph pipeline derives
    /// its per-stage cache keys from.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::hash::Fnv1a::new();
        h.write_u64(self.nodes.len() as u64);
        for n in &self.nodes {
            h.write(n.name.as_bytes());
            h.write(&[0]);
        }
        h.write_u64(self.resistors.len() as u64);
        for r in &self.resistors {
            h.write(r.name.as_bytes());
            h.write(&[0]);
            h.write_u64(u64::from(r.a.0));
            h.write_u64(u64::from(r.b.0));
            h.write_f64(r.ohms);
        }
        h.write_u64(self.current_sources.len() as u64);
        for i in &self.current_sources {
            h.write(i.name.as_bytes());
            h.write(&[0]);
            h.write_u64(u64::from(i.from.0));
            h.write_u64(u64::from(i.to.0));
            h.write_f64(i.amps);
        }
        h.write_u64(self.voltage_sources.len() as u64);
        for v in &self.voltage_sources {
            h.write(v.name.as_bytes());
            h.write(&[0]);
            h.write_u64(u64::from(v.plus.0));
            h.write_u64(u64::from(v.minus.0));
            h.write_f64(v.volts);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_tracks_electrical_edits() {
        let src = "V1 p 0 1.0\nR1 p a 1.0\nI1 a 0 1m\n";
        let base = crate::parse(src).unwrap().content_hash();
        // Re-parsing the same source reproduces the hash exactly.
        assert_eq!(base, crate::parse(src).unwrap().content_hash());
        // A current-only edit changes it...
        let edited = crate::parse("V1 p 0 1.0\nR1 p a 1.0\nI1 a 0 2m\n")
            .unwrap()
            .content_hash();
        assert_ne!(base, edited);
        // ...and so does a topology edit.
        let rewired = crate::parse("V1 p 0 1.0\nR1 p a 0.5\nI1 a 0 1m\n")
            .unwrap()
            .content_hash();
        assert_ne!(base, rewired);
    }

    #[test]
    fn ground_is_node_zero() {
        let n = Netlist::new();
        assert_eq!(n.node_id("0"), Some(NodeId::GROUND));
        assert!(NodeId::GROUND.is_ground());
    }

    #[test]
    fn interning_is_idempotent() {
        let mut n = Netlist::new();
        let a = n.intern("n1_m1_100_200");
        let b = n.intern("n1_m1_100_200");
        assert_eq!(a, b);
        assert_eq!(n.node_count(), 2);
    }

    #[test]
    fn iccad_names_decode_coordinates() {
        let info = NodeInfo::from_name("n1_m4_17500_208600");
        assert_eq!(info.layer, Some(4));
        assert_eq!(info.x, Some(17_500));
        assert_eq!(info.y, Some(208_600));
    }

    #[test]
    fn foreign_names_have_no_coordinates() {
        let info = NodeInfo::from_name("vdd_net");
        assert_eq!(info.layer, None);
        assert_eq!(info.x, None);
    }

    #[test]
    fn layers_and_bbox() {
        let mut n = Netlist::new();
        n.intern("n1_m1_0_0");
        n.intern("n1_m4_1000_2000");
        assert_eq!(n.layers(), vec![1, 4]);
        assert_eq!(n.bounding_box(), Some((0, 0, 1000, 2000)));
    }

    #[test]
    fn total_load_sums_currents() {
        let mut n = Netlist::new();
        let a = n.intern("n1_m1_0_0");
        n.add_current_source(CurrentSource {
            name: "I1".into(),
            from: a,
            to: NodeId::GROUND,
            amps: 0.5,
        });
        n.add_current_source(CurrentSource {
            name: "I2".into(),
            from: a,
            to: NodeId::GROUND,
            amps: 0.25,
        });
        assert_eq!(n.total_load_current(), 0.75);
    }
}
