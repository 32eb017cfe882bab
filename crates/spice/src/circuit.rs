//! Netlist construction.

use std::collections::HashMap;

use crate::device::{
    Device, DeviceId, EvalBatch, Lane, LaneInput, LaneStamp, LoadContext, Solution,
};
use crate::element::{Element, ElementId, NodeId, SourceRef};
use crate::waveform::Waveform;
use crate::{Result, SpiceError};

/// Lanes per evaluation chunk of a [`BatchPlan`].
pub(crate) const CHUNK: usize = 256;

/// Partition of a circuit's devices into homogeneous evaluation batches,
/// computed once at layout freeze from [`Device::batch_key`], and of each
/// batch into chunks of at most [`CHUNK`] lanes — the unit an assembly
/// gathers, evaluates (on either thread, see [`crate::par`]) and stamps.
///
/// Every batched device's [`Lane`] is compiled into the plan: its chunk's
/// gather columns (unknown indices or constants) and its stamps, stored
/// flat in global lane order. Only the contact bits change afterwards,
/// when a commit reports a discrete change ([`Circuit::commit_devices`]).
///
/// Batches are ordered by first appearance of their key, lanes within a
/// batch follow ascending device index, and chunks cut each batch in lane
/// order, so the layout — and with it the gather/eval order — is a
/// deterministic function of the netlist. A circuit without batchable
/// devices has a plan with no chunks.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchPlan {
    /// Every batch's chunks, batch by batch.
    pub chunks: Vec<Chunk>,
    /// For each device index: its global lane, or [`BatchPlan::NO_LANE`]
    /// for devices that load through [`Device::load`].
    pub device_lane: Vec<u32>,
    /// For each global lane: its chunk.
    pub lane_chunk: Vec<u32>,
    /// Batched lanes in all chunks.
    pub lanes: usize,
    /// Every lane's stamps, lane after lane in global lane order.
    pub stamps: Vec<LaneStamp>,
    /// Lane `g` owns `stamps[stamp_start[g]..stamp_start[g + 1]]`.
    pub stamp_start: Vec<u32>,
    /// Each lane's contact bit (`false` for lanes without one).
    pub closed: Vec<bool>,
}

impl BatchPlan {
    /// [`BatchPlan::device_lane`] of an unbatched device.
    pub const NO_LANE: u32 = u32::MAX;

    /// Appends one chunk: `lanes` are the lanes of the devices `piece`
    /// of the batch whose first member is `rep`, all of one shape.
    fn push_chunk(&mut self, rep: usize, piece: &[usize], lanes: &[Lane]) {
        let first_lane = self.lanes;
        let chunk = u32::try_from(self.chunks.len()).expect("chunk count fits u32");
        for (&i, lane) in piece.iter().zip(lanes) {
            let g = self.lane_chunk.len();
            self.device_lane[i] = u32::try_from(g).expect("lane count fits u32");
            self.lane_chunk.push(chunk);
            self.stamps.extend_from_slice(&lane.stamps);
            let end = u32::try_from(self.stamps.len()).expect("lane stamps fit u32");
            self.stamp_start.push(end);
            self.closed.push(lane.contact.unwrap_or(false));
        }
        let inputs = (0..lanes[0].inputs.len())
            .map(|k| match lanes[0].inputs[k] {
                LaneInput::Voltage(_) => ChunkInput::Rows(
                    lanes
                        .iter()
                        .map(|lane| match lane.inputs[k] {
                            LaneInput::Voltage(n) if !n.is_ground() => {
                                u32::try_from(n.index() - 1).expect("node index fits u32")
                            }
                            _ => GROUND_ROW,
                        })
                        .collect(),
                ),
                LaneInput::Constant(_) => ChunkInput::Constants(
                    lanes
                        .iter()
                        .map(|lane| match lane.inputs[k] {
                            LaneInput::Constant(v) => v,
                            LaneInput::Voltage(_) => unreachable!("one shape per batch"),
                        })
                        .collect(),
                ),
            })
            .collect();
        let sources = lanes
            .iter()
            .flat_map(|lane| &lane.stamps)
            .fold(0u16, |m, s| m | 1 << (s.src & LaneStamp::COLUMN));
        self.lanes += lanes.len();
        self.chunks.push(Chunk {
            rep,
            first_lane,
            len: lanes.len(),
            inputs,
            contact: lanes[0].contact.is_some(),
            sources,
        });
    }

    /// The chunk of global lane `g`, and the lane's index in it.
    #[inline]
    pub fn chunk_lane(&self, g: usize) -> (usize, usize) {
        let c = self.lane_chunk[g] as usize;
        (c, g - self.chunks[c].first_lane)
    }

    /// The stamps of global lane `g`.
    #[inline]
    pub fn lane_stamps(&self, g: usize) -> &[LaneStamp] {
        &self.stamps[self.stamp_start[g] as usize..self.stamp_start[g + 1] as usize]
    }

    /// Re-reads device `i`'s contact bit after a commit changed its
    /// discrete state (or a reset). A no-op for unbatched devices and
    /// before the plan is built.
    fn refresh(&mut self, i: usize, dev: &dyn Device) {
        if let Some(&g) = self.device_lane.get(i).filter(|&&g| g != Self::NO_LANE) {
            self.closed[g as usize] = dev.lane().and_then(|lane| lane.contact).unwrap_or(false);
        }
    }
}

/// Gather row of a ground terminal: out of range of every unknown
/// vector, so the gathered voltage reads `0.0`.
const GROUND_ROW: u32 = u32::MAX;

/// Up to [`CHUNK`] consecutive lanes of one batch.
#[derive(Debug, Clone)]
pub(crate) struct Chunk {
    /// The batch's first member, which evaluates every chunk of it.
    pub rep: usize,
    /// Global lane index of the chunk's first lane.
    pub first_lane: usize,
    /// Number of lanes.
    pub len: usize,
    /// What each input column is gathered from, lane by lane.
    pub inputs: Vec<ChunkInput>,
    /// Whether the lanes carry a contact bit.
    pub contact: bool,
    /// Bit `k` set when some stamp reads batch column `k` (inputs
    /// `0..LANE_COLUMNS`, then outputs).
    pub sources: u16,
}

/// The source of one input column of a chunk.
#[derive(Debug, Clone)]
pub(crate) enum ChunkInput {
    /// Per lane, the unknown whose candidate value is gathered
    /// ([`GROUND_ROW`] for ground).
    Rows(Vec<u32>),
    /// Per lane, a constant.
    Constants(Vec<f64>),
}

impl Chunk {
    /// Fills `batch`'s input and contact columns for candidate `x` from
    /// node indices and constants, with no call into the devices.
    pub fn gather(&self, x: &[f64], closed: &[bool], batch: &mut EvalBatch) {
        batch.clear();
        for (col, input) in batch.vin.iter_mut().zip(&self.inputs) {
            match input {
                ChunkInput::Rows(rows) => col.extend(
                    rows.iter()
                        .map(|&r| x.get(r as usize).copied().unwrap_or(0.0)),
                ),
                ChunkInput::Constants(values) => col.extend_from_slice(values),
            }
        }
        if self.contact {
            batch
                .bin
                .extend_from_slice(&closed[self.first_lane..self.first_lane + self.len]);
        }
        // Reserve the output columns here so that `batch_eval` never
        // allocates, whichever thread runs it.
        for col in &mut batch.out {
            col.reserve(self.len);
        }
    }
}

/// A circuit netlist: named nodes, linear elements, and nonlinear devices.
///
/// # Example
///
/// ```
/// use nemscmos_spice::circuit::Circuit;
/// use nemscmos_spice::waveform::Waveform;
///
/// let mut ckt = Circuit::new();
/// let vdd = ckt.node("vdd");
/// let out = ckt.node("out");
/// ckt.vsource(vdd, Circuit::GROUND, Waveform::dc(1.2));
/// ckt.resistor(vdd, out, 10e3);
/// ckt.resistor(out, Circuit::GROUND, 10e3);
/// assert_eq!(ckt.num_nodes(), 3); // ground + 2
/// ```
#[derive(Debug, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    nodes_by_name: HashMap<String, NodeId>,
    elements: Vec<Element>,
    devices: Vec<Box<dyn Device>>,
    num_branches: usize,
    internal_unknowns: usize,
    layout_final: bool,
    batch_plan: BatchPlan,
    ics: Vec<(NodeId, f64)>,
}

impl Circuit {
    /// The global ground node.
    pub const GROUND: NodeId = NodeId::GROUND;

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Circuit {
        let mut ckt = Circuit {
            node_names: vec!["0".to_string()],
            nodes_by_name: HashMap::new(),
            elements: Vec::new(),
            devices: Vec::new(),
            num_branches: 0,
            internal_unknowns: 0,
            layout_final: false,
            batch_plan: BatchPlan::default(),
            ics: Vec::new(),
        };
        ckt.nodes_by_name.insert("0".to_string(), NodeId::GROUND);
        ckt.nodes_by_name.insert("gnd".to_string(), NodeId::GROUND);
        ckt
    }

    /// Returns the node with the given name, creating it if needed.
    /// The names `"0"` and `"gnd"` always refer to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.nodes_by_name.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.to_string());
        self.nodes_by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes_by_name.get(name).copied()
    }

    /// The name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this circuit.
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.node_names[n.index()]
    }

    /// Total number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of node-voltage unknowns (nodes excluding ground).
    pub fn num_node_unknowns(&self) -> usize {
        self.node_names.len() - 1
    }

    /// Number of branch-current unknowns.
    pub fn num_branches(&self) -> usize {
        self.num_branches
    }

    /// Total number of MNA unknowns (finalizes the layout on first call).
    pub fn num_unknowns(&mut self) -> usize {
        self.finalize_layout();
        self.num_node_unknowns() + self.num_branches + self.internal_unknowns
    }

    /// Global index of the first branch unknown.
    pub fn branch_base(&self) -> usize {
        self.num_node_unknowns()
    }

    /// Assigns internal-unknown indices to devices. Idempotent.
    pub(crate) fn finalize_layout(&mut self) {
        if self.layout_final {
            return;
        }
        let mut base = self.num_node_unknowns() + self.num_branches;
        for dev in &mut self.devices {
            let n = dev.num_internal();
            if n > 0 {
                dev.set_internal_base(base);
                base += n;
            }
        }
        self.internal_unknowns = base - self.num_node_unknowns() - self.num_branches;
        self.batch_plan = Self::build_batch_plan(&self.devices);
        self.layout_final = true;
    }

    /// Groups devices with equal [`Device::batch_key`]s into evaluation
    /// batches, compiles their [`Lane`]s and cuts each batch into chunks;
    /// devices without a key or a lane (or whose lane's shape differs
    /// from the first lane of their key) are left out of every chunk and
    /// load themselves through [`Device::load`].
    fn build_batch_plan(devices: &[Box<dyn Device>]) -> BatchPlan {
        let mut by_key: HashMap<u64, usize> = HashMap::new();
        let mut batches: Vec<(u16, Vec<usize>)> = Vec::new();
        for (i, dev) in devices.iter().enumerate() {
            let (Some(key), Some(lane)) = (dev.batch_key(), dev.lane()) else {
                continue;
            };
            let shape = lane.shape();
            let b = *by_key.entry(key).or_insert_with(|| {
                batches.push((shape, Vec::new()));
                batches.len() - 1
            });
            if batches[b].0 == shape {
                batches[b].1.push(i);
            }
        }
        let mut plan = BatchPlan {
            device_lane: vec![BatchPlan::NO_LANE; devices.len()],
            stamp_start: vec![0],
            ..BatchPlan::default()
        };
        for (_, members) in &batches {
            for piece in members.chunks(CHUNK) {
                let lanes: Vec<Lane> = piece
                    .iter()
                    .map(|&i| devices[i].lane().expect("described above"))
                    .collect();
                plan.push_chunk(members[0], piece, &lanes);
            }
        }
        plan
    }

    /// The batch partition, complete once the layout is finalized.
    pub(crate) fn batch_plan(&self) -> &BatchPlan {
        &self.batch_plan
    }

    fn assert_mutable(&self) {
        assert!(
            !self.layout_final,
            "circuit topology is frozen once an analysis has run"
        );
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive and finite, or if the
    /// circuit layout is already frozen by an analysis.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> ElementId {
        self.assert_mutable();
        assert!(
            ohms.is_finite() && ohms > 0.0,
            "resistance must be positive, got {ohms}"
        );
        self.elements.push(Element::Resistor { a, b, ohms });
        ElementId(self.elements.len() - 1)
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is negative or non-finite, or the layout is frozen.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> ElementId {
        self.assert_mutable();
        assert!(
            farads.is_finite() && farads >= 0.0,
            "capacitance must be non-negative, got {farads}"
        );
        self.elements.push(Element::Capacitor { a, b, farads });
        ElementId(self.elements.len() - 1)
    }

    /// Adds an inductor.
    ///
    /// # Panics
    ///
    /// Panics if `henries` is not strictly positive and finite, or the
    /// layout is frozen.
    pub fn inductor(&mut self, a: NodeId, b: NodeId, henries: f64) -> ElementId {
        self.assert_mutable();
        assert!(
            henries.is_finite() && henries > 0.0,
            "inductance must be positive, got {henries}"
        );
        let branch = self.num_branches;
        self.num_branches += 1;
        self.elements.push(Element::Inductor {
            a,
            b,
            henries,
            branch,
        });
        ElementId(self.elements.len() - 1)
    }

    /// Adds an independent voltage source from `p` (+) to `m` (−).
    ///
    /// The returned [`SourceRef`] is used to probe the source current
    /// (e.g. for supply-power measurements) and to set sweep values.
    ///
    /// # Panics
    ///
    /// Panics if the layout is frozen.
    pub fn vsource(&mut self, p: NodeId, m: NodeId, wave: Waveform) -> SourceRef {
        self.assert_mutable();
        let branch = self.num_branches;
        self.num_branches += 1;
        self.elements.push(Element::VSource { p, m, wave, branch });
        SourceRef {
            element: self.elements.len() - 1,
            branch,
        }
    }

    /// Adds an independent current source driving current from `from` to
    /// `to` through the source.
    ///
    /// # Panics
    ///
    /// Panics if the layout is frozen.
    pub fn isource(&mut self, from: NodeId, to: NodeId, wave: Waveform) -> ElementId {
        self.assert_mutable();
        self.elements.push(Element::ISource { from, to, wave });
        ElementId(self.elements.len() - 1)
    }

    /// Adds a voltage-controlled current source
    /// `i = gm (v(cp) − v(cm))` flowing from `op` to `om`.
    ///
    /// # Panics
    ///
    /// Panics if `gm` is non-finite or the layout is frozen.
    pub fn vccs(&mut self, op: NodeId, om: NodeId, cp: NodeId, cm: NodeId, gm: f64) -> ElementId {
        self.assert_mutable();
        assert!(gm.is_finite(), "transconductance must be finite");
        self.elements.push(Element::Vccs { op, om, cp, cm, gm });
        ElementId(self.elements.len() - 1)
    }

    /// Adds a voltage-controlled voltage source
    /// `v(op) − v(om) = gain (v(cp) − v(cm))`.
    ///
    /// # Panics
    ///
    /// Panics if `gain` is non-finite or the layout is frozen.
    pub fn vcvs(&mut self, op: NodeId, om: NodeId, cp: NodeId, cm: NodeId, gain: f64) -> ElementId {
        self.assert_mutable();
        assert!(gain.is_finite(), "gain must be finite");
        let branch = self.num_branches;
        self.num_branches += 1;
        self.elements.push(Element::Vcvs {
            op,
            om,
            cp,
            cm,
            gain,
            branch,
        });
        ElementId(self.elements.len() - 1)
    }

    /// Adds a nonlinear device, transferring ownership to the circuit.
    ///
    /// # Panics
    ///
    /// Panics if the layout is frozen.
    pub fn add_device<D: Device + 'static>(&mut self, device: D) -> DeviceId {
        self.add_boxed_device(Box::new(device))
    }

    /// Adds an already-boxed device (used by the netlist elaborator, whose
    /// device factory returns trait objects).
    ///
    /// # Panics
    ///
    /// Panics if the layout is frozen.
    pub fn add_boxed_device(&mut self, device: Box<dyn Device>) -> DeviceId {
        self.assert_mutable();
        self.devices.push(device);
        DeviceId(self.devices.len() - 1)
    }

    /// Forces node `n` to `volts` during the t = 0 operating point of a
    /// transient analysis (used to bias bistable circuits such as SRAM
    /// cells into a chosen state). Ignored by plain DC analyses.
    pub fn set_ic(&mut self, n: NodeId, volts: f64) {
        self.ics.push((n, volts));
    }

    /// The registered initial conditions.
    pub fn ics(&self) -> &[(NodeId, f64)] {
        &self.ics
    }

    /// Replaces the waveform of a voltage source with a DC value (used by
    /// DC sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownProbe`] if `src` does not refer to a
    /// voltage source of this circuit.
    pub fn set_vsource_dc(&mut self, src: SourceRef, volts: f64) -> Result<()> {
        match self.elements.get_mut(src.element) {
            Some(Element::VSource { wave, .. }) => {
                *wave = Waveform::dc(volts);
                Ok(())
            }
            _ => Err(SpiceError::UnknownProbe(format!(
                "element {} is not a voltage source",
                src.element
            ))),
        }
    }

    /// Replaces the waveform of a voltage source.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownProbe`] if `src` does not refer to a
    /// voltage source of this circuit.
    pub fn set_vsource_waveform(&mut self, src: SourceRef, new: Waveform) -> Result<()> {
        match self.elements.get_mut(src.element) {
            Some(Element::VSource { wave, .. }) => {
                *wave = new;
                Ok(())
            }
            _ => Err(SpiceError::UnknownProbe(format!(
                "element {} is not a voltage source",
                src.element
            ))),
        }
    }

    /// The linear elements.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// The nonlinear devices (shared view).
    pub fn devices(&self) -> &[Box<dyn Device>] {
        &self.devices
    }

    /// Resets all device dynamic state (fresh analysis from power-on).
    pub fn reset_device_state(&mut self) {
        for (i, d) in self.devices.iter_mut().enumerate() {
            d.reset_state();
            self.batch_plan.refresh(i, d.as_ref());
        }
    }

    /// Commits the converged solution `x` to every device (see
    /// [`Device::commit`]), re-reading the contact bit of each batched
    /// lane whose device reports a discrete change. Returns whether any
    /// device did.
    pub(crate) fn commit_devices(&mut self, x: &Solution<'_>, ctx: &LoadContext) -> bool {
        let mut changed = false;
        for (i, d) in self.devices.iter_mut().enumerate() {
            if d.commit(x, ctx) {
                changed = true;
                self.batch_plan.refresh(i, d.as_ref());
            }
        }
        changed
    }

    /// Checks structural validity: every non-ground node must have at
    /// least two element/device connections (no dangling nodes), at least
    /// one element must reference ground, no loop may consist solely of
    /// ideal voltage sources (such a loop makes the MNA matrix singular
    /// or the currents indeterminate), and every element parameter and
    /// source waveform must be finite.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidCircuit`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<()> {
        self.validate_finite()?;
        self.validate_no_vsource_loops()?;
        if self.num_node_unknowns() == 0 {
            return Err(SpiceError::InvalidCircuit(
                "circuit has no nodes besides ground".into(),
            ));
        }
        let mut degree = vec![0usize; self.num_nodes()];
        let mut mark = |n: NodeId| degree[n.index()] += 1;
        for e in &self.elements {
            match *e {
                Element::Resistor { a, b, .. }
                | Element::Capacitor { a, b, .. }
                | Element::Inductor { a, b, .. } => {
                    mark(a);
                    mark(b);
                }
                Element::VSource { p, m, .. } => {
                    mark(p);
                    mark(m);
                }
                Element::ISource { from, to, .. } => {
                    mark(from);
                    mark(to);
                }
                Element::Vccs { op, om, cp, cm, .. } => {
                    mark(op);
                    mark(om);
                    mark(cp);
                    mark(cm);
                }
                Element::Vcvs { op, om, cp, cm, .. } => {
                    mark(op);
                    mark(om);
                    mark(cp);
                    mark(cm);
                }
            }
        }
        // Devices connect their terminals too; we cannot see them through
        // the trait, so device-only nodes are counted via names created by
        // builders. Builders in higher layers always attach at least a
        // parasitic capacitor to device terminals, so a degree-0 node here
        // is a genuine authoring error.
        for (idx, &d) in degree.iter().enumerate().skip(1) {
            if d == 0 && !self.devices.is_empty() {
                // Node may be referenced only by devices; tolerated.
                continue;
            }
            if d == 0 {
                return Err(SpiceError::InvalidCircuit(format!(
                    "node '{}' is dangling (no connections)",
                    self.node_names[idx]
                )));
            }
        }
        if degree[0] == 0 && self.devices.is_empty() {
            return Err(SpiceError::InvalidCircuit(
                "nothing is connected to ground".into(),
            ));
        }
        Ok(())
    }

    /// Rejects non-finite element parameters and source waveforms before
    /// they can poison an assembly. Builder methods assert finiteness at
    /// construction; this re-check catches values smuggled in through
    /// waveform payloads or future construction paths.
    fn validate_finite(&self) -> Result<()> {
        for (idx, e) in self.elements.iter().enumerate() {
            let ok = match e {
                Element::Resistor { ohms, .. } => ohms.is_finite(),
                Element::Capacitor { farads, .. } => farads.is_finite(),
                Element::Inductor { henries, .. } => henries.is_finite(),
                Element::VSource { wave, .. } | Element::ISource { wave, .. } => wave.is_finite(),
                Element::Vccs { gm, .. } => gm.is_finite(),
                Element::Vcvs { gain, .. } => gain.is_finite(),
            };
            if !ok {
                return Err(SpiceError::InvalidCircuit(format!(
                    "element #{idx} has a non-finite parameter or waveform value"
                )));
            }
        }
        for &(node, volts) in &self.ics {
            if !volts.is_finite() {
                return Err(SpiceError::InvalidCircuit(format!(
                    "initial condition on node '{}' is non-finite",
                    self.node_names[node.index()]
                )));
            }
        }
        Ok(())
    }

    /// Rejects loops made purely of ideal voltage sources (independent or
    /// VCVS outputs): their branch currents are indeterminate and the MNA
    /// matrix is singular (or the KCL contradiction unsolvable). Detected
    /// by union-find: each source edge must connect two previously
    /// disconnected components of the source-only subgraph.
    fn validate_no_vsource_loops(&self) -> Result<()> {
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]]; // path halving
                i = parent[i];
            }
            i
        }
        let mut parent: Vec<usize> = (0..self.num_nodes()).collect();
        for e in &self.elements {
            let (a, b, kind) = match *e {
                Element::VSource { p, m, .. } => (p, m, "voltage source"),
                Element::Vcvs { op, om, .. } => (op, om, "vcvs output"),
                _ => continue,
            };
            let ra = find(&mut parent, a.index());
            let rb = find(&mut parent, b.index());
            if ra == rb {
                return Err(SpiceError::InvalidCircuit(format!(
                    "{kind} between '{}' and '{}' closes a loop of ideal voltage sources \
                     (branch currents would be indeterminate)",
                    self.node_names[a.index()],
                    self.node_names[b.index()],
                )));
            }
            parent[ra] = rb;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_names_are_interned() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let a2 = ckt.node("a");
        assert_eq!(a, a2);
        assert_eq!(ckt.num_nodes(), 2);
        assert_eq!(ckt.node_name(a), "a");
    }

    #[test]
    fn gnd_aliases_resolve_to_ground() {
        let mut ckt = Circuit::new();
        assert_eq!(ckt.node("0"), Circuit::GROUND);
        assert_eq!(ckt.node("gnd"), Circuit::GROUND);
    }

    #[test]
    fn branches_are_allocated_in_order() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let v1 = ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.inductor(a, b, 1e-9);
        let v2 = ckt.vsource(b, Circuit::GROUND, Waveform::dc(0.0));
        assert_eq!(v1.branch, 0);
        assert_eq!(v2.branch, 2);
        assert_eq!(ckt.num_branches(), 3);
        assert_eq!(ckt.num_unknowns(), 2 + 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resistance_is_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor(a, Circuit::GROUND, 0.0);
    }

    #[test]
    fn validate_flags_dangling_node() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.node("floating");
        ckt.resistor(a, Circuit::GROUND, 1.0);
        let err = ckt.validate().unwrap_err();
        assert!(err.to_string().contains("floating"));
    }

    #[test]
    fn validate_accepts_simple_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.resistor(a, b, 1.0);
        ckt.resistor(b, Circuit::GROUND, 1.0);
        assert!(ckt.validate().is_ok());
    }

    #[test]
    fn validate_flags_vsource_loop() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(2.0)); // parallel pair
        ckt.resistor(a, Circuit::GROUND, 1.0);
        let err = ckt.validate().unwrap_err();
        assert!(err.to_string().contains("loop"), "{err}");
    }

    #[test]
    fn validate_flags_vcvs_in_source_loop() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.vsource(b, Circuit::GROUND, Waveform::dc(1.0));
        ckt.vcvs(a, b, a, Circuit::GROUND, 2.0); // closes the loop a-0-b-a
        ckt.resistor(a, b, 1.0);
        let err = ckt.validate().unwrap_err();
        assert!(err.to_string().contains("loop"), "{err}");
    }

    #[test]
    fn validate_accepts_series_sources() {
        // Two sources in series (a chain, not a loop) are fine.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.vsource(b, a, Waveform::dc(1.0));
        ckt.resistor(b, Circuit::GROUND, 1.0);
        assert!(ckt.validate().is_ok());
    }

    #[test]
    fn validate_flags_non_finite_waveform() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(f64::NAN));
        ckt.resistor(a, Circuit::GROUND, 1.0);
        let err = ckt.validate().unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn validate_flags_non_finite_ic() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.resistor(a, Circuit::GROUND, 1.0);
        ckt.set_ic(a, f64::INFINITY);
        let err = ckt.validate().unwrap_err();
        assert!(err.to_string().contains("initial condition"), "{err}");
    }

    #[test]
    fn set_vsource_dc_rejects_non_source() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor(a, Circuit::GROUND, 1.0);
        let fake = SourceRef {
            element: 0,
            branch: 0,
        };
        assert!(ckt.set_vsource_dc(fake, 1.0).is_err());
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn topology_frozen_after_layout() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor(a, Circuit::GROUND, 1.0);
        let _ = ckt.num_unknowns(); // freezes
        ckt.resistor(a, Circuit::GROUND, 1.0);
    }
}
