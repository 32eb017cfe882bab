//! The trait implemented by nonlinear multi-terminal devices.

use crate::element::NodeId;
use crate::stamp::Stamper;

/// Identifier of a device within a [`Circuit`](crate::circuit::Circuit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(pub(crate) usize);

/// Which analysis is asking the device to load itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// DC analysis (operating point or sweep point): capacitors are open,
    /// electromechanical devices are quasi-static.
    Dc,
    /// A transient Newton solve for the step ending at `time`.
    Transient {
        /// Absolute time at the end of the step (seconds).
        time: f64,
        /// Step size (seconds).
        dt: f64,
        /// True when this step integrates with backward Euler instead of
        /// the trapezoidal rule (first step after a discontinuity).
        backward_euler: bool,
    },
}

/// Context handed to devices during load and commit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadContext {
    /// Analysis mode for the current solve.
    pub mode: Mode,
    /// Shunt conductance to ground applied for convergence (siemens).
    pub gmin: f64,
    /// Scale factor on independent sources (`< 1` only during source
    /// stepping); devices normally ignore this.
    pub source_scale: f64,
}

impl LoadContext {
    /// A plain DC context with the given `gmin`.
    pub fn dc(gmin: f64) -> LoadContext {
        LoadContext {
            mode: Mode::Dc,
            gmin,
            source_scale: 1.0,
        }
    }

    /// The time at the end of the step (`0.0` in DC).
    pub fn time(&self) -> f64 {
        match self.mode {
            Mode::Dc => 0.0,
            Mode::Transient { time, .. } => time,
        }
    }
}

/// A candidate MNA solution vector, with convenient node-voltage access.
#[derive(Debug, Clone, Copy)]
pub struct Solution<'a> {
    x: &'a [f64],
}

impl<'a> Solution<'a> {
    /// Wraps a raw unknown vector.
    pub fn new(x: &'a [f64]) -> Solution<'a> {
        Solution { x }
    }

    /// Voltage of node `n` (`0.0` for ground).
    ///
    /// # Panics
    ///
    /// Panics if the node index is outside this solution's layout.
    #[inline]
    pub fn v(&self, n: NodeId) -> f64 {
        if n.is_ground() {
            0.0
        } else {
            self.x[n.index() - 1]
        }
    }

    /// Raw unknown by global index (used by devices for their internal
    /// unknowns and branch currents).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn raw(&self, idx: usize) -> f64 {
        self.x[idx]
    }

    /// The full unknown vector.
    pub fn as_slice(&self) -> &[f64] {
        self.x
    }
}

/// FNV-1a offset basis, the seed for [`Device::batch_key`] fingerprints.
pub const BATCH_KEY_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one 64-bit word into an FNV-1a hash; device implementations
/// chain this over their model-parameter bits (via [`f64::to_bits`]) and
/// a concrete-type tag to build a [`Device::batch_key`].
pub fn batch_key_word(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Columns a lane may use each way: gathered inputs in, evaluated
/// outputs out.
pub const LANE_COLUMNS: usize = 5;

/// Structure-of-arrays scratch columns for one chunk of a homogeneous
/// device batch.
///
/// The engine gathers every chunk member's inputs into the `vin` columns
/// as its [`Lane`] describes them, has one representative member
/// evaluate the whole chunk into `out` in a tight slice loop, and then
/// stamps each lane's outputs as its [`Lane`] describes, in the original
/// per-device order. [`LANE_COLUMNS`] columns each way cover the
/// three-terminal conduction models in this workspace (gate / drain /
/// source voltage, width and leak conductance in; current, three
/// partials and leak current out); columns a batch does not use stay
/// empty.
#[derive(Debug)]
pub struct EvalBatch {
    /// Per-lane input columns, in the order the lane declared them.
    pub vin: [Vec<f64>; LANE_COLUMNS],
    /// Per-lane output columns filled by [`Device::batch_eval`].
    pub out: [Vec<f64>; LANE_COLUMNS],
}

impl EvalBatch {
    /// An empty batch.
    pub fn new() -> EvalBatch {
        EvalBatch {
            vin: Default::default(),
            out: Default::default(),
        }
    }

    /// Empties every column, keeping the allocated capacity.
    pub fn clear(&mut self) {
        for c in self.vin.iter_mut().chain(&mut self.out) {
            c.clear();
        }
    }

    /// Batch column `k`: input `k`, or output `k - LANE_COLUMNS`.
    #[inline]
    pub(crate) fn column(&self, k: usize) -> &[f64] {
        match k.checked_sub(LANE_COLUMNS) {
            None => &self.vin[k],
            Some(o) => &self.out[o],
        }
    }

    /// The value a lane stamp reads: column `src` of lane `lane`, negated
    /// when the stamp says so (see [`LaneStamp`]).
    #[inline]
    pub(crate) fn value(&self, src: u8, lane: usize) -> f64 {
        let v = self.column((src & LaneStamp::COLUMN) as usize)[lane];
        // Negation flips the sign bit, exactly as `-v` does.
        f64::from_bits(v.to_bits() ^ (u64::from(src & LaneStamp::NEG) << 56))
    }
}

impl Default for EvalBatch {
    fn default() -> EvalBatch {
        EvalBatch::new()
    }
}

/// A column of an [`EvalBatch`] that a lane stamp reads its value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Col {
    /// Input column `k` (a gathered voltage or a per-instance constant,
    /// discrete device state included).
    In(usize),
    /// Output column `k`, filled by [`Device::batch_eval`].
    Out(usize),
}

/// What an input column of a lane is gathered from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LaneInput {
    /// The candidate voltage of a node (`0.0` for ground).
    Voltage(NodeId),
    /// A per-instance constant.
    Constant(f64),
}

/// One stamp of a lane: a Jacobian entry or a residual row, its value
/// read from one batch column and possibly negated. Rows and columns are
/// raw unknown indices; stamps touching ground are dropped when they are
/// declared, exactly as [`Stamper::j_node`] and [`Stamper::f_node`] drop
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneStamp {
    pub row: u32,
    /// Jacobian column, or [`LaneStamp::RESIDUAL`].
    pub col: u32,
    /// Source column (`0..LANE_COLUMNS` inputs, then outputs) in the low
    /// bits, plus the [`LaneStamp::NEG`] flag.
    pub src: u8,
}

impl LaneStamp {
    /// `col` of a residual stamp.
    pub const RESIDUAL: u32 = u32::MAX;
    /// Flag: the value is negated.
    pub const NEG: u8 = 0x80;
    /// Mask of the source column.
    pub const COLUMN: u8 = 0x7f;
}

/// A batched device's lane, stated once when the circuit's batch plan is
/// built: which inputs it gathers, and which output lands on which
/// Jacobian entry or residual row, with which sign, in the order
/// [`Device::load`] pushes them.
///
/// The builder methods mirror the [`Stamper`] calls of a `load`
/// (`current`, `conductance`, `nonlinear_current`) with batch columns in
/// place of values, so a lane is written next to the `load` it replays.
/// The stamp list must not depend on the device's state: discrete state
/// (a NEMFET's contact) travels as a [`Lane::constant`] that
/// [`Device::batch_eval`] reads, and a stamp that state switches off
/// stamps a zero. The Jacobian pattern is then a function of the netlist
/// and the analysis mode alone, so a state change moves values, never
/// the frozen pattern.
///
/// [`Lane::stamp`] interprets the description through the `Stamper` API
/// (dense, triplet and frozen alike); the engine additionally resolves
/// each lane's stamps to frozen CSC slots once per pattern freeze and then
/// writes the outputs straight into them (see [`crate::stamp`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lane {
    pub(crate) inputs: Vec<LaneInput>,
    pub(crate) stamps: Vec<LaneStamp>,
}

impl Lane {
    /// An empty lane.
    pub fn new() -> Lane {
        Lane::default()
    }

    /// The lane's shape, which every lane of a batch must share: how many
    /// input columns, and which of them are voltages.
    pub(crate) fn shape(&self) -> u16 {
        let voltages = self
            .inputs
            .iter()
            .enumerate()
            .filter(|(_, input)| matches!(input, LaneInput::Voltage(_)))
            .fold(0u16, |m, (k, _)| m | 1 << k);
        self.inputs.len() as u16 | voltages << 4
    }

    fn input(&mut self, input: LaneInput) -> Col {
        assert!(
            self.inputs.len() < LANE_COLUMNS,
            "a lane gathers at most {LANE_COLUMNS} input columns"
        );
        self.inputs.push(input);
        Col::In(self.inputs.len() - 1)
    }

    /// Gathers the candidate voltage of `n` into the next input column.
    pub fn voltage(&mut self, n: NodeId) -> Col {
        self.input(LaneInput::Voltage(n))
    }

    /// Places the per-instance constant `v` in the next input column.
    /// The engine re-reads a lane's constants (by describing the lane
    /// again) only after [`Device::commit`] reports a discrete change and
    /// after [`Device::reset_state`], so discrete state may travel here.
    pub fn constant(&mut self, v: f64) -> Col {
        self.input(LaneInput::Constant(v))
    }

    fn push(&mut self, row: NodeId, col: Option<NodeId>, src: Col, neg: bool) {
        let src = match src {
            Col::In(k) | Col::Out(k) if k >= LANE_COLUMNS => {
                panic!("lane column {k} out of range (at most {LANE_COLUMNS})")
            }
            Col::In(k) => k,
            Col::Out(k) => LANE_COLUMNS + k,
        } as u8;
        if row.is_ground() || col.is_some_and(NodeId::is_ground) {
            return;
        }
        let index = |n: NodeId| u32::try_from(n.index() - 1).expect("node index fits u32");
        self.stamps.push(LaneStamp {
            row: index(row),
            col: col.map_or(LaneStamp::RESIDUAL, index),
            src: if neg { src | LaneStamp::NEG } else { src },
        });
    }

    /// Adds `(row, col)` of the Jacobian, from column `v`, negated when
    /// `neg` (like [`Stamper::j_node`]).
    fn j(&mut self, row: NodeId, col: NodeId, v: Col, neg: bool) {
        self.push(row, Some(col), v, neg);
    }

    /// Adds to `n`'s residual row, from column `v`, negated when `neg`
    /// (like [`Stamper::f_node`]).
    fn f(&mut self, n: NodeId, v: Col, neg: bool) {
        self.push(n, None, v, neg);
    }

    /// Like [`Stamper::current`]: `i` leaves `from` and enters `to`.
    pub fn current(&mut self, from: NodeId, to: NodeId, i: Col) {
        self.f(from, i, false);
        self.f(to, i, true);
    }

    /// Like [`Stamper::conductance`], with the current `i = g (v(a) −
    /// v(b))` evaluated into a column of its own.
    pub fn conductance(&mut self, a: NodeId, b: NodeId, i: Col, g: Col) {
        self.current(a, b, i);
        self.j(a, a, g, false);
        self.j(b, b, g, false);
        self.j(a, b, g, true);
        self.j(b, a, g, true);
    }

    /// Like [`Stamper::nonlinear_current`], with the current and every
    /// partial read from columns.
    pub fn nonlinear_current(&mut self, a: NodeId, b: NodeId, i: Col, partials: &[(NodeId, Col)]) {
        self.current(a, b, i);
        for &(node, di) in partials {
            self.j(a, node, di, false);
            self.j(b, node, di, true);
        }
    }

    /// Appends this lane's inputs to `batch`: one value per input column.
    pub fn gather(&self, x: &Solution<'_>, batch: &mut EvalBatch) {
        for (col, input) in batch.vin.iter_mut().zip(&self.inputs) {
            col.push(match *input {
                LaneInput::Voltage(n) => x.v(n),
                LaneInput::Constant(v) => v,
            });
        }
    }

    /// Stamps lane `lane` of the evaluated `batch` through `st`, one
    /// push per stamp, in declaration order: the route every backend
    /// supports and the frozen pattern verifies push by push.
    pub fn stamp(&self, batch: &EvalBatch, lane: usize, st: &mut Stamper) {
        stamp_lane(&self.stamps, batch, lane, st);
    }
}

/// The per-push route of one lane: `stamps` valued from lane `lane` of
/// `batch`.
#[inline]
pub(crate) fn stamp_lane(stamps: &[LaneStamp], batch: &EvalBatch, lane: usize, st: &mut Stamper) {
    for s in stamps {
        let v = batch.value(s.src, lane);
        if s.col == LaneStamp::RESIDUAL {
            st.f(s.row as usize, v);
        } else {
            st.j(s.row as usize, s.col as usize, v);
        }
    }
}

/// A nonlinear multi-terminal device that participates in MNA assembly.
///
/// Devices own their *dynamic state* (integration history, hysteresis
/// flags). During a Newton solve the state is frozen: [`Device::load`] must
/// be a pure function of the candidate solution and the context. When a
/// step (or DC point) is accepted the analysis calls [`Device::commit`],
/// which is the only place state may change.
///
/// # Batched evaluation
///
/// Devices may opt into structure-of-arrays batched evaluation by
/// returning a key from [`Device::batch_key`], describing their lane
/// with [`Device::lane`] and implementing [`Device::batch_eval`]. When
/// the circuit's layout freezes it groups instances with equal keys into
/// batches and compiles every member's [`Lane`]. Per assembly the engine
/// gathers each chunk of a batch straight from the lanes' node indices
/// (no call into the device), calls [`Device::batch_eval`] once per chunk
/// on the batch's first member, and stamps every lane in the original
/// global device order. A lane's stamps must be *exactly* the
/// stamp-call sequence [`Device::load`] would produce, so a batched
/// instance stamps bitwise what it would stamp without a key. Both must
/// push the same sequence in every device state: discrete state is a
/// lane constant, and an entry that the state switches off is stamped
/// with a zero, not skipped (see [`Lane`]).
///
/// Lanes are stamped one of two ways, bitwise alike. The per-push route
/// ([`Lane::stamp`]) goes through the [`Stamper`] API and serves the
/// dense and triplet backends, the first assembly on each frozen pattern
/// and every fallback. On a frozen sparse pattern the engine then
/// resolves each lane's stamps to CSC slots and residual rows once, and
/// later assemblies on the same freeze write the outputs straight into
/// them.
///
/// Key contract: equal keys imply the same concrete device type, the same
/// lane shape (input columns) and output column usage, and
/// bitwise-equal model parameters for everything [`Device::batch_eval`]
/// reads from `self` — per-instance values (terminal nodes, width,
/// discrete state) must travel through the lane instead. Build keys by
/// folding the parameter bits and a unique type tag with
/// [`batch_key_word`]. A keyed device whose lane is `None`, or whose
/// lane's shape differs from its batch's, loads through [`Device::load`].
///
/// # Threads
///
/// Devices are `Send + Sync`: an assembly of a large batch plan runs
/// some [`Device::batch_eval`] calls on the eval helper thread (see
/// [`crate::par`]) while the calling thread gathers and evaluates other
/// chunks. `batch_eval` must therefore be a pure function of `self`, the
/// context and its own batch columns, and must not read thread-locals —
/// solver stats, fault plans, the solve profile or the budget are the
/// calling thread's and are not installed on the helper. Gather and
/// stamping always run on the calling thread.
pub trait Device: std::fmt::Debug + Send + Sync {
    /// Instance name for diagnostics.
    fn name(&self) -> &str;

    /// Number of internal MNA unknowns this device needs (e.g. a dynamic
    /// NEMS beam contributes displacement and velocity).
    fn num_internal(&self) -> usize {
        0
    }

    /// Informs the device of the global index of its first internal
    /// unknown. Called once when the circuit layout is finalized; devices
    /// without internal unknowns can ignore it.
    fn set_internal_base(&mut self, base: usize) {
        let _ = base;
    }

    /// Stamps the device's Jacobian and residual contributions at the
    /// candidate solution `x`.
    fn load(&self, x: &Solution<'_>, ctx: &LoadContext, st: &mut Stamper);

    /// Accepts a converged solution: update integration history and
    /// hysteresis state. Returns `true` if a *discrete* state changed
    /// (e.g. a NEMS beam pulled in), which makes DC analyses re-solve for
    /// consistency.
    fn commit(&mut self, x: &Solution<'_>, ctx: &LoadContext) -> bool;

    /// Resets all dynamic state to the power-on default (fresh analysis).
    fn reset_state(&mut self);

    /// Provides an initial guess for the device's internal unknowns
    /// (node voltages are guessed by the analysis itself).
    fn initial_guess(&self, x: &mut [f64]) {
        let _ = x;
    }

    /// Batch-partitioning key (see the trait-level contract), or `None`
    /// to always evaluate this instance through [`Device::load`]. Must be
    /// stable across the circuit's lifetime — the partition is computed
    /// once at layout freeze.
    fn batch_key(&self) -> Option<u64> {
        None
    }

    /// This instance's lane in its batch (see the trait's *Batched
    /// evaluation* section), or `None` to load through [`Device::load`].
    /// Called when the batch plan is built, and again — for its constants
    /// only — after [`Device::commit`] reports a discrete change and
    /// after [`Device::reset_state`].
    fn lane(&self) -> Option<Lane> {
        None
    }

    /// Evaluates every gathered lane of the batch, pushing one value per
    /// used output column per lane. Called once per chunk of a batch (a
    /// fixed number of consecutive lanes), on the batch's first member;
    /// by the key contract its model parameters are bitwise equal to
    /// every other member's.
    /// Each lane's outputs must depend only on that lane's inputs, and
    /// the call may run on another thread (see the trait's *Threads*
    /// section).
    fn batch_eval(&self, ctx: &LoadContext, batch: &mut EvalBatch) {
        let _ = (ctx, batch);
    }
}
