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

/// Structure-of-arrays scratch columns for one chunk of a homogeneous
/// device batch.
///
/// The engine gathers every chunk member's inputs into the `vin`/`bin`
/// columns (one push per lane per column), has one representative member
/// evaluate the whole chunk into `out` in a tight slice loop, and then
/// scatters each lane's outputs through the stamper in the original
/// per-device order. Four `f64` columns each way plus one `bool` column
/// cover the three-terminal conduction models in this workspace (gate /
/// drain / source voltage + width in; current + three partials out);
/// devices that need fewer columns simply leave the rest empty, as long
/// as every member pushes the same columns so lanes stay aligned.
#[derive(Debug)]
pub struct EvalBatch {
    /// Per-lane `f64` input columns gathered from the candidate solution.
    pub vin: [Vec<f64>; 4],
    /// Per-lane discrete-state column (e.g. a NEMFET's contact flag),
    /// letting devices in different hysteresis states share a batch.
    pub bin: Vec<bool>,
    /// Per-lane `f64` output columns filled by [`Device::batch_eval`].
    pub out: [Vec<f64>; 4],
}

impl EvalBatch {
    /// An empty batch.
    pub fn new() -> EvalBatch {
        EvalBatch {
            vin: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            bin: Vec::new(),
            out: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
        }
    }

    /// Number of gathered lanes (length of the first input column).
    pub fn lanes(&self) -> usize {
        self.vin[0].len()
    }

    /// Empties every column, keeping the allocated capacity.
    pub fn clear(&mut self) {
        for c in &mut self.vin {
            c.clear();
        }
        self.bin.clear();
        for c in &mut self.out {
            c.clear();
        }
    }
}

impl Default for EvalBatch {
    fn default() -> EvalBatch {
        EvalBatch::new()
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
/// returning a key from [`Device::batch_key`] and implementing the three
/// `batch_*` hooks. At layout freeze the circuit groups instances with
/// equal keys into one batch; per assembly the engine calls
/// [`Device::batch_gather`] on every member (in device order),
/// [`Device::batch_eval`] once per chunk of the batch on the first
/// member, and [`Device::batch_scatter`] on every member in the original
/// global device order. The scatter must replay *exactly* the stamp-call
/// sequence [`Device::load`] would produce, so a batched instance
/// stamps bitwise what it would stamp without a key.
///
/// Key contract: equal keys imply the same concrete device type, the same
/// gather/output column usage, and bitwise-equal model parameters for
/// everything [`Device::batch_eval`] reads from `self` — per-instance
/// values (terminal nodes, width, discrete state) must travel through the
/// batch columns instead. Build keys by folding the parameter bits and a
/// unique type tag with [`batch_key_word`].
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
/// scatter always run on the calling thread.
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

    /// Pushes this instance's per-lane inputs (one value per used column)
    /// onto the batch. Called once per assembly for every batch member.
    fn batch_gather(&self, x: &Solution<'_>, batch: &mut EvalBatch) {
        let _ = (x, batch);
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

    /// Stamps this instance's contributions from its `lane` of the
    /// evaluated batch, replaying the exact stamp sequence of
    /// [`Device::load`]. The default delegates to `load` so partially
    /// implemented devices stay correct (at scalar cost).
    fn batch_scatter(
        &self,
        lane: usize,
        batch: &EvalBatch,
        x: &Solution<'_>,
        ctx: &LoadContext,
        st: &mut Stamper,
    ) {
        let _ = (lane, batch);
        self.load(x, ctx, st);
    }
}
