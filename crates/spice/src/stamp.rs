//! The per-iteration MNA assembler.
//!
//! A [`Stamper`] accumulates Jacobian entries and residual contributions
//! for one Newton iteration, then factors and solves for the update.
//! The sign convention is:
//!
//! * the residual `F[n]` of a node row is the sum of currents *leaving*
//!   node `n`;
//! * branch rows hold their constitutive equation residual;
//! * the Newton update solves `J Δx = −F`.
//!
//! Small systems are assembled densely; larger ones into a triplet matrix
//! solved by the sparse Gilbert–Peierls LU. Every sparse solve takes one
//! pipeline: compress, then bypass, refactor, or a fresh symbolic
//! factorization, ordered whenever the stamper is.
//!
//! # The incremental fast path
//!
//! Reused across Newton iterations and timesteps (the engine keeps one
//! `Stamper` per run), the assembler learns the MNA structure once and
//! then gets out of its own way — while staying *bitwise identical* to a
//! from-scratch factorization of every assembly (the committed golden
//! waveforms, rendered before any of this existed, pin those bytes):
//!
//! * **Pattern-frozen stamping** — the first sparse solve records the
//!   triplet → CSC slot of every push; later assemblies write straight
//!   into the preallocated CSC value slots, eliminating the per-iteration
//!   sort/dedup/alloc of compression. [`Stamper::clear`] fills the values
//!   with `-0.0` and every push adds: `-0.0 + v` is `v` bit for bit for
//!   every `f64` (±0 included), so this is assign-on-first-touch, then
//!   accumulate in push order, without a first-touch branch. A push
//!   sequence that deviates from the frozen one thaws back to triplets;
//!   that solve compresses them through the same pipeline and caches its
//!   factorization, and the next solve re-freezes (and refactors it if
//!   the pattern held).
//! * **Slot-resolved device lanes** — every freeze gets a fresh id. On
//!   the first assembly that replays a frozen pattern the engine stamps
//!   each batched device lane push by push (each one checked against the
//!   frozen tape) and records the CSC slots and residual rows its pushes
//!   landed in, keyed by the freeze id and the lane's tape position.
//!   Later assemblies on the same freeze write each lane's outputs
//!   straight into those slots, in global device order, and advance the
//!   tape cursor past them (see `Stamper::lane_tape`). A lane whose key
//!   does not match, or whose outputs are non-finite, stamps push by push
//!   again, which verifies, thaws and attributes as always.
//! * **Symbolic LU reuse** — sparse factorizations keep their column
//!   order, pivot order and reach ([`SparseLu::factor_symbolic`]);
//!   subsequent solves replay a numeric-only refactorization whose guards
//!   (pivot monitor, fill drift) make success bitwise-equal to a fresh
//!   factorization, falling back to one otherwise. The fallback keeps the
//!   rejected factorization's column order unless the pattern changed.
//!   Dense factorizations refactor into the cached allocation and, after
//!   the first refactor, replay a schedule compiled over the Jacobian's
//!   nonzero structure ([`DenseLu::refactor`]), whose guards make success
//!   bitwise-equal to the elimination kernel, which runs otherwise. Both
//!   backends count a replay as a symbolic reuse and a kernel run after
//!   a rejected replay as a refactor fallback.
//! * **Linear-circuit bypass** — when the caller proves the Jacobian
//!   cannot have changed (same [`JacobianKey`], no nonlinear devices, no
//!   fault injection), the previous factorization is reused outright and
//!   only the RHS is re-solved.

use nemscmos_numeric::dense::{DenseLu, DenseMatrix};
use nemscmos_numeric::sparse::{min_degree, CscMatrix, RefactorReject, SparseLu, Triplet};

use std::sync::atomic::{AtomicU64, Ordering};

use crate::element::NodeId;
use crate::profile::{self, MatrixBackend};
use crate::stats::{count, Counter};
use crate::Result;

/// Below this number of unknowns the dense path is used.
///
/// Measured crossover (see DESIGN.md §15): on MNA-sparsity matrices the
/// sparse factor+solve overtakes dense between ~40 and ~70 unknowns
/// depending on pattern, so 64 sits inside the measured band. It must
/// also stay below the 82-unknown `wide-rc-ladder` golden deck (which
/// pins the sparse default) and above every other golden deck, so the
/// committed golden waveforms are byte-stable against this constant.
const DENSE_LIMIT: usize = 64;

/// At or above this many unknowns the sparse backend computes a
/// fill-reducing column ordering ([`min_degree`]) before factoring.
///
/// Deliberately above the largest golden deck (82 unknowns): the six
/// committed golden waveforms were rendered in natural order and must stay
/// byte-identical. Decks below the threshold therefore keep the natural
/// order verbatim (every sparse solve runs [`SparseLu::factor_symbolic`],
/// whose kernel is [`SparseLu::factor`]'s, or a refactor proven
/// bitwise-equal to it); the `ordered_vs_natural` differential forces the
/// ordering onto them via [`SolveProfile::ordering_limit`] and checks
/// solution equivalence.
///
/// [`min_degree`]: nemscmos_numeric::sparse::min_degree
/// [`SolveProfile::ordering_limit`]: crate::profile::SolveProfile::ordering_limit
pub(crate) const ORDERING_LIMIT: usize = 96;

/// Fingerprint of everything that can change the assembled Jacobian of a
/// circuit *without nonlinear devices*: the analysis mode, the companion-
/// model step, and the solver's own matrix stamps. Two assemblies with
/// equal keys produce identical matrices (sources and IC-clamp targets
/// only move the RHS), so the factorization can be reused outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JacobianKey {
    /// Transient (vs. DC) companion models.
    pub transient: bool,
    /// Bit pattern of the step size (`0` in DC).
    pub dt_bits: u64,
    /// Backward-Euler (vs. trapezoidal) companion conductances.
    pub backward_euler: bool,
    /// Bit pattern of the convergence shunt conductance.
    pub gmin_bits: u64,
    /// Initial-condition clamp stamps present.
    pub ic_clamps: bool,
}

#[derive(Debug, Clone)]
enum Backend {
    Dense(DenseMatrix),
    Sparse(Triplet),
    Frozen(Frozen),
}

/// The pattern-frozen sparse state: the compressed matrix plus the
/// recorded push sequence that fills it.
#[derive(Debug, Clone)]
struct Frozen {
    csc: CscMatrix,
    /// Per push: the `(row, col)` it must target.
    coords: Vec<(u32, u32)>,
    /// Per push: the CSC value slot it lands in.
    slots: Vec<u32>,
    /// Per push: whether it is the first touch of its slot. Only a thaw
    /// reads it, to carry each touched slot over once, at its first-touch
    /// position.
    first: Vec<bool>,
    /// This freeze's process-wide unique id, the key of the engine's
    /// slot-resolved lanes.
    id: u64,
    /// Pushes consumed since the last [`Stamper::clear`].
    cursor: usize,
    /// True once an assembly has actually run through the slot map (the
    /// freezing solve itself compresses the triplets the ordinary way).
    via_slots: bool,
}

/// Source of [`Frozen::id`]: every freeze in the process gets its own.
static NEXT_FREEZE: AtomicU64 = AtomicU64::new(1);

/// A frozen pattern's tape, open for one slot-resolved lane: the lane
/// adds its values into `values` (CSC slots) and `rhs` (residual rows)
/// and moves `cursor` past the pushes it stands for.
pub(crate) struct LaneTape<'a> {
    /// The id of the freeze the tape belongs to.
    pub freeze: u64,
    /// Pushes consumed so far in this assembly.
    pub cursor: &'a mut usize,
    /// The frozen matrix's values.
    pub values: &'a mut [f64],
    /// The residual.
    pub rhs: &'a mut [f64],
}

/// Which part of the assembly is currently stamping, for non-finite
/// attribution (see [`Stamper::set_section`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StampSection {
    /// The linear elements of the circuit.
    Linear,
    /// The nonlinear device with this index in the circuit's device list.
    Device(usize),
    /// Solver-internal stamps (gmin shunts, IC clamps).
    Solver,
    /// The fault-injection framework ([`crate::faults`]).
    Fault,
}

/// Record of the first non-finite value stamped in an assembly pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonFiniteNote {
    /// The section active when the value was stamped.
    pub section: StampSection,
    /// The row (raw unknown index) it landed on.
    pub row: usize,
    /// `"jacobian"` or `"residual"`.
    pub stage: &'static str,
}

/// Accumulates one Newton iteration's MNA matrix and residual.
#[derive(Debug, Clone)]
pub struct Stamper {
    n: usize,
    backend: Backend,
    rhs: Vec<f64>,
    section: StampSection,
    first_non_finite: Option<NonFiniteNote>,
    /// Freeze the sparse pattern at the next sparse solve. Disarmed for
    /// one solve after a thaw so the frozen pattern is always rebuilt
    /// from a raw push sequence, never from a thawed hybrid.
    freeze_armed: bool,
    /// Whether sparse factorizations use a fill-reducing column ordering
    /// (decided at construction from size and profile).
    ordered: bool,
    /// Cached sparse factorization (symbolic record and column order
    /// attached) for numeric-only refactorization and bypass.
    sparse_lu: Option<SparseLu>,
    /// Cached dense factorization, refactored in place each solve (a
    /// replay of its compiled schedule while the guards hold).
    dense_lu: Option<DenseLu>,
    /// The key under which the cached factorization was built.
    factor_key: Option<JacobianKey>,
    /// Scratch for the negated residual.
    neg_f: Vec<f64>,
}

impl Stamper {
    /// Creates an assembler for `n` unknowns.
    ///
    /// The backend is dense up to 64 unknowns and sparse above, unless
    /// the active [`SolveProfile`] pins one explicitly (used by
    /// differential testing to prove both paths agree).
    ///
    /// [`SolveProfile`]: crate::profile::SolveProfile
    pub fn new(n: usize) -> Stamper {
        let backend = if Self::want_dense(n) {
            Backend::Dense(DenseMatrix::zeros(n, n))
        } else {
            Backend::Sparse(Triplet::with_capacity(n, n, n * 8))
        };
        Stamper {
            n,
            backend,
            rhs: vec![0.0; n],
            section: StampSection::Linear,
            first_non_finite: None,
            freeze_armed: true,
            ordered: Self::want_ordered(n),
            sparse_lu: None,
            dense_lu: None,
            factor_key: None,
            neg_f: Vec::new(),
        }
    }

    /// The size-or-profile backend decision for `n` unknowns (used by the
    /// engine to tell whether a cached `Stamper` is still appropriate).
    pub(crate) fn want_dense(n: usize) -> bool {
        match profile::current().matrix_backend {
            Some(MatrixBackend::Dense) => true,
            Some(MatrixBackend::Sparse) => false,
            None => n <= DENSE_LIMIT,
        }
    }

    /// The size-or-profile ordering decision for `n` unknowns: whether
    /// sparse factorizations should use a fill-reducing column order.
    /// The engagement threshold defaults to [`ORDERING_LIMIT`] and can be
    /// overridden through `SolveProfile::ordering_limit` (`usize::MAX`
    /// pins natural order).
    pub(crate) fn want_ordered(n: usize) -> bool {
        n >= profile::current().ordering_limit.unwrap_or(ORDERING_LIMIT)
    }

    /// True when sparse factorizations use a fill-reducing column order
    /// (used by the engine to tell whether a cached `Stamper` is still
    /// appropriate under the active profile).
    pub(crate) fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// Number of unknowns.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// True when the dense backend was selected.
    pub fn is_dense(&self) -> bool {
        matches!(self.backend, Backend::Dense(_))
    }

    /// Clears the matrix, residual, and non-finite bookkeeping for the
    /// next iteration, keeping allocations.
    ///
    /// A frozen sparse pattern is *not* discarded: its push cursor
    /// rewinds and its values are filled with `-0.0`, the additive
    /// identity every push then accumulates onto (see the module docs).
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Dense(m) => m.clear(),
            Backend::Sparse(t) => t.clear(),
            Backend::Frozen(fz) => {
                fz.cursor = 0;
                fz.via_slots = true;
                fz.csc.values_mut().fill(-0.0);
            }
        }
        self.rhs.iter_mut().for_each(|x| *x = 0.0);
        self.first_non_finite = None;
    }

    /// Declares which part of the assembly the following stamps belong
    /// to, so a non-finite value can be attributed to its producer.
    pub fn set_section(&mut self, section: StampSection) {
        self.section = section;
    }

    /// The first non-finite value stamped since the last [`clear`],
    /// if any.
    ///
    /// [`clear`]: Stamper::clear
    pub fn non_finite(&self) -> Option<&NonFiniteNote> {
        self.first_non_finite.as_ref()
    }

    #[cold]
    fn note_non_finite(&mut self, row: usize, stage: &'static str) {
        if self.first_non_finite.is_none() {
            self.first_non_finite = Some(NonFiniteNote {
                section: self.section,
                row,
                stage,
            });
        }
    }

    /// Row index of a node, or `None` for ground.
    #[inline]
    pub fn node_row(&self, n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.index() - 1)
        }
    }

    /// Adds `v` to Jacobian entry `(r, c)` (raw unknown indices).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[inline]
    pub fn j(&mut self, r: usize, c: usize, v: f64) {
        if !v.is_finite() {
            self.note_non_finite(r, "jacobian");
        }
        if let Backend::Frozen(fz) = &mut self.backend {
            let k = fz.cursor;
            if k < fz.coords.len() && fz.coords[k] == (r as u32, c as u32) {
                fz.csc.values_mut()[fz.slots[k] as usize] += v;
                fz.cursor = k + 1;
                return;
            }
            // The push sequence deviated from the frozen pattern: fall
            // back to triplet assembly for this solve.
            self.thaw();
        }
        match &mut self.backend {
            Backend::Dense(m) => m.add(r, c, v),
            Backend::Sparse(t) => t.push(r, c, v),
            Backend::Frozen(_) => unreachable!("thawed above"),
        }
    }

    /// Converts a frozen backend back into triplets, carrying over the
    /// accumulated contributions of the pushes consumed so far (one entry
    /// per touched slot, placed at the slot's first-touch position, so
    /// duplicate summation order is preserved bit for bit).
    #[cold]
    fn thaw(&mut self) {
        let placeholder = Backend::Sparse(Triplet::new(self.n, self.n));
        let fz = match std::mem::replace(&mut self.backend, placeholder) {
            Backend::Frozen(fz) => fz,
            other => {
                self.backend = other;
                return;
            }
        };
        count(Counter::Thaws, 1);
        let mut t = Triplet::with_capacity(self.n, self.n, fz.coords.len().max(self.n * 8));
        for k in 0..fz.cursor {
            if fz.first[k] {
                let (r, c) = fz.coords[k];
                t.push(
                    r as usize,
                    c as usize,
                    fz.csc.values()[fz.slots[k] as usize],
                );
            }
        }
        self.backend = Backend::Sparse(t);
        self.freeze_armed = false;
        self.sparse_lu = None;
        self.factor_key = None;
    }

    /// Compresses the current triplet assembly and freezes its pattern:
    /// records the per-push slot map so later assemblies write straight
    /// into the CSC values.
    fn freeze(&mut self) {
        let t = match &self.backend {
            Backend::Sparse(t) => t,
            _ => return,
        };
        debug_assert!(self.n < u32::MAX as usize);
        let (csc, map) = t.to_csc_mapped();
        let coords: Vec<(u32, u32)> = t
            .entries()
            .iter()
            .map(|&(r, c, _)| (r as u32, c as u32))
            .collect();
        let slots: Vec<u32> = map.iter().map(|&s| s as u32).collect();
        let mut seen = vec![false; csc.nnz()];
        let first: Vec<bool> = map
            .iter()
            .map(|&s| !std::mem::replace(&mut seen[s], true))
            .collect();
        let cursor = coords.len();
        self.backend = Backend::Frozen(Frozen {
            csc,
            coords,
            slots,
            first,
            cursor,
            via_slots: false,
            id: NEXT_FREEZE.fetch_add(1, Ordering::Relaxed),
        });
    }

    /// The frozen tape, for writing one slot-resolved lane straight into
    /// it: `None` unless the pattern is frozen.
    #[inline]
    pub(crate) fn lane_tape(&mut self) -> Option<LaneTape<'_>> {
        match &mut self.backend {
            Backend::Frozen(fz) => Some(LaneTape {
                freeze: fz.id,
                cursor: &mut fz.cursor,
                values: fz.csc.values_mut(),
                rhs: &mut self.rhs,
            }),
            _ => None,
        }
    }

    /// The CSC slots of the pushes consumed since tape position `from`,
    /// while the pattern frozen as `freeze` is still in place (every one
    /// of them was checked against the tape when it was pushed).
    pub(crate) fn tape_slots(&self, freeze: u64, from: usize) -> Option<&[u32]> {
        match &self.backend {
            Backend::Frozen(fz) if fz.id == freeze => fz.slots.get(from..fz.cursor),
            _ => None,
        }
    }

    /// Adds `v` to the residual entry `r` (raw unknown index).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    pub fn f(&mut self, r: usize, v: f64) {
        if !v.is_finite() {
            self.note_non_finite(r, "residual");
        }
        self.rhs[r] += v;
    }

    /// Adds `v` to the Jacobian between two nodes, skipping ground rows
    /// and columns.
    #[inline]
    pub fn j_node(&mut self, rn: NodeId, cn: NodeId, v: f64) {
        if let (Some(r), Some(c)) = (self.node_row(rn), self.node_row(cn)) {
            self.j(r, c, v);
        }
    }

    /// Adds `v` to a node's residual row (skipping ground).
    #[inline]
    pub fn f_node(&mut self, n: NodeId, v: f64) {
        if let Some(r) = self.node_row(n) {
            self.f(r, v);
        }
    }

    /// Stamps a current `i` flowing from `from` to `to` into the residual
    /// only (for current contributions whose partials are stamped
    /// separately).
    #[inline]
    pub fn current(&mut self, from: NodeId, to: NodeId, i: f64) {
        self.f_node(from, i);
        self.f_node(to, -i);
    }

    /// Stamps a two-terminal conductance `g` carrying current
    /// `i = g (v(a) − v(b))` from `a` to `b`: both the Jacobian pattern and
    /// the residual at the candidate voltages `va`, `vb`.
    pub fn conductance(&mut self, a: NodeId, b: NodeId, g: f64, va: f64, vb: f64) {
        let i = g * (va - vb);
        self.current(a, b, i);
        self.j_node(a, a, g);
        self.j_node(b, b, g);
        self.j_node(a, b, -g);
        self.j_node(b, a, -g);
    }

    /// Stamps a nonlinear branch current `i` flowing from `a` to `b`, whose
    /// partial derivatives with respect to node voltages are given in
    /// `partials` as `(node, dI/dV_node)` pairs.
    ///
    /// This is the workhorse for transistor-like devices: the drain-source
    /// current with its `g_m`, `g_ds` and source partials is one call.
    pub fn nonlinear_current(&mut self, a: NodeId, b: NodeId, i: f64, partials: &[(NodeId, f64)]) {
        self.current(a, b, i);
        for &(node, di) in partials {
            self.j_node(a, node, di);
            self.j_node(b, node, -di);
        }
    }

    /// Stamps the convergence shunt `gmin` from every non-ground node to
    /// ground, consistent with the candidate solution `x`.
    pub fn gmin_shunts(&mut self, gmin: f64, num_node_unknowns: usize, x: &[f64]) {
        if gmin <= 0.0 {
            return;
        }
        for (r, &xr) in x.iter().enumerate().take(num_node_unknowns) {
            self.j(r, r, gmin);
            self.f(r, gmin * xr);
        }
    }

    /// Factors the assembled Jacobian and solves `J Δx = −F`, returning the
    /// Newton update `Δx`.
    ///
    /// # Errors
    ///
    /// Propagates singular-matrix failures from the linear solver.
    pub fn solve(&mut self) -> Result<Vec<f64>> {
        self.solve_with_key(None)
    }

    /// Like [`solve`](Stamper::solve), with the caller's proof of Jacobian
    /// identity: when `key` is `Some` and equals the key of the cached
    /// factorization, the factorization is skipped outright and only the
    /// RHS is re-solved (the linear-circuit bypass). Callers must pass
    /// `Some` only when the assembled matrix is fully determined by the
    /// key — no nonlinear devices, no fault injection.
    ///
    /// # Errors
    ///
    /// Propagates singular-matrix failures from the linear solver.
    pub fn solve_with_key(&mut self, key: Option<JacobianKey>) -> Result<Vec<f64>> {
        // An assembly that consumed only part of the frozen sequence has
        // a shrunken pattern: untouched slots hold stale values, so the
        // frozen matrix is unusable — thaw back to the touched entries.
        if matches!(&self.backend, Backend::Frozen(fz) if fz.cursor != fz.coords.len()) {
            self.thaw();
        }
        // A raw triplet assembly freezes at this solve.
        if self.freeze_armed && matches!(self.backend, Backend::Sparse(_)) {
            self.freeze();
        }
        self.neg_f.clear();
        self.neg_f.extend(self.rhs.iter().map(|&v| -v));
        // The cached factorization is taken out for this solve and put
        // back (with its key) only when the factorization succeeds, so a
        // failed one leaves no cache. A key is only ever held alongside
        // its factorization.
        let bypass = key.is_some() && key == self.factor_key.take();
        count(Counter::BypassSolves, bypass as u64);
        count(Counter::LuFactorizations, !bypass as u64);
        let dx = match &mut self.backend {
            Backend::Dense(m) => {
                let lu = match self.dense_lu.take() {
                    Some(lu) if bypass => lu,
                    Some(mut lu) => {
                        let out = lu.refactor(m);
                        count(
                            if lu.replayed() {
                                Counter::SymbolicReuses
                            } else {
                                Counter::RefactorFallbacks
                            },
                            1,
                        );
                        out?;
                        lu
                    }
                    None => DenseLu::factor(m.clone())?,
                };
                let dx = lu.solve(&self.neg_f);
                self.dense_lu = Some(lu);
                dx
            }
            sparse => {
                let compressed;
                let csc = match sparse {
                    Backend::Frozen(fz) => {
                        if fz.via_slots {
                            count(Counter::SlotCacheHits, 1);
                        }
                        &fz.csc
                    }
                    Backend::Sparse(t) => {
                        // The one solve right after a thaw: compress
                        // the triplets; the next solve freezes.
                        count(Counter::TripletFactorizations, 1);
                        self.freeze_armed = true;
                        compressed = t.to_csc();
                        &compressed
                    }
                    Backend::Dense(_) => unreachable!("matched above"),
                };
                let lu = match self.sparse_lu.take() {
                    Some(lu) if bypass => lu,
                    cached => refactor_or_factor(csc, cached, self.ordered)?,
                };
                let dx = lu.solve(&self.neg_f);
                self.sparse_lu = Some(lu);
                dx
            }
        };
        self.factor_key = key;
        Ok(dx?)
    }

    /// Infinity norm of the current residual.
    pub fn residual_norm(&self) -> f64 {
        nemscmos_numeric::inf_norm(&self.rhs)
    }

    /// The assembled residual vector (one entry per unknown), used by the
    /// post-solve KCL audit.
    pub fn residual(&self) -> &[f64] {
        &self.rhs
    }

    /// Zeroes Jacobian row `r`, making the assembled system structurally
    /// singular. Used only by the fault-injection framework
    /// ([`crate::faults::FaultKind::SingularPivot`]).
    pub fn make_singular(&mut self, r: usize) {
        match &mut self.backend {
            Backend::Dense(m) => {
                for c in 0..self.n {
                    m.set(r, c, 0.0);
                }
            }
            Backend::Sparse(t) => t.zero_row(r),
            Backend::Frozen(fz) => fz.csc.zero_row_values(r),
        }
        // A factorization cached before the fault cannot be reused.
        self.factor_key = None;
    }

    /// Multiplies every accumulated Jacobian entry by the next value of
    /// `factor`. Used only by the fault-injection framework
    /// ([`crate::faults::FaultKind::JacobianPerturb`]); the residual is
    /// left exact, so a solve that still converges converges to the true
    /// solution.
    pub fn scale_jacobian(&mut self, mut factor: impl FnMut() -> f64) {
        match &mut self.backend {
            Backend::Dense(m) => {
                for r in 0..self.n {
                    for c in 0..self.n {
                        let v = m.get(r, c);
                        if v != 0.0 {
                            m.set(r, c, v * factor());
                        }
                    }
                }
            }
            Backend::Sparse(t) => t.map_values(|v| v * factor()),
            Backend::Frozen(fz) => {
                // The slot-mapped values are the already-summed CSC
                // entries, in column-major pattern order — exactly what a
                // compression of this assembly would have produced, so
                // perturbing them perturbs the true assembled matrix.
                for v in fz.csc.values_mut() {
                    *v *= factor();
                }
            }
        }
        self.factor_key = None;
    }

    /// Returns every accumulated Jacobian entry as `(row, col, value)`
    /// triplets (duplicates unsummed for the sparse backend; the dense
    /// backend reports its nonzero positions). Used by the AC analysis to
    /// extract the small-signal conductance matrix at an operating point.
    pub fn jacobian_entries(&self) -> Vec<(usize, usize, f64)> {
        match &self.backend {
            Backend::Dense(m) => {
                let mut out = Vec::new();
                for r in 0..self.n {
                    for c in 0..self.n {
                        let v = m.get(r, c);
                        if v != 0.0 {
                            out.push((r, c, v));
                        }
                    }
                }
                out
            }
            Backend::Sparse(t) => t.iter().collect(),
            Backend::Frozen(fz) => {
                let mut out = Vec::with_capacity(fz.csc.nnz());
                for c in 0..self.n {
                    for (r, v) in fz.csc.col(c) {
                        out.push((r, c, v));
                    }
                }
                out
            }
        }
    }
}

/// Refactors `cached` over `csc` when its symbolic record still fits, else
/// factors afresh, ordered when `ordered`. A fresh factorization reuses the
/// rejected one's column order unless the rejection was a pattern change.
fn refactor_or_factor(
    csc: &CscMatrix,
    cached: Option<SparseLu>,
    ordered: bool,
) -> Result<SparseLu> {
    let mut rejected = None;
    if let Some(mut lu) = cached {
        match lu.refactor(csc) {
            Ok(()) => {
                count(Counter::SymbolicReuses, 1);
                return Ok(lu);
            }
            Err(reject) => {
                // A guard fired: the factors are partially overwritten, but
                // value drift leaves the pattern, and so its order, valid.
                count(Counter::RefactorFallbacks, 1);
                rejected = (reject != RefactorReject::PatternMismatch).then_some(lu);
            }
        }
    }
    let lu = match rejected.as_ref().and_then(SparseLu::column_order) {
        Some(q) => SparseLu::factor_symbolic_with_order(csc, q)?,
        None if ordered => {
            let t0 = std::time::Instant::now();
            let q = min_degree(csc);
            count(Counter::OrderingNs, t0.elapsed().as_nanos() as u64);
            SparseLu::factor_symbolic_with_order(csc, &q)?
        }
        None => SparseLu::factor_symbolic(csc)?,
    };
    count(Counter::FillNnz, lu.factor_nnz() as u64);
    Ok(lu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conductance_stamp_solves_divider() {
        // 1 V source modelled as fixed residual on node 1 is awkward here;
        // instead solve G v = I directly: two resistors to ground from one
        // node driven by a 1 A injection.
        let mut st = Stamper::new(1);
        let n1 = NodeId(1);
        let v = [0.0];
        st.conductance(n1, NodeId::GROUND, 1.0, v[0], 0.0);
        st.conductance(n1, NodeId::GROUND, 1.0, v[0], 0.0);
        // Inject 1 A into node 1 (current flows ground -> node).
        st.current(NodeId::GROUND, n1, 1.0);
        let dx = st.solve().unwrap();
        assert!((dx[0] - 0.5).abs() < 1e-14);
    }

    #[test]
    fn residual_reflects_candidate_voltages() {
        let mut st = Stamper::new(1);
        let n1 = NodeId(1);
        // At v = 2 with g = 3 to ground, the leaving current is 6.
        st.conductance(n1, NodeId::GROUND, 3.0, 2.0, 0.0);
        assert!((st.residual_norm() - 6.0).abs() < 1e-14);
    }

    #[test]
    fn ground_contributions_are_dropped() {
        let mut st = Stamper::new(2);
        // A conductance fully between ground and ground must not panic or
        // touch the matrix.
        st.conductance(NodeId::GROUND, NodeId::GROUND, 1.0, 0.0, 0.0);
        assert_eq!(st.residual_norm(), 0.0);
    }

    #[test]
    fn sparse_backend_used_for_large_systems() {
        let n = DENSE_LIMIT + 10;
        let mut st = Stamper::new(n);
        assert!(!st.is_dense());
        for r in 0..n {
            st.j(r, r, 2.0);
            st.f(r, -2.0); // residual −2 → solve gives +1
        }
        let dx = st.solve().unwrap();
        assert!(dx.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn profile_pins_backend_against_size_default() {
        use crate::profile::{self, MatrixBackend, SolveProfile};
        assert!(Stamper::new(2).is_dense());
        let sparse = SolveProfile {
            matrix_backend: Some(MatrixBackend::Sparse),
            ..Default::default()
        };
        profile::with(sparse, || {
            assert!(!Stamper::new(2).is_dense());
        });
        let dense = SolveProfile {
            matrix_backend: Some(MatrixBackend::Dense),
            ..Default::default()
        };
        profile::with(dense, || {
            assert!(Stamper::new(DENSE_LIMIT + 10).is_dense());
        });
        // Restored after the scopes.
        assert!(Stamper::new(2).is_dense());
    }

    #[test]
    fn dense_limit_pins_backend_on_either_side() {
        // The crossover constant itself is the contract: at the limit the
        // dense kernel runs, one past it the sparse kernel runs.
        assert!(Stamper::new(DENSE_LIMIT).is_dense());
        assert!(!Stamper::new(DENSE_LIMIT + 1).is_dense());
    }

    #[test]
    fn ordering_engages_by_size_and_profile() {
        use crate::profile::{self, SolveProfile};
        assert!(!Stamper::new(ORDERING_LIMIT - 1).is_ordered());
        assert!(Stamper::new(ORDERING_LIMIT).is_ordered());
        // An unreachable threshold pins natural order at any size.
        let natural = SolveProfile {
            ordering_limit: Some(usize::MAX),
            ..Default::default()
        };
        profile::with(natural, || {
            assert!(!Stamper::new(ORDERING_LIMIT).is_ordered());
        });
        // An overridden threshold forces it onto small systems.
        let forced = SolveProfile {
            ordering_limit: Some(0),
            ..Default::default()
        };
        profile::with(forced, || {
            assert!(Stamper::new(2).is_ordered());
        });
    }

    #[test]
    fn ordered_frozen_solve_matches_natural_solution() {
        use crate::profile::{self, MatrixBackend, SolveProfile};
        // A ladder with a hub row: enough structure that the ordering
        // actually permutes, solved through the full freeze/factor path.
        let n = 24;
        let stamp = |st: &mut Stamper| {
            for r in 0..n {
                st.j(r, r, 4.0 + 0.1 * r as f64);
                if r + 1 < n {
                    st.j(r, r + 1, -1.0);
                    st.j(r + 1, r, -1.0);
                }
                if r > 0 {
                    st.j(0, r, 0.25);
                    st.j(r, 0, 0.25);
                }
                st.f(r, -(1.0 + (r % 3) as f64));
            }
        };
        let run = |ordered: bool| -> Vec<f64> {
            let prof = SolveProfile {
                matrix_backend: Some(MatrixBackend::Sparse),
                ordering_limit: Some(if ordered { 0 } else { usize::MAX }),
                ..Default::default()
            };
            profile::with(prof, || {
                let mut st = Stamper::new(n);
                assert_eq!(st.is_ordered(), ordered);
                stamp(&mut st);
                let first = st.solve().unwrap();
                // Second pass exercises the frozen slot map + refactor.
                st.clear();
                stamp(&mut st);
                let second = st.solve().unwrap();
                for (a, b) in first.iter().zip(second.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "iterations must agree");
                }
                second
            })
        };
        let natural = run(false);
        let ordered = run(true);
        for (a, b) in natural.iter().zip(ordered.iter()) {
            assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                "ordered {b} vs natural {a}"
            );
        }
    }

    #[test]
    fn deviating_assembly_thaws_into_one_triplet_factorization() {
        use crate::profile::{self, MatrixBackend, SolveProfile};
        let n = 8;
        let stamp = |st: &mut Stamper, deviate: bool| {
            for r in 0..n {
                st.j(r, r, 2.0);
                st.f(r, -1.0);
            }
            if deviate {
                st.j(0, n - 1, 0.5);
            }
        };
        let ordered = SolveProfile {
            matrix_backend: Some(MatrixBackend::Sparse),
            ordering_limit: Some(0),
            ..Default::default()
        };
        profile::with(ordered, || {
            let mut st = Stamper::new(n);
            stamp(&mut st, false);
            st.solve().unwrap(); // freezes the pattern
            st.clear();
            let (solved, spent) = crate::stats::measure(|| {
                stamp(&mut st, true);
                st.solve()
            });
            assert!(solved.is_ok());
            assert_eq!(spent.thaws, 1);
            assert_eq!(spent.triplet_factorizations, 1);
            assert!(spent.fill_nnz > 0, "the post-thaw factorization is counted");
            assert!(st.sparse_lu.as_ref().unwrap().column_order().is_some());
            // The same pattern again freezes and refactors the post-thaw
            // factorization instead of factoring afresh.
            st.clear();
            let (solved, spent) = crate::stats::measure(|| {
                stamp(&mut st, true);
                st.solve()
            });
            assert!(solved.is_ok());
            assert!(matches!(st.backend, Backend::Frozen(_)));
            assert_eq!(spent.symbolic_reuses, 1);
            assert_eq!(spent.refactor_fallbacks, 0);
            assert_eq!(spent.fill_nnz, 0);
            assert_eq!(spent.triplet_factorizations, 0);
        });
    }

    #[test]
    fn column_order_survives_value_drift_and_follows_pattern_changes() {
        use crate::profile::{self, MatrixBackend, SolveProfile};
        use crate::stats::measure;
        let n = 24;
        let stamp = |st: &mut Stamper, diag: f64, extra: bool| {
            for r in 0..n {
                st.j(r, r, diag + 0.1 * r as f64);
                if r + 1 < n {
                    st.j(r, r + 1, -1.0);
                    st.j(r + 1, r, -1.0);
                }
                if r > 0 {
                    st.j(0, r, 0.25);
                    st.j(r, 0, 0.25);
                }
                st.f(r, -1.0);
            }
            if extra {
                st.j(n - 1, n / 2, -0.5);
                st.j(n / 2, n - 1, -0.5);
            }
        };
        let order = |st: &Stamper| -> Vec<usize> {
            let lu = st.sparse_lu.as_ref().expect("factorization cached");
            lu.column_order().expect("ordered").to_vec()
        };
        let ordered = SolveProfile {
            matrix_backend: Some(MatrixBackend::Sparse),
            ordering_limit: Some(0),
            ..Default::default()
        };
        profile::with(ordered, || {
            let mut st = Stamper::new(n);
            stamp(&mut st, 4.0, false);
            st.solve().unwrap();
            let q = order(&st);
            // Value drift on the frozen pattern: the refactor is rejected
            // and the fresh factorization keeps the rejected one's order.
            st.clear();
            let (solved, spent) = measure(|| {
                stamp(&mut st, 1e-6, false);
                st.solve()
            });
            assert!(solved.is_ok());
            assert_eq!(spent.refactor_fallbacks, 1);
            assert_eq!(spent.ordering_ns, 0, "order not recomputed");
            assert_eq!(order(&st), q);
            // A deviating assembly thaws and is ordered for its own
            // pattern; the original pattern then re-freezes, its refactor
            // is a PatternMismatch, and the order is recomputed for it.
            st.clear();
            stamp(&mut st, 4.0, true);
            st.solve().unwrap();
            assert_ne!(order(&st), q, "the thawed pattern orders differently");
            st.clear();
            let (solved, spent) = measure(|| {
                stamp(&mut st, 4.0, false);
                st.solve()
            });
            assert!(solved.is_ok());
            assert_eq!(spent.refactor_fallbacks, 1);
            assert!(spent.ordering_ns > 0, "order recomputed");
            let Backend::Frozen(fz) = &st.backend else {
                panic!("the original pattern re-froze");
            };
            assert_eq!(order(&st), min_degree(&fz.csc));
            assert_eq!(order(&st), q);
        });
    }

    #[test]
    fn frozen_replay_keeps_signed_zero_sums_bitwise() {
        use crate::profile::{self, MatrixBackend, SolveProfile};
        // Slots summing to -0.0, +0.0 and mixed-sign zeros: accumulating
        // onto the `-0.0` fill must reproduce the compression's sums.
        let stamp = |st: &mut Stamper| {
            for r in 0..4 {
                st.j(r, r, 2.0);
                st.f(r, -1.0);
            }
            st.j(0, 1, -0.0);
            st.j(1, 0, 0.0);
            st.j(2, 3, -0.0);
            st.j(2, 3, -0.0);
            st.j(3, 2, -0.0);
            st.j(3, 2, 0.0);
            st.j(1, 2, 0.5);
            st.j(1, 2, -0.5);
        };
        let bits = |st: &Stamper| -> Vec<(usize, usize, u64)> {
            let entries = st.jacobian_entries().into_iter();
            entries.map(|(r, c, v)| (r, c, v.to_bits())).collect()
        };
        let sparse = SolveProfile {
            matrix_backend: Some(MatrixBackend::Sparse),
            ..Default::default()
        };
        profile::with(sparse, || {
            let mut st = Stamper::new(4);
            stamp(&mut st);
            st.solve().unwrap(); // compresses the triplets and freezes
            let compressed = bits(&st);
            st.clear();
            stamp(&mut st);
            assert!(matches!(&st.backend, Backend::Frozen(fz) if fz.via_slots));
            assert_eq!(bits(&st), compressed);
        });
    }

    #[test]
    fn clear_resets_everything() {
        let mut st = Stamper::new(2);
        st.j(0, 0, 1.0);
        st.f(1, 5.0);
        st.clear();
        assert_eq!(st.residual_norm(), 0.0);
        // After clear the matrix is singular (all zeros): solving must fail.
        assert!(st.solve().is_err());
    }

    #[test]
    fn non_finite_stamps_are_noted_with_attribution() {
        let mut st = Stamper::new(2);
        st.set_section(StampSection::Device(3));
        st.j(1, 0, f64::NAN);
        st.f(0, f64::INFINITY); // later entries don't overwrite the first
        let note = st.non_finite().expect("NaN must be noted");
        assert_eq!(note.section, StampSection::Device(3));
        assert_eq!(note.row, 1);
        assert_eq!(note.stage, "jacobian");
        st.clear();
        assert!(st.non_finite().is_none());
    }

    #[test]
    fn make_singular_defeats_the_solve() {
        for n in [2, DENSE_LIMIT + 2] {
            let mut st = Stamper::new(n);
            for r in 0..n {
                st.j(r, r, 1.0);
                st.f(r, 1.0);
            }
            st.make_singular(n / 2);
            assert!(st.solve().is_err(), "n = {n} should be singular");
        }
    }

    #[test]
    fn scale_jacobian_preserves_residual() {
        for n in [2, DENSE_LIMIT + 2] {
            let mut st = Stamper::new(n);
            for r in 0..n {
                st.j(r, r, 2.0);
                st.f(r, -4.0);
            }
            st.scale_jacobian(|| 0.5); // J = I now, residual untouched
            assert_eq!(st.residual_norm(), 4.0);
            let dx = st.solve().unwrap();
            assert!(dx.iter().all(|&v| (v - 4.0).abs() < 1e-12), "n = {n}");
        }
    }

    #[test]
    fn nonlinear_current_stamps_partials_on_both_rows() {
        let mut st = Stamper::new(3);
        let d = NodeId(1);
        let s = NodeId(2);
        let g = NodeId(3);
        st.nonlinear_current(d, s, 1e-3, &[(g, 2e-3), (d, 1e-4), (s, -2.1e-3)]);
        // Solve is meaningless here; just verify the residual bookkeeping.
        assert!((st.residual_norm() - 1e-3).abs() < 1e-18);
    }
}
