//! Left-looking sparse LU factorization with partial pivoting
//! (Gilbert–Peierls), in the style of CSparse's `cs_lu`.
//!
//! For each column `j` of `A`, the set of rows reachable from the nonzeros
//! of `A(:, j)` through the directed graph of the already-computed `L`
//! columns is found by depth-first search; a sparse triangular solve over
//! that set yields the numerical column, from which the pivot is chosen by
//! magnitude among not-yet-pivoted rows.

use super::CscMatrix;
use crate::{NumericError, Result};

/// Sentinel for "row not pivoted yet" in the `pinv` map.
const UNPIVOTED: isize = -1;

/// Pivot magnitudes below this threshold are treated as singular.
const PIVOT_EPS: f64 = 1e-300;

/// Why a numeric-only refactorization was rejected (see
/// [`SparseLu::refactor`]). A rejection is not an error: the caller falls
/// back to a fresh [`SparseLu::factor_symbolic`] and records the fallback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefactorReject {
    /// The factorization carries no symbolic record (built with
    /// [`SparseLu::factor`], not [`SparseLu::factor_symbolic`]).
    NoSymbolic,
    /// The input matrix pattern differs from the recorded one.
    PatternMismatch,
    /// A pivot became non-finite or too small to divide by; a fresh
    /// factorization will surface the singularity with full pivoting.
    SmallPivot {
        /// The column whose pivot collapsed.
        column: usize,
        /// Magnitude of the best available pivot.
        pivot: f64,
    },
    /// The values drifted enough that partial pivoting would now choose a
    /// different pivot row — replaying the recorded order would lose the
    /// growth bound (and bitwise agreement with a fresh factorization).
    PivotGrowth {
        /// The column where the recorded pivot lost.
        column: usize,
        /// `|best candidate| / |recorded pivot|` at that column.
        ratio: f64,
    },
    /// The set of numerically nonzero fill positions changed, so the
    /// recorded L/U pattern no longer matches a fresh factorization.
    FillDrift {
        /// The column where the drift was detected.
        column: usize,
    },
}

/// Symbolic replay record for numeric-only refactorization: the input
/// pattern guard plus the replay itself, recorded by
/// [`SparseLu::factor_symbolic`] and compiled at the first
/// [`SparseLu::refactor`].
#[derive(Debug, Clone)]
struct Symbolic {
    /// Input pattern guard: the column pointers of the factored matrix.
    a_col_ptr: Vec<usize>,
    /// Input pattern guard: the row indices of the factored matrix.
    a_row_idx: Vec<usize>,
    replay: Replay,
}

#[derive(Debug, Clone)]
enum Replay {
    /// As the factorization recorded it: the final pivot assignment and
    /// each column's DFS reach.
    Recorded {
        /// Final `pinv`: pivot column of each original row.
        pinv: Vec<isize>,
        /// Per-column slice bounds into `reach_rows`.
        reach_ptr: Vec<usize>,
        /// Concatenated per-column reach sets in recorded post-order.
        reach_rows: Vec<usize>,
    },
    /// Compiled into per-column work lists.
    Compiled(Schedule),
}

/// The replay of a recorded factorization compiled into flat per-column
/// lists, so a refactorization does no `pinv` lookups and no pattern
/// matching. Every list keeps the order the recorded replay walks it in,
/// so the arithmetic — and with it every bit — is unchanged.
#[derive(Debug, Clone)]
struct Schedule {
    /// Per elimination step: where its lists end.
    ends: Vec<ColumnEnds>,
    /// Reach rows outside the input column, cleared before the scatter.
    zero: Vec<u32>,
    /// Sparse triangular solve updates, in replay order.
    updates: Vec<Update>,
    /// Rows still unpivoted at the step, in pivot-scan order.
    candidates: Vec<u32>,
    /// Where each non-pivot reach row's value goes, in reach order.
    stores: Vec<Store>,
}

/// Ends of one step's slices of the [`Schedule`] lists, and whether the
/// step's reach walk matched every stored `L`/`U` slot (a step that does
/// not is rejected as fill drift by every replay, as the recorded replay
/// would).
#[derive(Debug, Clone, Copy)]
struct ColumnEnds {
    zero: u32,
    updates: u32,
    candidates: u32,
    stores: u32,
    complete: bool,
}

/// One replayed column update: `x -= L(:, k) · x[row]` over the stored
/// `L` range `lo..hi` of the pivot column `k` of `row`.
#[derive(Debug, Clone, Copy)]
struct Update {
    row: u32,
    lo: u32,
    hi: u32,
}

/// One entry of a step's store map: the reach `row`, and the `U` or `L`
/// slot its value is stored in, or the pruned position it must stay
/// zero at.
#[derive(Debug, Clone, Copy)]
struct Store {
    row: u32,
    slot: u32,
}

impl Store {
    /// Set in `slot` for an `L` entry (a multiplier), clear for `U`.
    const L: u32 = 1 << 31;
    /// The slot bits of a pruned position.
    const PRUNED: u32 = Store::L - 1;
}

/// A sparse LU factorization `P A Q = L U` with partial (row) pivoting
/// and an optional fill-reducing column permutation `Q` (identity unless
/// built with [`factor_symbolic_with_order`]).
///
/// [`factor_symbolic_with_order`]: SparseLu::factor_symbolic_with_order
///
/// # Example
///
/// ```
/// use nemscmos_numeric::sparse::{CscMatrix, SparseLu};
///
/// # fn main() -> Result<(), nemscmos_numeric::NumericError> {
/// let a = CscMatrix::from_triplets(
///     3,
///     3,
///     &[(0, 0, 4.0), (1, 0, -1.0), (1, 1, 4.0), (2, 1, -1.0), (2, 2, 4.0), (0, 2, -1.0)],
/// );
/// let lu = SparseLu::factor(&a)?;
/// let x = lu.solve(&[3.0, 3.0, 3.0])?;
/// let r = a.mat_vec(&x);
/// assert!(r.iter().all(|&ri| (ri - 3.0).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// `L` columns: strictly-lower multipliers, stored with *original* row
    /// indices (unit diagonal implied).
    l_col_ptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    /// `U` columns: rows stored in *pivot* numbering, excluding the diagonal.
    u_col_ptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<f64>,
    /// Diagonal of `U` per pivot column.
    u_diag: Vec<f64>,
    /// `p[j]` = original row chosen as the pivot of column `j`.
    p: Vec<usize>,
    /// Fill-reducing column order: `q[step]` = original column eliminated
    /// at `step`. `None` means natural order (identity).
    q: Option<Vec<usize>>,
    /// Symbolic replay record, present after `factor_symbolic`.
    sym: Option<Symbolic>,
    /// Scratch column for refactorization (kept across calls).
    scratch: Vec<f64>,
}

impl SparseLu {
    /// Factors the square matrix `a`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] for non-square input and
    /// [`NumericError::SingularMatrix`] if some column has no usable pivot.
    pub fn factor(a: &CscMatrix) -> Result<Self> {
        Self::factor_impl(a, false, None)
    }

    /// Factors `a` exactly like [`factor`](SparseLu::factor) — same pivots,
    /// same arithmetic, bitwise-identical factors — while also recording
    /// the symbolic structure (pivot order and per-column reach) needed by
    /// [`refactor`](SparseLu::refactor).
    ///
    /// # Errors
    ///
    /// Same as [`factor`](SparseLu::factor).
    pub fn factor_symbolic(a: &CscMatrix) -> Result<Self> {
        Self::factor_impl(a, true, None)
    }

    /// Like [`factor_symbolic`](SparseLu::factor_symbolic), but eliminating
    /// the columns of `a` in the order given by the permutation `order`
    /// (`order[step]` = column eliminated at `step`, e.g. from
    /// [`min_degree`](super::min_degree)). The result solves the same
    /// system — [`solve`](SparseLu::solve) un-permutes internally — but a
    /// fill-reducing order can shrink `nnz(L + U)` and factor time
    /// dramatically on grid- and array-structured matrices.
    ///
    /// # Errors
    ///
    /// [`NumericError::InvalidArgument`] if `order` is not a permutation of
    /// `0..a.cols()`, plus everything [`factor`](SparseLu::factor) returns.
    pub fn factor_symbolic_with_order(a: &CscMatrix, order: &[usize]) -> Result<Self> {
        Self::validate_order(a.cols(), order)?;
        Self::factor_impl(a, true, Some(order.to_vec()))
    }

    fn validate_order(n: usize, order: &[usize]) -> Result<()> {
        if order.len() != n {
            return Err(NumericError::DimensionMismatch {
                got: order.len(),
                expected: n,
            });
        }
        let mut seen = vec![false; n];
        for &c in order {
            if c >= n || std::mem::replace(&mut seen[c], true) {
                return Err(NumericError::InvalidArgument(format!(
                    "column order is not a permutation of 0..{n}"
                )));
            }
        }
        Ok(())
    }

    fn factor_impl(a: &CscMatrix, record: bool, order: Option<Vec<usize>>) -> Result<Self> {
        let n = a.rows();
        if a.cols() != n {
            return Err(NumericError::DimensionMismatch {
                got: a.cols(),
                expected: n,
            });
        }
        let mut lu = SparseLu {
            n,
            l_col_ptr: Vec::with_capacity(n + 1),
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            u_col_ptr: Vec::with_capacity(n + 1),
            u_rows: Vec::new(),
            u_vals: Vec::new(),
            u_diag: vec![0.0; n],
            p: vec![usize::MAX; n],
            q: order,
            sym: None,
            scratch: Vec::new(),
        };
        lu.l_col_ptr.push(0);
        lu.u_col_ptr.push(0);
        let mut rec = record.then(|| (vec![0], Vec::new()));

        // pinv[i] = pivot column of original row i, or UNPIVOTED.
        let mut pinv = vec![UNPIVOTED; n];
        // Dense scatter vector for the current column.
        let mut x = vec![0.0f64; n];
        // DFS bookkeeping.
        let mut mark = vec![usize::MAX; n]; // mark[i] == j means visited this column
        let mut topo: Vec<usize> = Vec::with_capacity(n); // reach, topological order
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new(); // (node, next child offset)

        for step in 0..n {
            // Actual column eliminated at this step (identity when no
            // fill-reducing order is installed; `col == step` then, so the
            // natural path is bitwise-unchanged by the indirection).
            let col = match &lu.q {
                Some(q) => q[step],
                None => step,
            };
            let j = step;
            // --- Symbolic: reach of A(:, col) through the graph of L. ---
            topo.clear();
            for (i, _) in a.col(col) {
                if mark[i] != j {
                    Self::dfs(
                        i,
                        j,
                        &pinv,
                        &lu.l_col_ptr,
                        &lu.l_rows,
                        &mut mark,
                        &mut dfs_stack,
                        &mut topo,
                    );
                }
            }
            // topo now holds reach in reverse-topological order (children first
            // within each DFS tree, trees in push order). We need topological
            // order for the solve: process in reverse.
            if let Some((reach_ptr, reach_rows)) = rec.as_mut() {
                reach_rows.extend_from_slice(&topo);
                reach_ptr.push(reach_rows.len());
            }

            // --- Numeric: scatter A(:, col), then sparse triangular solve. ---
            for &i in topo.iter() {
                x[i] = 0.0;
            }
            for (i, v) in a.col(col) {
                x[i] = v;
            }
            for &i in topo.iter().rev() {
                let k = pinv[i];
                if k < 0 {
                    continue; // row not pivoted yet: no L column to apply
                }
                let k = k as usize;
                let xi = x[i];
                if xi == 0.0 {
                    continue;
                }
                for p in lu.l_col_ptr[k]..lu.l_col_ptr[k + 1] {
                    x[lu.l_rows[p]] -= lu.l_vals[p] * xi;
                }
            }

            // --- Pivot selection among unpivoted rows of the reach. ---
            let mut pivot_row = usize::MAX;
            let mut best = 0.0f64;
            for &i in topo.iter() {
                if pinv[i] == UNPIVOTED {
                    let v = x[i].abs();
                    if v > best || pivot_row == usize::MAX {
                        best = v;
                        pivot_row = i;
                    }
                }
            }
            if pivot_row == usize::MAX || best.is_nan() || best <= PIVOT_EPS {
                return Err(NumericError::SingularMatrix {
                    column: col,
                    pivot: if pivot_row == usize::MAX { 0.0 } else { best },
                });
            }
            let pivot_val = x[pivot_row];
            pinv[pivot_row] = j as isize;
            lu.p[j] = pivot_row;
            lu.u_diag[j] = pivot_val;

            // --- Store U(:, j) (pivot-numbered rows) and L(:, j). ---
            for &i in topo.iter() {
                let v = x[i];
                match pinv[i] {
                    k if k >= 0 && (k as usize) < j => {
                        if v != 0.0 {
                            lu.u_rows.push(k as usize);
                            lu.u_vals.push(v);
                        }
                    }
                    k if k == j as isize => {} // the pivot/diagonal itself
                    _ => {
                        // Unpivoted row: multiplier for L.
                        let m = v / pivot_val;
                        if m != 0.0 {
                            lu.l_rows.push(i);
                            lu.l_vals.push(m);
                        }
                    }
                }
            }
            lu.u_col_ptr.push(lu.u_rows.len());
            lu.l_col_ptr.push(lu.l_rows.len());
        }
        if let Some((reach_ptr, reach_rows)) = rec {
            lu.sym = Some(Symbolic {
                a_col_ptr: a.col_ptr().to_vec(),
                a_row_idx: a.row_indices().to_vec(),
                replay: Replay::Recorded {
                    pinv,
                    reach_ptr,
                    reach_rows,
                },
            });
        }
        Ok(lu)
    }

    /// Iterative DFS from `start` through the graph of `L`, appending nodes
    /// to `topo` in reverse-topological (post-) order.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        start: usize,
        j: usize,
        pinv: &[isize],
        l_col_ptr: &[usize],
        l_rows: &[usize],
        mark: &mut [usize],
        stack: &mut Vec<(usize, usize)>,
        topo: &mut Vec<usize>,
    ) {
        stack.clear();
        stack.push((start, 0));
        mark[start] = j;
        while let Some(top) = stack.last_mut() {
            let node = top.0;
            let k = pinv[node];
            let (lo, hi) = if k >= 0 {
                let k = k as usize;
                (l_col_ptr[k], l_col_ptr[k + 1])
            } else {
                (0, 0)
            };
            let mut pending = None;
            while lo + top.1 < hi {
                let next = l_rows[lo + top.1];
                top.1 += 1;
                if mark[next] != j {
                    mark[next] = j;
                    pending = Some(next);
                    break;
                }
            }
            match pending {
                Some(next) => stack.push((next, 0)),
                None => {
                    // Node fully explored: emit in post-order.
                    topo.push(node);
                    stack.pop();
                }
            }
        }
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros in `L` plus `U` (including the diagonal).
    pub fn factor_nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len() + self.n
    }

    /// The fill-reducing column order this factorization eliminates in,
    /// or `None` for natural order.
    pub fn column_order(&self) -> Option<&[usize]> {
        self.q.as_deref()
    }

    /// True when this factorization carries the symbolic record needed by
    /// [`refactor`](SparseLu::refactor).
    pub fn has_symbolic(&self) -> bool {
        self.sym.is_some()
    }

    /// Numeric-only refactorization of `a` over the recorded symbolic
    /// structure: no DFS, no pivot search, no storage growth — the L/U
    /// values are overwritten in place.
    ///
    /// The replay is guarded so that success implies the result is
    /// *bitwise identical* to a fresh [`factor`](SparseLu::factor) of the
    /// same matrix: the input pattern must match the recorded one, every
    /// recorded fill position must stay numerically nonzero (and no new
    /// fill may appear), and the recorded pivot of each column must still
    /// win the partial-pivoting scan. Any drift yields a
    /// [`RefactorReject`]; the caller then falls back to
    /// [`factor_symbolic`](SparseLu::factor_symbolic).
    ///
    /// The first refactorization compiles the record into per-column
    /// lists — the column updates as `(row, L range)` in replay order, the
    /// pivot candidates, and a store map naming the `U` or `L` slot of each
    /// reach row, or its pruned position — and every replay then walks
    /// those lists with no `pinv` lookups or pattern matching. The lists
    /// keep the recorded replay's order and every guard stays: the input
    /// pattern check, the `xi == 0.0` skip (which decides the arithmetic),
    /// the small-pivot and pivot-growth rejects, and fill drift on stored
    /// and pruned positions alike.
    ///
    /// # Errors
    ///
    /// Returns a [`RefactorReject`] describing the first guard that fired.
    /// On rejection the stored factors are partially overwritten and must
    /// not be used for solves — discard this object and factor afresh.
    pub fn refactor(&mut self, a: &CscMatrix) -> std::result::Result<(), RefactorReject> {
        let Some(mut sym) = self.sym.take() else {
            return Err(RefactorReject::NoSymbolic);
        };
        let n = self.n;
        let out = if a.rows() != n
            || a.cols() != n
            || a.col_ptr() != &sym.a_col_ptr[..]
            || a.row_indices() != &sym.a_row_idx[..]
        {
            Err(RefactorReject::PatternMismatch)
        } else {
            if let Replay::Recorded {
                pinv,
                reach_ptr,
                reach_rows,
            } = &sym.replay
            {
                sym.replay = Replay::Compiled(self.compile(pinv, reach_ptr, reach_rows, a));
            }
            match &sym.replay {
                Replay::Compiled(schedule) => self.replay(schedule, a),
                Replay::Recorded { .. } => unreachable!("compiled above"),
            }
        };
        self.sym = Some(sym);
        out
    }

    /// Compiles the recorded replay (final `pinv`, per-column reach) of
    /// this factorization of a matrix with `a`'s pattern into a
    /// [`Schedule`], walking each list exactly as the replay would.
    fn compile(
        &self,
        pinv: &[isize],
        reach_ptr: &[usize],
        reach_rows: &[usize],
        a: &CscMatrix,
    ) -> Schedule {
        let idx = |v: usize| u32::try_from(v).expect("factor index fits u32");
        let mut sch = Schedule {
            ends: Vec::with_capacity(self.n),
            zero: Vec::new(),
            updates: Vec::new(),
            candidates: Vec::new(),
            stores: Vec::new(),
        };
        let mut in_column = vec![usize::MAX; self.n];
        for j in 0..self.n {
            let col = self.q.as_ref().map_or(j, |q| q[j]);
            let reach = &reach_rows[reach_ptr[j]..reach_ptr[j + 1]];
            for (i, _) in a.col(col) {
                in_column[i] = j;
            }
            // The scatter overwrites the input column's rows, so only the
            // rest of the reach needs clearing.
            sch.zero.extend(
                reach
                    .iter()
                    .filter(|&&i| in_column[i] != j)
                    .map(|&i| idx(i)),
            );
            for &i in reach.iter().rev() {
                let k = pinv[i];
                if k < 0 || k as usize >= j {
                    continue;
                }
                let (lo, hi) = (self.l_col_ptr[k as usize], self.l_col_ptr[k as usize + 1]);
                // An empty L column updates nothing.
                if lo < hi {
                    sch.updates.push(Update {
                        row: idx(i),
                        lo: idx(lo),
                        hi: idx(hi),
                    });
                }
            }
            sch.candidates.extend(
                reach
                    .iter()
                    .filter(|&&i| pinv[i] >= j as isize)
                    .map(|&i| idx(i)),
            );
            let (mut up, u_end) = (self.u_col_ptr[j], self.u_col_ptr[j + 1]);
            let (mut lp, l_end) = (self.l_col_ptr[j], self.l_col_ptr[j + 1]);
            for &i in reach {
                let k = pinv[i];
                if k == j as isize {
                    continue; // the pivot/diagonal itself
                }
                let slot = if k >= 0 && (k as usize) < j {
                    if up < u_end && self.u_rows[up] == k as usize {
                        up += 1;
                        idx(up - 1)
                    } else {
                        Store::PRUNED
                    }
                } else if lp < l_end && self.l_rows[lp] == i {
                    lp += 1;
                    Store::L | idx(lp - 1)
                } else {
                    Store::L | Store::PRUNED
                };
                sch.stores.push(Store { row: idx(i), slot });
            }
            sch.ends.push(ColumnEnds {
                zero: idx(sch.zero.len()),
                updates: idx(sch.updates.len()),
                candidates: idx(sch.candidates.len()),
                stores: idx(sch.stores.len()),
                complete: up == u_end && lp == l_end,
            });
        }
        sch
    }

    /// Replays the compiled `schedule` over `a` (whose pattern the caller
    /// checked), overwriting the stored factors in place.
    fn replay(&mut self, sch: &Schedule, a: &CscMatrix) -> std::result::Result<(), RefactorReject> {
        let n = self.n;
        self.scratch.resize(n, 0.0);
        let x = &mut self.scratch[..];
        let (a_ptr, a_rows, a_vals) = (a.col_ptr(), a.row_indices(), a.values());
        let mut start = ColumnEnds {
            zero: 0,
            updates: 0,
            candidates: 0,
            stores: 0,
            complete: true,
        };
        for (j, &end) in sch.ends.iter().enumerate() {
            let col = self.q.as_ref().map_or(j, |q| q[j]);
            // Scatter A(:, col) over the cleared reach, then replay the
            // sparse triangular solve; the `xi == 0.0` skip mirrors
            // `factor` so the arithmetic sequence is identical.
            for &i in &sch.zero[start.zero as usize..end.zero as usize] {
                x[i as usize] = 0.0;
            }
            let (lo, hi) = (a_ptr[col], a_ptr[col + 1]);
            for (&i, &v) in a_rows[lo..hi].iter().zip(&a_vals[lo..hi]) {
                x[i] = v;
            }
            for u in &sch.updates[start.updates as usize..end.updates as usize] {
                let xi = x[u.row as usize];
                if xi == 0.0 {
                    continue;
                }
                let (lo, hi) = (u.lo as usize, u.hi as usize);
                for (&r, &l) in self.l_rows[lo..hi].iter().zip(&self.l_vals[lo..hi]) {
                    x[r] -= l * xi;
                }
            }

            // Replay the pivot scan over the same candidates in the same
            // order; the recorded pivot must still win or the replay would
            // diverge from a fresh factorization.
            let mut pivot_row = usize::MAX;
            let mut best = 0.0f64;
            for &i in &sch.candidates[start.candidates as usize..end.candidates as usize] {
                let v = x[i as usize].abs();
                if v > best || pivot_row == usize::MAX {
                    best = v;
                    pivot_row = i as usize;
                }
            }
            if pivot_row == usize::MAX || best.is_nan() || best <= PIVOT_EPS {
                return Err(RefactorReject::SmallPivot {
                    column: j,
                    pivot: if pivot_row == usize::MAX { 0.0 } else { best },
                });
            }
            if pivot_row != self.p[j] {
                let recorded = x[self.p[j]].abs();
                return Err(RefactorReject::PivotGrowth {
                    column: j,
                    ratio: if recorded > 0.0 {
                        best / recorded
                    } else {
                        f64::INFINITY
                    },
                });
            }
            let pivot_val = x[pivot_row];
            self.u_diag[j] = pivot_val;

            // Overwrite the stored L/U slots in place. `factor` prunes
            // exact zeros from storage, so the recorded pattern is valid
            // only while every stored slot stays nonzero and every pruned
            // reach position stays zero.
            for s in &sch.stores[start.stores as usize..end.stores as usize] {
                let is_l = s.slot & Store::L != 0;
                let v = if is_l {
                    x[s.row as usize] / pivot_val
                } else {
                    x[s.row as usize]
                };
                let slot = s.slot & !Store::L;
                if (slot == Store::PRUNED) != (v == 0.0) {
                    return Err(RefactorReject::FillDrift { column: j });
                }
                if slot != Store::PRUNED {
                    if is_l {
                        self.l_vals[slot as usize] = v;
                    } else {
                        self.u_vals[slot as usize] = v;
                    }
                }
            }
            if !end.complete {
                return Err(RefactorReject::FillDrift { column: j });
            }
            start = end;
        }
        Ok(())
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.n;
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                got: b.len(),
                expected: n,
            });
        }
        // Forward solve L y = P b, working on a copy indexed by original row.
        let mut work = b.to_vec();
        let mut y = vec![0.0f64; n];
        for j in 0..n {
            let yj = work[self.p[j]];
            y[j] = yj;
            if yj != 0.0 {
                for p in self.l_col_ptr[j]..self.l_col_ptr[j + 1] {
                    work[self.l_rows[p]] -= self.l_vals[p] * yj;
                }
            }
        }
        // Back solve U z = y (U stored by column, pivot-numbered rows).
        for j in (0..n).rev() {
            y[j] /= self.u_diag[j];
            let xj = y[j];
            if xj != 0.0 {
                for p in self.u_col_ptr[j]..self.u_col_ptr[j + 1] {
                    y[self.u_rows[p]] -= self.u_vals[p] * xj;
                }
            }
        }
        // z is indexed by elimination step; un-permute the fill-reducing
        // column order (natural order returns z directly, untouched).
        match &self.q {
            None => Ok(y),
            Some(q) => {
                let mut x = vec![0.0f64; n];
                for (step, &col) in q.iter().enumerate() {
                    x[col] = y[step];
                }
                Ok(x)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual_inf(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
        a.mat_vec(x)
            .iter()
            .zip(b.iter())
            .fold(0.0f64, |m, (ri, bi)| m.max((ri - bi).abs()))
    }

    #[test]
    fn solves_diagonal_system() {
        let a = CscMatrix::from_triplets(3, 3, &[(0, 0, 2.0), (1, 1, 4.0), (2, 2, 8.0)]);
        let lu = SparseLu::factor(&a).unwrap();
        let x = lu.solve(&[2.0, 4.0, 8.0]).unwrap();
        assert_eq!(x, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn solves_permutation_requiring_pivoting() {
        // [[0, 1], [1, 0]] has zeros on the diagonal.
        let a = CscMatrix::from_triplets(2, 2, &[(1, 0, 1.0), (0, 1, 1.0)]);
        let lu = SparseLu::factor(&a).unwrap();
        let x = lu.solve(&[3.0, 9.0]).unwrap();
        assert_eq!(x, vec![9.0, 3.0]);
    }

    #[test]
    fn tridiagonal_poisson_system() {
        // Classic -1/2/-1 Poisson matrix, n = 50.
        let n = 50;
        let mut tr = Vec::new();
        for i in 0..n {
            tr.push((i, i, 2.0));
            if i + 1 < n {
                tr.push((i, i + 1, -1.0));
                tr.push((i + 1, i, -1.0));
            }
        }
        let a = CscMatrix::from_triplets(n, n, &tr);
        let lu = SparseLu::factor(&a).unwrap();
        let b = vec![1.0; n];
        let x = lu.solve(&b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-10);
        // Solution of the discrete Poisson problem is positive and symmetric.
        assert!(x.iter().all(|&v| v > 0.0));
        assert!((x[0] - x[n - 1]).abs() < 1e-9);
    }

    #[test]
    fn singular_matrix_is_detected() {
        // Column 1 is all zero.
        let a = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0)]);
        assert!(matches!(
            SparseLu::factor(&a),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = CscMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(matches!(
            SparseLu::factor(&a),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_rhs_length() {
        let a = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let lu = SparseLu::factor(&a).unwrap();
        assert!(matches!(
            lu.solve(&[1.0]),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn refactor_matches_fresh_factor_bitwise() {
        // Same pattern, new values: the replay must reproduce a fresh
        // factorization exactly, including the solve.
        let n = 30;
        let pattern: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| {
                let mut v = vec![(i, i)];
                if i + 1 < n {
                    v.push((i, i + 1));
                    v.push((i + 1, i));
                }
                if i > 2 {
                    v.push((i, i - 3));
                }
                v
            })
            .collect();
        let vals = |seed: f64| -> Vec<(usize, usize, f64)> {
            pattern
                .iter()
                .map(|&(r, c)| {
                    let off = ((r * 7 + c * 13) % 11) as f64 * 0.083 * seed;
                    let v = if r == c { 6.0 + off } else { -1.0 - off };
                    (r, c, v)
                })
                .collect()
        };
        let a0 = CscMatrix::from_triplets(n, n, &vals(1.0));
        let a1 = CscMatrix::from_triplets(n, n, &vals(1.7));
        let mut lu = SparseLu::factor_symbolic(&a0).unwrap();
        assert!(lu.has_symbolic());
        lu.refactor(&a1)
            .expect("same-pattern refactor must succeed");
        let fresh = SparseLu::factor(&a1).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 3.5).collect();
        let x_re = lu.solve(&b).unwrap();
        let x_fresh = fresh.solve(&b).unwrap();
        for (a, b) in x_re.iter().zip(x_fresh.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "refactor drifted from fresh");
        }
    }

    #[test]
    fn refactor_rejects_pivot_drift() {
        // [[eps, 1], [1, eps]] pivots off-diagonal; swapping the magnitudes
        // moves the winning pivot row, which the replay must refuse.
        let a0 =
            CscMatrix::from_triplets(2, 2, &[(0, 0, 0.1), (1, 0, 2.0), (0, 1, 2.0), (1, 1, 0.1)]);
        let a1 =
            CscMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 0, 0.1), (0, 1, 0.1), (1, 1, 2.0)]);
        let mut lu = SparseLu::factor_symbolic(&a0).unwrap();
        match lu.refactor(&a1) {
            Err(RefactorReject::PivotGrowth { column: 0, ratio }) => {
                assert!(ratio > 1.0, "ratio {ratio} should exceed 1");
            }
            other => panic!("expected PivotGrowth, got {other:?}"),
        }
    }

    #[test]
    fn refactor_rejects_small_pivot_and_pattern_drift() {
        let a0 = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let mut lu = SparseLu::factor_symbolic(&a0).unwrap();
        // Zeroed column: the replay reports the collapse as SmallPivot.
        let a_sing = CscMatrix::from_triplets(2, 2, &[(0, 0, 0.0), (1, 1, 1.0)]);
        assert!(matches!(
            lu.refactor(&a_sing),
            Err(RefactorReject::SmallPivot { column: 0, .. })
        ));
        // Different structural pattern: rejected before any numerics.
        let mut lu2 = SparseLu::factor_symbolic(&a0).unwrap();
        let a_wide = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 0.5), (1, 1, 1.0)]);
        assert!(matches!(
            lu2.refactor(&a_wide),
            Err(RefactorReject::PatternMismatch)
        ));
        // No symbolic record at all.
        let mut plain = SparseLu::factor(&a0).unwrap();
        assert!(matches!(
            plain.refactor(&a0),
            Err(RefactorReject::NoSymbolic)
        ));
    }

    #[test]
    fn identity_order_matches_natural_bitwise() {
        let n = 25;
        let mut tr = Vec::new();
        for i in 0..n {
            tr.push((i, i, 3.0 + 0.1 * i as f64));
            if i + 1 < n {
                tr.push((i, i + 1, -1.0));
                tr.push((i + 1, i, -0.7));
            }
        }
        let a = CscMatrix::from_triplets(n, n, &tr);
        let identity: Vec<usize> = (0..n).collect();
        let natural = SparseLu::factor_symbolic(&a).unwrap();
        let ordered = SparseLu::factor_symbolic_with_order(&a, &identity).unwrap();
        assert_eq!(natural.factor_nnz(), ordered.factor_nnz());
        let b: Vec<f64> = (0..n).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let xn = natural.solve(&b).unwrap();
        let xo = ordered.solve(&b).unwrap();
        for (u, v) in xn.iter().zip(xo.iter()) {
            assert_eq!(u.to_bits(), v.to_bits(), "identity order must be a no-op");
        }
    }

    #[test]
    fn ordered_factor_reduces_arrow_fill_and_solves() {
        // Arrow matrix with the hub first: natural order fills in
        // completely, minimum degree keeps the factors sparse.
        let n = 40;
        let mut tr = Vec::new();
        for i in 0..n {
            tr.push((i, i, 4.0 + 0.01 * i as f64));
            if i > 0 {
                tr.push((0, i, 1.0));
                tr.push((i, 0, -0.5));
            }
        }
        let a = CscMatrix::from_triplets(n, n, &tr);
        let q = super::super::min_degree(&a);
        let natural = SparseLu::factor_symbolic(&a).unwrap();
        let ordered = SparseLu::factor_symbolic_with_order(&a, &q).unwrap();
        assert!(
            ordered.factor_nnz() < natural.factor_nnz() / 2,
            "ordered fill {} should beat natural fill {}",
            ordered.factor_nnz(),
            natural.factor_nnz()
        );
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let x = ordered.solve(&b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn ordered_refactor_matches_fresh_ordered_bitwise() {
        // The refactor-replay bitwise guarantee must survive a column
        // permutation: replaying new values over the ordered symbolic
        // record equals a fresh ordered factorization bit for bit.
        let n = 30;
        let pattern: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| {
                let mut v = vec![(i, i)];
                if i + 1 < n {
                    v.push((i, i + 1));
                    v.push((i + 1, i));
                }
                if i > 4 {
                    v.push((i, i - 5));
                    v.push((i - 5, i));
                }
                v
            })
            .collect();
        let vals = |seed: f64| -> Vec<(usize, usize, f64)> {
            pattern
                .iter()
                .map(|&(r, c)| {
                    let off = ((r * 5 + c * 17) % 13) as f64 * 0.071 * seed;
                    let v = if r == c { 8.0 + off } else { -1.0 - off };
                    (r, c, v)
                })
                .collect()
        };
        let a0 = CscMatrix::from_triplets(n, n, &vals(1.0));
        let a1 = CscMatrix::from_triplets(n, n, &vals(1.3));
        let q = super::super::min_degree(&a0);
        let mut lu = SparseLu::factor_symbolic_with_order(&a0, &q).unwrap();
        lu.refactor(&a1)
            .expect("same-pattern ordered refactor must succeed");
        let fresh = SparseLu::factor_symbolic_with_order(&a1, &q).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 7.5).collect();
        let x_re = lu.solve(&b).unwrap();
        let x_fresh = fresh.solve(&b).unwrap();
        for (a, b) in x_re.iter().zip(x_fresh.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "ordered refactor drifted");
        }
    }

    #[test]
    fn rejects_invalid_column_order() {
        let a = CscMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        assert!(matches!(
            SparseLu::factor_symbolic_with_order(&a, &[0, 1]),
            Err(NumericError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            SparseLu::factor_symbolic_with_order(&a, &[0, 0, 2]),
            Err(NumericError::InvalidArgument(_))
        ));
        assert!(matches!(
            SparseLu::factor_symbolic_with_order(&a, &[0, 1, 5]),
            Err(NumericError::InvalidArgument(_))
        ));
    }

    #[test]
    fn unsymmetric_system_with_fill_in() {
        // An arrow matrix creates fill during elimination.
        let n = 20;
        let mut tr = Vec::new();
        for i in 0..n {
            tr.push((i, i, 3.0 + i as f64 * 0.1));
            if i > 0 {
                tr.push((0, i, 1.0));
                tr.push((i, 0, -0.5));
            }
        }
        let a = CscMatrix::from_triplets(n, n, &tr);
        let lu = SparseLu::factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 4.0).collect();
        let x = lu.solve(&b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-10);
    }
}
