//! Column-major dense matrices and LU factorization with partial pivoting.
//!
//! Dense solves are used for small circuit Jacobians (a handful of nodes),
//! for the normal equations of polynomial least-squares fits, and as the
//! reference oracle in property tests of the sparse LU.
//!
//! # The compiled refactor
//!
//! A circuit Jacobian keeps its nonzero pattern across Newton
//! iterations, and its LU is sparse even when it is stored densely (a
//! 26-unknown Jacobian with 67 nonzeros has 103 in its factors). The
//! first [`DenseLu::refactor`] therefore compiles a schedule: it
//! eliminates the input's pattern symbolically under the row swaps of
//! the last kernel run (recovered from its permutation), and records
//! the structural entries to gather, already in final row order, and,
//! per elimination step, the pivot candidates in the kernel's scan
//! order, the rows with a structural multiplier and the columns with a
//! structural `U` entry. Later refactors replay those lists with no row
//! swaps and no work on structural zeros. A guard that fires rejects
//! the replay: an input nonzero outside the structure, a recorded pivot
//! that is not the first maximum of its candidates (or is NaN or at
//! most the singularity threshold), or a non-finite multiplier. The
//! kernel then runs on the same input, errors included, and the
//! schedule is recompiled over the union of the patterns seen so far,
//! so a value that flips between zero and nonzero does not recompile
//! it again.
//!
//! A replay is bitwise equal to the kernel. The structure is closed
//! under elimination, so outside it the kernel only ever holds zeros: a
//! multiplier there is a zero over the pivot, and an update there is a
//! finite multiplier times a zero `U` entry. The updates the replay
//! skips — zero multipliers (the kernel's own `m != 0.0` test) and zero
//! `U` entries — therefore add signed zeros, which change at most the
//! sign of an entry that is zero. Every other update is the kernel's
//! operation (`x - m * u` is the kernel's `x + -m * u` bit for bit),
//! applied to each entry in the same ascending step order, and the
//! guards make every pivot the kernel's choice. The factors thus differ
//! only in the sign of zero entries. The kernel's triangular solves skip
//! zero entries, and the replay's solve skips them in the same order
//! (forward by ascending step, back by ascending column per row), so
//! the solution is bit for bit the kernel's.

use crate::{NumericError, Result};

/// A column-major dense matrix of `f64`.
///
/// # Example
///
/// ```
/// use nemscmos_numeric::dense::DenseMatrix;
///
/// let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(a.get(1, 0), 3.0);
/// let y = a.mat_vec(&[1.0, 1.0]);
/// assert_eq!(y, vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    /// Column-major storage: element (r, c) lives at `data[c * rows + r]`.
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nr = rows.len();
        let nc = rows.first().map_or(0, |r| r.len());
        let mut m = DenseMatrix::zeros(nr, nc);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), nc, "inconsistent row length in from_rows");
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[c * self.rows + r]
    }

    /// Sets element `(r, c)` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[c * self.rows + r] = v;
    }

    /// Adds `v` to element `(r, c)` — the natural operation for MNA stamping.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[c * self.rows + r] += v;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mat_vec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            let col = &self.data[c * self.rows..(c + 1) * self.rows];
            for (yr, &a) in y.iter_mut().zip(col.iter()) {
                *yr += a * xc;
            }
        }
        y
    }

    /// Factors the matrix in place and solves `A x = b`.
    ///
    /// This is a convenience wrapper around [`DenseLu::factor`] for one-shot
    /// solves; reuse a [`DenseLu`] when solving with several right-hand
    /// sides.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::SingularMatrix`] if a zero pivot is
    /// encountered and [`NumericError::DimensionMismatch`] if `b` has the
    /// wrong length or the matrix is not square.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let lu = DenseLu::factor(self.clone())?;
        lu.solve(b)
    }
}

/// An LU factorization (with partial pivoting) of a square [`DenseMatrix`].
///
/// # Example
///
/// ```
/// use nemscmos_numeric::dense::{DenseLu, DenseMatrix};
///
/// # fn main() -> Result<(), nemscmos_numeric::NumericError> {
/// let a = DenseMatrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]);
/// let lu = DenseLu::factor(a)?;
/// let x = lu.solve(&[2.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DenseLu {
    lu: DenseMatrix,
    /// Row permutation: `perm[k]` is the original row used as the k-th pivot.
    perm: Vec<usize>,
    /// The compiled refactor, always compiled under `perm`; built by the
    /// first [`refactor`](DenseLu::refactor).
    schedule: Option<Schedule>,
    /// Whether the stored factors came from a replay of `schedule`, so
    /// [`solve`](DenseLu::solve) may walk its lists.
    replayed: bool,
}

/// Pivot magnitudes below this threshold are treated as singular.
const PIVOT_EPS: f64 = 1e-300;

/// The kernel's elimination compiled over a nonzero structure into flat
/// lists (see the module doc). Factor indices are column-major in final
/// row order, as the kernel leaves its factors.
#[derive(Debug, Clone, Default)]
struct Schedule {
    /// Union of the input patterns compiled so far, column-major in input
    /// row order.
    pattern: Vec<bool>,
    /// Every structural entry, in factor order.
    gather: Vec<Gather>,
    /// Per input index: every bit but the sign off the structure, zero
    /// on it, so a masked input entry is nonzero exactly when an input
    /// nonzero (NaN included) lies outside the structure.
    outside: Vec<u64>,
    /// Per elimination step: where its slices of the lists below end.
    ends: Vec<StepEnds>,
    /// Final rows of the pivot candidates, in the kernel's scan order.
    candidates: Vec<u32>,
    /// Final rows below the diagonal with a structural multiplier.
    rows: Vec<u32>,
    /// Columns right of the diagonal with a structural `U` entry,
    /// ascending.
    cols: Vec<u32>,
}

/// One structural entry: its input index and its factor index.
#[derive(Debug, Clone, Copy)]
struct Gather {
    src: u32,
    dst: u32,
}

/// Ends of one step's slices of the [`Schedule`] lists.
#[derive(Debug, Clone, Copy, Default)]
struct StepEnds {
    candidates: u32,
    rows: u32,
    cols: u32,
}

impl Schedule {
    /// A schedule of `pattern` (an `n x n` column-major input pattern)
    /// under the row order `perm`; see [`recompile`](Schedule::recompile).
    fn compile(n: usize, perm: &[usize], pattern: Vec<bool>) -> Schedule {
        let mut sch = Schedule {
            pattern,
            ..Schedule::default()
        };
        sch.recompile(n, perm);
        sch
    }

    /// Eliminates `self.pattern` symbolically under the row order `perm`
    /// that a kernel run chose, replaying its swaps to recover each
    /// step's pivot scan order, and rebuilds the lists in place.
    fn recompile(&mut self, n: usize, perm: &[usize]) {
        let idx = |v: usize| u32::try_from(v).expect("dense index fits u32");
        let mut final_row = vec![0; n];
        for (i, &r) in perm.iter().enumerate() {
            final_row[r] = i;
        }
        // The structure, column-major in final row order; fill is added
        // step by step, so column `k` and row `k` are complete at step `k`.
        let mut s = vec![false; n * n];
        for c in 0..n {
            for (i, &r) in perm.iter().enumerate() {
                s[c * n + i] = self.pattern[c * n + r];
            }
        }
        self.gather.clear();
        self.outside.clear();
        self.ends.clear();
        self.candidates.clear();
        self.rows.clear();
        self.cols.clear();
        // The kernel's row arrangement: the input row at each position,
        // and the position of each input row.
        let mut row_at: Vec<usize> = (0..n).collect();
        let mut pos_of: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let col = &s[k * n..(k + 1) * n];
            self.candidates.extend(
                row_at[k..]
                    .iter()
                    .map(|&r| final_row[r])
                    .filter(|&i| col[i])
                    .map(idx),
            );
            let p = pos_of[perm[k]];
            row_at.swap(k, p);
            pos_of[row_at[k]] = k;
            pos_of[row_at[p]] = p;
            let rows_start = self.rows.len();
            self.rows.extend((k + 1..n).filter(|&i| col[i]).map(idx));
            let cols_start = self.cols.len();
            self.cols
                .extend((k + 1..n).filter(|&c| s[c * n + k]).map(idx));
            for &c in &self.cols[cols_start..] {
                for &i in &self.rows[rows_start..] {
                    s[c as usize * n + i as usize] = true;
                }
            }
            self.ends.push(StepEnds {
                candidates: idx(self.candidates.len()),
                rows: idx(self.rows.len()),
                cols: idx(self.cols.len()),
            });
        }
        for c in 0..n {
            for (i, &r) in perm.iter().enumerate() {
                if s[c * n + i] {
                    self.gather.push(Gather {
                        src: idx(c * n + r),
                        dst: idx(c * n + i),
                    });
                }
            }
        }
        self.outside.extend((0..n * n).map(|src| {
            let on = s[(src / n) * n + final_row[src % n]];
            if on {
                0
            } else {
                !0 >> 1
            }
        }));
    }

    /// One step's slices of the lists, from the previous step's ends to
    /// its own.
    fn step(&self, start: StepEnds, end: StepEnds) -> (&[u32], &[u32], &[u32]) {
        (
            &self.candidates[start.candidates as usize..end.candidates as usize],
            &self.rows[start.rows as usize..end.rows as usize],
            &self.cols[start.cols as usize..end.cols as usize],
        )
    }

    /// Replays the elimination of `a` into `lu` (both `n x n`
    /// column-major). Returns `false` when a guard fires, leaving `lu`
    /// partially overwritten.
    fn replay(&self, a: &[f64], lu: &mut [f64], n: usize) -> bool {
        let outside_bits = a
            .iter()
            .zip(&self.outside)
            .fold(0, |bits, (v, mask)| bits | (v.to_bits() & mask));
        if outside_bits != 0 {
            return false;
        }
        for g in &self.gather {
            lu[g.dst as usize] = a[g.src as usize];
        }
        let mut start = StepEnds::default();
        for (k, &end) in self.ends.iter().enumerate() {
            let (candidates, rows, cols) = self.step(start, end);
            start = end;
            let col = k * n;
            // The kernel's scan: the first strict maximum wins, and NaN
            // never does.
            let (mut best, mut winner) = (0.0f64, usize::MAX);
            for &i in candidates {
                let v = lu[col + i as usize].abs();
                if v > best {
                    best = v;
                    winner = i as usize;
                }
            }
            if winner != k || best <= PIVOT_EPS {
                return false;
            }
            let pivot = lu[col + k];
            for &i in rows {
                let i = i as usize;
                let m = lu[col + i] / pivot;
                lu[col + i] = m;
                if m == 0.0 {
                    continue;
                }
                if !m.is_finite() {
                    return false;
                }
                for &c in cols {
                    let c = c as usize * n;
                    let u = lu[c + k];
                    if u != 0.0 {
                        lu[c + i] -= m * u;
                    }
                }
            }
        }
        true
    }

    /// Forward and back substitution of the permuted right-hand side `x`
    /// over replayed factors `lu`, in the kernel's order.
    fn solve(&self, lu: &[f64], n: usize, x: &mut [f64]) {
        let mut start = StepEnds::default();
        for (k, &end) in self.ends.iter().enumerate() {
            let (_, rows, _) = self.step(start, end);
            start = end;
            for &i in rows {
                let m = lu[k * n + i as usize];
                if m != 0.0 {
                    x[i as usize] -= m * x[k];
                }
            }
        }
        for k in (0..n).rev() {
            let start = if k == 0 {
                StepEnds::default()
            } else {
                self.ends[k - 1]
            };
            let (_, _, cols) = self.step(start, self.ends[k]);
            for &c in cols {
                let u = lu[c as usize * n + k];
                if u != 0.0 {
                    x[k] -= u * x[c as usize];
                }
            }
            x[k] /= lu[k * n + k];
        }
    }
}

impl DenseLu {
    /// Factors `a` as `P A = L U` using partial (row) pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] for non-square input and
    /// [`NumericError::SingularMatrix`] if no usable pivot exists in some
    /// column.
    pub fn factor(a: DenseMatrix) -> Result<Self> {
        let n = a.rows;
        if a.cols != n {
            return Err(NumericError::DimensionMismatch {
                got: a.cols,
                expected: n,
            });
        }
        let mut lu = DenseLu {
            lu: a,
            perm: (0..n).collect(),
            schedule: None,
            replayed: false,
        };
        Self::eliminate(&mut lu.lu, &mut lu.perm)?;
        Ok(lu)
    }

    /// Refactors `a` in place, reusing this factorization's storage — no
    /// allocation while the replay holds, and the pivots and solution
    /// bits of a fresh [`factor`](DenseLu::factor).
    ///
    /// The first call compiles a schedule from `a`'s pattern and the row
    /// swaps of the last elimination; every call then replays it, with
    /// no row swaps and no work on structural zeros. When a guard fires
    /// (an input nonzero outside the compiled structure, a recorded
    /// pivot that no longer wins the partial-pivoting scan or is
    /// unusable, a non-finite multiplier) the elimination kernel runs on
    /// `a` instead and the schedule is recompiled over the union of the
    /// patterns seen. Either way [`solve`](DenseLu::solve) returns the
    /// bits a fresh factorization's would (the argument is in the
    /// [module doc](self)); [`replayed`](DenseLu::replayed) tells the
    /// two paths apart.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `a`'s shape differs
    /// from the stored one and [`NumericError::SingularMatrix`] if no
    /// usable pivot exists in some column. After an error the stored
    /// factors are partially overwritten and must not be used for solves.
    pub fn refactor(&mut self, a: &DenseMatrix) -> Result<()> {
        let n = self.lu.rows;
        if a.rows != n || a.cols != n {
            return Err(NumericError::DimensionMismatch {
                got: a.rows,
                expected: n,
            });
        }
        let schedule = self.schedule.get_or_insert_with(|| {
            let pattern = a.data.iter().map(|&v| v != 0.0).collect();
            Schedule::compile(n, &self.perm, pattern)
        });
        self.replayed = schedule.replay(&a.data, &mut self.lu.data, n);
        if self.replayed {
            return Ok(());
        }
        // The kernel's run replaces `perm`, so the schedule goes with it:
        // recompiled in place after a success, none after an error.
        let mut schedule = self.schedule.take().expect("compiled above");
        self.lu.data.copy_from_slice(&a.data);
        for (k, p) in self.perm.iter_mut().enumerate() {
            *p = k;
        }
        Self::eliminate(&mut self.lu, &mut self.perm)?;
        for (seen, &v) in schedule.pattern.iter_mut().zip(&a.data) {
            *seen |= v != 0.0;
        }
        schedule.recompile(n, &self.perm);
        self.schedule = Some(schedule);
        Ok(())
    }

    /// Whether the stored factors came from a replay of the compiled
    /// schedule rather than the elimination kernel: `true` after a
    /// [`refactor`](DenseLu::refactor) whose guards all held, `false`
    /// after [`factor`](DenseLu::factor) and after a refactor that fell
    /// back to the kernel.
    pub fn replayed(&self) -> bool {
        self.replayed
    }

    /// The shared elimination kernel: partial-pivot LU of `a` in place,
    /// recording the row permutation in `perm`.
    fn eliminate(a: &mut DenseMatrix, perm: &mut [usize]) -> Result<()> {
        let n = a.rows;
        for k in 0..n {
            // Find pivot: largest magnitude in column k at or below the diagonal.
            let mut p = k;
            let mut best = a.get(k, k).abs();
            for r in (k + 1)..n {
                let v = a.get(r, k).abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best.is_nan() || best <= PIVOT_EPS {
                return Err(NumericError::SingularMatrix {
                    column: k,
                    pivot: best,
                });
            }
            if p != k {
                perm.swap(k, p);
                for c in 0..n {
                    let t = a.get(k, c);
                    a.set(k, c, a.get(p, c));
                    a.set(p, c, t);
                }
            }
            let pivot = a.get(k, k);
            for r in (k + 1)..n {
                let m = a.get(r, k) / pivot;
                a.set(r, k, m);
                if m != 0.0 {
                    for c in (k + 1)..n {
                        a.add(r, c, -m * a.get(k, c));
                    }
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.lu.rows
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// Replayed factors are walked over the compiled schedule's lists,
    /// kernel factors over every entry; both skip zero entries in the
    /// same order, so the result bits do not depend on the path.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                got: b.len(),
                expected: n,
            });
        }
        // Apply permutation.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        if let Some(sch) = self.schedule.as_ref().filter(|_| self.replayed) {
            sch.solve(&self.lu.data, n, &mut x);
            return Ok(x);
        }
        // Forward substitution with unit-diagonal L.
        for k in 0..n {
            for r in (k + 1)..n {
                let m = self.lu.get(r, k);
                if m != 0.0 {
                    x[r] -= m * x[k];
                }
            }
        }
        // Back substitution with U.
        for k in (0..n).rev() {
            for c in (k + 1)..n {
                let u = self.lu.get(k, c);
                if u != 0.0 {
                    x[k] -= u * x[c];
                }
            }
            x[k] /= self.lu.get(k, k);
        }
        Ok(x)
    }
}

/// Solves the linear least-squares problem `min ||A x - b||_2` via the
/// normal equations `A^T A x = A^T b`.
///
/// Adequate for the low-order polynomial fits used by the device models
/// (condition numbers stay small for degree ≤ 6 on normalized abscissae).
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] if `b.len() != a.rows()` and
/// [`NumericError::SingularMatrix`] if `A^T A` is singular (rank-deficient
/// fit).
pub fn least_squares(a: &DenseMatrix, b: &[f64]) -> Result<Vec<f64>> {
    if b.len() != a.rows() {
        return Err(NumericError::DimensionMismatch {
            got: b.len(),
            expected: a.rows(),
        });
    }
    let m = a.rows();
    let n = a.cols();
    let mut ata = DenseMatrix::zeros(n, n);
    let mut atb = vec![0.0; n];
    for (i, atb_i) in atb.iter_mut().enumerate() {
        for j in 0..n {
            let mut s = 0.0;
            for r in 0..m {
                s += a.get(r, i) * a.get(r, j);
            }
            ata.set(i, j, s);
        }
        *atb_i = b.iter().enumerate().map(|(r, &br)| a.get(r, i) * br).sum();
    }
    ata.solve(&atb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solves_to_rhs() {
        let a = DenseMatrix::identity(4);
        let b = [1.0, -2.0, 3.0, 0.5];
        let x = a.solve(&b).unwrap();
        for (xi, bi) in x.iter().zip(b.iter()) {
            assert!((xi - bi).abs() < 1e-15);
        }
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-15);
        assert!((x[1] - 5.0).abs() < 1e-15);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match a.solve(&[1.0, 2.0]) {
            Err(NumericError::SingularMatrix { .. }) => {}
            other => panic!("expected SingularMatrix, got {other:?}"),
        }
    }

    #[test]
    fn non_square_factor_is_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            DenseLu::factor(a),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn wrong_rhs_length_is_rejected() {
        let a = DenseMatrix::identity(3);
        let lu = DenseLu::factor(a).unwrap();
        assert!(matches!(
            lu.solve(&[1.0, 2.0]),
            Err(NumericError::DimensionMismatch {
                got: 2,
                expected: 3
            })
        ));
    }

    #[test]
    fn solve_matches_mat_vec_roundtrip() {
        let a = DenseMatrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]);
        let x_true = [1.0, 2.0, 3.0];
        let b = a.mat_vec(&x_true);
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn refactor_matches_fresh_factor_bitwise() {
        let a0 =
            DenseMatrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]);
        let a1 = DenseMatrix::from_rows(&[&[0.5, 3.0, -1.0], &[7.0, 0.1, 2.0], &[-1.0, 2.5, 0.3]]);
        let mut lu = DenseLu::factor(a0).unwrap();
        lu.refactor(&a1).unwrap();
        let fresh = DenseLu::factor(a1).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x_re = lu.solve(&b).unwrap();
        let x_fresh = fresh.solve(&b).unwrap();
        for (p, q) in x_re.iter().zip(x_fresh.iter()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        // Shape mismatch is rejected.
        assert!(matches!(
            lu.refactor(&DenseMatrix::zeros(2, 2)),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn refactor_replays_until_a_guard_fires() {
        let a = DenseMatrix::from_rows(&[&[4.0, -1.0, 0.0], &[-1.0, 4.0, 0.0], &[0.0, 0.0, 2.0]]);
        let b = [1.0, 2.0, 3.0];
        let mut lu = DenseLu::factor(a.clone()).unwrap();
        assert!(!lu.replayed(), "factor runs the kernel");
        let check = |lu: &mut DenseLu, m: &DenseMatrix, replays: bool| {
            lu.refactor(m).unwrap();
            assert_eq!(lu.replayed(), replays);
            let fresh = DenseLu::factor(m.clone()).unwrap().solve(&b).unwrap();
            for (p, q) in lu.solve(&b).unwrap().iter().zip(&fresh) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        };
        check(&mut lu, &a, true);
        // Row 1 outgrows row 0 in column 0: the recorded pivot loses.
        let mut swapped = a.clone();
        swapped.set(1, 0, -9.0);
        check(&mut lu, &swapped, false);
        check(&mut lu, &swapped, true);
        // A nonzero outside the compiled structure.
        let mut coupled = swapped.clone();
        coupled.set(2, 0, 0.5);
        check(&mut lu, &coupled, false);
        check(&mut lu, &coupled, true);
        // Back to a sub-pattern with the same pivots: the union holds it.
        check(&mut lu, &swapped, true);
    }

    #[test]
    fn least_squares_recovers_exact_line() {
        // Fit y = 2 + 3 t through exact samples.
        let ts = [0.0, 1.0, 2.0, 3.0];
        let mut a = DenseMatrix::zeros(4, 2);
        let mut b = vec![0.0; 4];
        for (r, &t) in ts.iter().enumerate() {
            a.set(r, 0, 1.0);
            a.set(r, 1, t);
            b[r] = 2.0 + 3.0 * t;
        }
        let c = least_squares(&a, &b).unwrap();
        assert!((c[0] - 2.0).abs() < 1e-12);
        assert!((c[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_rejects_bad_rhs() {
        let a = DenseMatrix::zeros(3, 2);
        assert!(matches!(
            least_squares(&a, &[1.0]),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn clear_zeroes_all_entries() {
        let mut a = DenseMatrix::identity(3);
        a.clear();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a.get(i, j), 0.0);
            }
        }
    }
}
