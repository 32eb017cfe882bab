//! Property-based tests of the numerical kernels, running on the
//! vendored `nemscmos_numeric::check` runner (seeded generation plus
//! record-level shrinking — no external `proptest` dependency).

use nemscmos_numeric::check::{check, Config, Draws};
use nemscmos_numeric::complex::Complex;
use nemscmos_numeric::dense::{DenseLu, DenseMatrix};
use nemscmos_numeric::interp::{trapezoid, PiecewiseLinear};
use nemscmos_numeric::poly::Polynomial;
use nemscmos_numeric::prop_check;
use nemscmos_numeric::roots::{bisect, brent};
use nemscmos_numeric::sparse::{min_degree, CscMatrix, SparseLu};
use nemscmos_numeric::stats::{quantile, Summary};
use nemscmos_numeric::NumericError;

/// Generator: a random diagonally dominant system as triplets plus a
/// random right-hand side. The strong diagonal keeps it nonsingular
/// regardless of the random off-diagonal content.
fn dominant_system(d: &mut Draws, n: usize) -> (Vec<(usize, usize, f64)>, Vec<f64>) {
    let mut tri = d.vec_of(0, 3 * n, |d| {
        (
            d.usize_in(0, n - 1),
            d.usize_in(0, n - 1),
            d.f64_in(-1.0, 1.0),
        )
    });
    for i in 0..n {
        tri.push((i, i, 8.0 + i as f64 * 0.1));
    }
    let rhs = (0..n).map(|_| d.f64_in(-10.0, 10.0)).collect();
    (tri, rhs)
}

#[test]
fn sparse_lu_matches_dense_lu() {
    check(
        "sparse LU matches dense LU",
        &Config::default(),
        |d| dominant_system(d, 24),
        |(tri, b)| {
            let n = b.len();
            let a_sparse = CscMatrix::from_triplets(n, n, tri);
            let mut a_dense = DenseMatrix::zeros(n, n);
            for &(r, c, v) in tri {
                a_dense.add(r, c, v);
            }
            let xs = SparseLu::factor(&a_sparse).unwrap().solve(b).unwrap();
            let xd = DenseLu::factor(a_dense).unwrap().solve(b).unwrap();
            for (s, d) in xs.iter().zip(xd.iter()) {
                prop_check!((s - d).abs() < 1e-8, "sparse {s} vs dense {d}");
            }
            Ok(())
        },
    );
}

#[test]
fn sparse_solve_has_small_residual() {
    check(
        "sparse solve has small residual",
        &Config::default(),
        |d| dominant_system(d, 40),
        |(tri, b)| {
            let n = b.len();
            let a = CscMatrix::from_triplets(n, n, tri);
            let x = SparseLu::factor(&a).unwrap().solve(b).unwrap();
            let r = a.mat_vec(&x);
            for (ri, bi) in r.iter().zip(b.iter()) {
                prop_check!((ri - bi).abs() < 1e-9, "residual {} vs {}", ri, bi);
            }
            Ok(())
        },
    );
}

#[test]
fn sparse_refactor_is_bitwise_equal_to_fresh_factor() {
    check(
        "sparse refactor is bitwise equal to fresh factor",
        &Config::default(),
        |d| {
            // One pattern, two value sets over it: the second system
            // reuses the first's symbolic factorization.
            let (tri, b) = dominant_system(d, 24);
            let scales: Vec<f64> = tri.iter().map(|_| d.f64_in(0.2, 5.0)).collect();
            (tri, scales, b)
        },
        |(tri, scales, b)| {
            let n = b.len();
            let a1 = CscMatrix::from_triplets(n, n, tri);
            let tri2: Vec<(usize, usize, f64)> = tri
                .iter()
                .zip(scales.iter())
                .map(|(&(r, c, v), &s)| (r, c, v * s))
                .collect();
            let a2 = CscMatrix::from_triplets(n, n, &tri2);
            // Same pattern by construction.
            prop_check!(a1.row_indices() == a2.row_indices(), "pattern drifted");

            let mut lu = SparseLu::factor_symbolic(&a1).unwrap();
            match lu.refactor(&a2) {
                Ok(()) => {
                    // A successful replay must be bitwise identical to a
                    // fresh factorization of the same matrix.
                    let fresh = SparseLu::factor(&a2).unwrap();
                    let xr = lu.solve(b).unwrap();
                    let xf = fresh.solve(b).unwrap();
                    for (r, f) in xr.iter().zip(xf.iter()) {
                        prop_check!(r.to_bits() == f.to_bits(), "refactor {r:e} != fresh {f:e}");
                    }
                }
                Err(_) => {
                    // Rejection (pivot drift under the random scaling) is
                    // legitimate — the caller falls back to a fresh
                    // factorization, which must itself succeed.
                    let x = SparseLu::factor(&a2).unwrap().solve(b).unwrap();
                    let r = a2.mat_vec(&x);
                    for (ri, bi) in r.iter().zip(b.iter()) {
                        prop_check!((ri - bi).abs() < 1e-8, "fallback residual {ri} vs {bi}");
                    }
                }
            }
            Ok(())
        },
    );
}

/// An MNA-like dense system and the perturbations a refactor sequence
/// applies to it: conductances between node pairs and to ground,
/// voltage-source rows and columns of ±1 entries (exact pivot ties) and
/// a few asymmetric transconductances.
#[derive(Debug)]
struct MnaSequence {
    n: usize,
    entries: Vec<(usize, usize, f64)>,
    /// Per-entry factors of a value drift.
    drift: Vec<f64>,
    /// An entry and the factor that grows it until it may win a pivot.
    boost: (usize, f64),
    /// An entry that turns exactly zero.
    zeroed: usize,
    /// A position that turns nonzero, usually outside the pattern.
    added: (usize, usize, f64),
    /// A row zeroed out (the singular case).
    dead_row: usize,
    /// A position that turns NaN.
    nan_at: (usize, usize),
    b: Vec<f64>,
}

fn mna_sequence(d: &mut Draws) -> MnaSequence {
    let nodes = d.usize_in(2, 10);
    let sources = d.usize_in(1, 3);
    let n = nodes + sources;
    let mut entries = Vec::new();
    for i in 0..nodes {
        entries.push((i, i, 1e-3));
    }
    // `nodes` stands for ground.
    let edges = d.vec_of(nodes, 3 * nodes, |d| {
        (
            d.usize_in(0, nodes - 1),
            d.usize_in(0, nodes),
            d.f64_in(0.1, 10.0),
        )
    });
    for (i, j, g) in edges {
        entries.push((i, i, g));
        if j != nodes && j != i {
            entries.extend([(j, j, g), (i, j, -g), (j, i, -g)]);
        }
    }
    for k in 0..sources {
        let (p, q, br) = (d.usize_in(0, nodes - 1), d.usize_in(0, nodes), nodes + k);
        entries.extend([(p, br, 1.0), (br, p, 1.0)]);
        if q != nodes && q != p {
            entries.extend([(q, br, -1.0), (br, q, -1.0)]);
        }
    }
    let gm = d.vec_of(0, nodes, |d| {
        (
            d.usize_in(0, nodes - 1),
            d.usize_in(0, nodes - 1),
            d.f64_in(-5.0, 5.0),
        )
    });
    entries.extend(gm);
    let m = entries.len();
    MnaSequence {
        n,
        drift: (0..m).map(|_| d.f64_in(0.5, 2.0)).collect(),
        boost: (d.usize_in(0, m - 1), d.f64_in(10.0, 1e4)),
        zeroed: d.usize_in(0, m - 1),
        added: (
            d.usize_in(0, n - 1),
            d.usize_in(0, n - 1),
            d.f64_in(-3.0, 3.0),
        ),
        dead_row: d.usize_in(0, n - 1),
        nan_at: (d.usize_in(0, n - 1), d.usize_in(0, n - 1)),
        b: (0..n).map(|_| d.f64_in(-10.0, 10.0)).collect(),
        entries,
    }
}

impl MnaSequence {
    fn assemble(&self, value: impl Fn(usize, f64) -> f64) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(self.n, self.n);
        for (k, &(r, c, v)) in self.entries.iter().enumerate() {
            a.add(r, c, value(k, v));
        }
        a
    }

    /// The refactor sequence: drift, a grown entry, an entry turned
    /// zero, one turned nonzero, a zeroed row, a NaN, with the base
    /// matrix in between.
    fn matrices(&self) -> Vec<DenseMatrix> {
        let base = self.assemble(|_, v| v);
        let drifted = self.assemble(|k, v| v * self.drift[k]);
        let grown = self.assemble(|k, v| {
            if k == self.boost.0 {
                v * self.boost.1
            } else {
                v
            }
        });
        let mut zeroed = base.clone();
        let (zr, zc, _) = self.entries[self.zeroed];
        zeroed.set(zr, zc, 0.0);
        let mut added = base.clone();
        added.set(self.added.0, self.added.1, self.added.2);
        let mut singular = base.clone();
        for c in 0..self.n {
            singular.set(self.dead_row, c, 0.0);
        }
        let mut poisoned = base.clone();
        poisoned.set(self.nan_at.0, self.nan_at.1, f64::NAN);
        vec![
            base.clone(),
            drifted,
            grown,
            base.clone(),
            zeroed,
            added,
            base.clone(),
            singular,
            base.clone(),
            poisoned,
            base,
        ]
    }
}

/// Solution bits, or the error's rendering.
fn outcome(x: Result<Vec<f64>, NumericError>) -> Result<Vec<u64>, String> {
    x.map(|x| x.iter().map(|v| v.to_bits()).collect())
        .map_err(|e| format!("{e:?}"))
}

#[test]
fn dense_refactor_matches_fresh_factor_bitwise() {
    check(
        "dense refactor matches fresh factor bitwise",
        &Config::default(),
        mna_sequence,
        |case| {
            let mats = case.matrices();
            let mut lu = DenseLu::factor(mats[0].clone())
                .or_else(|_| DenseLu::factor(DenseMatrix::identity(case.n)))
                .unwrap();
            for (step, a) in mats.iter().enumerate() {
                let fresh = outcome(DenseLu::factor(a.clone()).and_then(|f| f.solve(&case.b)));
                let re = outcome(lu.refactor(a).and_then(|()| lu.solve(&case.b)));
                prop_check!(
                    re == fresh,
                    "step {step}: refactor {re:?} vs fresh {fresh:?} (replayed {})",
                    lu.replayed()
                );
                // A matrix the refactor just factored is its own pattern
                // and pivot order: refactoring it again must replay.
                let finite = (0..case.n).all(|r| (0..case.n).all(|c| a.get(r, c).is_finite()));
                if re.is_ok() && finite {
                    let again = outcome(lu.refactor(a).and_then(|()| lu.solve(&case.b)));
                    prop_check!(lu.replayed(), "step {step}: the repeat did not replay");
                    prop_check!(again == fresh, "step {step}: replay {again:?} vs {fresh:?}");
                }
            }
            Ok(())
        },
    );
}

#[test]
fn min_degree_always_returns_a_permutation() {
    check(
        "min degree always returns a permutation",
        &Config::default(),
        |d| {
            let n = d.usize_in(1, 40);
            let tri = d.vec_of(0, 4 * n, |d| {
                (d.usize_in(0, n - 1), d.usize_in(0, n - 1), 1.0)
            });
            (n, tri)
        },
        |(n, tri)| {
            // Pattern only — values are irrelevant to the ordering, but
            // every column needs a diagonal so the matrix is factorable
            // in principle (the ordering itself doesn't require it).
            let mut tri = tri.clone();
            for i in 0..*n {
                tri.push((i, i, 1.0));
            }
            let a = CscMatrix::from_triplets(*n, *n, &tri);
            let q = min_degree(&a);
            prop_check!(q.len() == *n, "length {} != {n}", q.len());
            let mut seen = vec![false; *n];
            for &c in &q {
                prop_check!(c < *n, "column {c} out of range");
                prop_check!(!seen[c], "column {c} repeated");
                seen[c] = true;
            }
            Ok(())
        },
    );
}

#[test]
fn ordered_sparse_lu_matches_dense_lu() {
    check(
        "ordered sparse LU matches dense LU",
        &Config::default(),
        |d| dominant_system(d, 24),
        |(tri, b)| {
            let n = b.len();
            let a_sparse = CscMatrix::from_triplets(n, n, tri);
            let mut a_dense = DenseMatrix::zeros(n, n);
            for &(r, c, v) in tri {
                a_dense.add(r, c, v);
            }
            let q = min_degree(&a_sparse);
            let xs = SparseLu::factor_symbolic_with_order(&a_sparse, &q)
                .unwrap()
                .solve(b)
                .unwrap();
            let xd = DenseLu::factor(a_dense).unwrap().solve(b).unwrap();
            for (s, d) in xs.iter().zip(xd.iter()) {
                prop_check!((s - d).abs() < 1e-8, "ordered sparse {s} vs dense {d}");
            }
            Ok(())
        },
    );
}

#[test]
fn ordering_never_worsens_fill_on_grid_laplacians() {
    check(
        "ordering never worsens fill on grid laplacians",
        &Config::default(),
        |d| (d.usize_in(2, 12), d.usize_in(2, 12)),
        |&(rows, cols)| {
            // 5-point Laplacian on a rows × cols grid — the canonical
            // fill-reduction benchmark (natural order is the worst-case
            // banded elimination; minimum degree must never lose to it).
            let n = rows * cols;
            let mut tri = Vec::new();
            for r in 0..rows {
                for c in 0..cols {
                    let i = r * cols + c;
                    tri.push((i, i, 4.0));
                    if c + 1 < cols {
                        tri.push((i, i + 1, -1.0));
                        tri.push((i + 1, i, -1.0));
                    }
                    if r + 1 < rows {
                        tri.push((i, i + cols, -1.0));
                        tri.push((i + cols, i, -1.0));
                    }
                }
            }
            let a = CscMatrix::from_triplets(n, n, &tri);
            let natural = SparseLu::factor_symbolic(&a).unwrap();
            let q = min_degree(&a);
            let ordered = SparseLu::factor_symbolic_with_order(&a, &q).unwrap();
            prop_check!(
                ordered.factor_nnz() <= natural.factor_nnz(),
                "{rows}x{cols} grid: ordered fill {} > natural {}",
                ordered.factor_nnz(),
                natural.factor_nnz()
            );
            Ok(())
        },
    );
}

#[test]
fn dense_solve_roundtrip() {
    check(
        "dense solve roundtrip",
        &Config::default(),
        |d| d.vec_of(2, 12, |d| d.f64_in(-5.0, 5.0)),
        |x_true| {
            let n = x_true.len();
            let mut a = DenseMatrix::zeros(n, n);
            // A fixed well-conditioned pattern.
            for i in 0..n {
                a.set(i, i, 3.0);
                if i + 1 < n {
                    a.set(i, i + 1, -1.0);
                    a.set(i + 1, i, 1.0);
                }
            }
            let b = a.mat_vec(x_true);
            let x = a.solve(&b).unwrap();
            for (xi, ti) in x.iter().zip(x_true.iter()) {
                prop_check!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
            }
            Ok(())
        },
    );
}

#[test]
fn polynomial_fit_recovers_exact_coefficients() {
    check(
        "polynomial fit recovers exact coefficients",
        &Config::default(),
        |d| d.vec_of(1, 5, |d| d.f64_in(-3.0, 3.0)),
        |coeffs| {
            let truth = Polynomial::new(coeffs.clone());
            let deg = coeffs.len() - 1;
            let xs: Vec<f64> = (0..(deg + 4))
                .map(|k| -1.0 + 2.0 * k as f64 / (deg + 3) as f64)
                .collect();
            let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
            let fit = Polynomial::fit(&xs, &ys, deg).unwrap();
            for (c, t) in fit.coeffs().iter().zip(truth.coeffs()) {
                prop_check!((c - t).abs() < 1e-6, "{c} vs {t}");
            }
            Ok(())
        },
    );
}

#[test]
fn horner_matches_naive() {
    check(
        "horner matches naive evaluation",
        &Config::default(),
        |d| (d.vec_of(0, 6, |d| d.f64_in(-2.0, 2.0)), d.f64_in(-2.0, 2.0)),
        |(coeffs, x)| {
            let p = Polynomial::new(coeffs.clone());
            let naive: f64 = coeffs
                .iter()
                .enumerate()
                .map(|(k, &c)| c * x.powi(k as i32))
                .sum();
            prop_check!((p.eval(*x) - naive).abs() < 1e-10, "horner vs naive at {x}");
            Ok(())
        },
    );
}

#[test]
fn pwl_eval_is_bounded_by_breakpoints() {
    check(
        "pwl eval is bounded by breakpoints",
        &Config::default(),
        |d| {
            (
                d.vec_of(2, 10, |d| d.f64_in(-4.0, 4.0)),
                d.f64_in(-1.0, 11.0),
            )
        },
        |(ys, t)| {
            let pts: Vec<(f64, f64)> = ys.iter().enumerate().map(|(k, &y)| (k as f64, y)).collect();
            let pwl = PiecewiseLinear::new(pts).unwrap();
            let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let v = pwl.eval(*t);
            prop_check!(
                v >= lo - 1e-12 && v <= hi + 1e-12,
                "{v} outside [{lo}, {hi}]"
            );
            Ok(())
        },
    );
}

#[test]
fn trapezoid_is_exact_for_linear() {
    check(
        "trapezoid is exact for linear",
        &Config::default(),
        |d| (d.f64_in(-3.0, 3.0), d.f64_in(-3.0, 3.0)),
        |&(a, b)| {
            let xs: Vec<f64> = (0..7).map(|k| k as f64 * 0.5).collect();
            let ys: Vec<f64> = xs.iter().map(|&x| a * x + b).collect();
            let span = *xs.last().unwrap();
            let exact = a * span * span / 2.0 + b * span;
            prop_check!(
                (trapezoid(&xs, &ys) - exact).abs() < 1e-10,
                "trapezoid vs exact {exact}"
            );
            Ok(())
        },
    );
}

#[test]
fn summary_orders_min_mean_max() {
    check(
        "summary orders min mean max",
        &Config::default(),
        |d| d.vec_of(1, 50, |d| d.f64_in(-100.0, 100.0)),
        |xs| {
            let s = Summary::of(xs).unwrap();
            prop_check!(s.min <= s.mean + 1e-12, "min > mean");
            prop_check!(s.mean <= s.max + 1e-12, "mean > max");
            prop_check!(s.std_dev >= 0.0, "negative std dev");
            Ok(())
        },
    );
}

#[test]
fn quantile_is_monotone() {
    check(
        "quantile is monotone",
        &Config::default(),
        |d| {
            (
                d.vec_of(1, 30, |d| d.f64_in(-10.0, 10.0)),
                d.f64_in(0.0, 1.0),
                d.f64_in(0.0, 1.0),
            )
        },
        |(xs, q1, q2)| {
            let (lo, hi) = if q1 <= q2 { (*q1, *q2) } else { (*q2, *q1) };
            let vlo = quantile(xs, lo).unwrap();
            let vhi = quantile(xs, hi).unwrap();
            prop_check!(vlo <= vhi + 1e-12, "quantile({lo}) > quantile({hi})");
            Ok(())
        },
    );
}

#[test]
fn brent_and_bisect_agree() {
    check(
        "brent and bisect agree",
        &Config::default(),
        |d| d.f64_in(-0.9, 0.9),
        |&root| {
            // Strictly increasing cubic with a known root.
            let f = |x: f64| (x - root) * (1.0 + (x - root) * (x - root));
            let rb = bisect(f, -1.0, 1.0, 1e-12, 300).unwrap();
            let rr = brent(f, -1.0, 1.0, 1e-12, 300).unwrap();
            prop_check!((rb - root).abs() < 1e-9, "bisect {rb} vs {root}");
            prop_check!((rr - root).abs() < 1e-9, "brent {rr} vs {root}");
            Ok(())
        },
    );
}

#[test]
fn complex_field_properties() {
    check(
        "complex field properties",
        &Config::default(),
        |d| {
            (
                d.f64_in(-3.0, 3.0),
                d.f64_in(-3.0, 3.0),
                d.f64_in(-3.0, 3.0),
                d.f64_in(-3.0, 3.0),
            )
        },
        |&(ar, ai, br, bi)| {
            let a = Complex::new(ar, ai);
            let b = Complex::new(br, bi);
            if b.abs() <= 1e-3 {
                return Ok(()); // division too ill-conditioned to test
            }
            let q = (a * b) / b;
            prop_check!((q - a).abs() < 1e-9, "(a·b)/b != a");
            prop_check!(
                ((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9,
                "|a·b| != |a||b|"
            );
            Ok(())
        },
    );
}
