//! Incremental-model equivalence: mutate-then-solve must equal
//! rebuild-then-solve.
//!
//! 256 seeded (model, mutation-sequence) cases. Each case draws a small
//! mixed-integer program, wraps one copy in an [`IncrementalModel`] and
//! mirrors every mutation into a plain spec that is rebuilt from scratch
//! each step. After every mutation both paths are solved and compared:
//!
//! * **Exact mode** (no basis reuse — the serve daemon's default): the
//!   mutated model is float-for-float identical to the rebuilt one, so
//!   the solutions must match *bitwise* (objective bits and every value),
//!   and infeasibility verdicts must agree.
//! * **Basis-reuse mode**: the carried root basis may land on a different
//!   vertex among alternative optima, so objectives are compared within
//!   tolerance and both solutions must pass the independent
//!   [`certify_solution`] checker (primal feasibility, integrality,
//!   objective honesty, bound consistency).
//!
//! Mutation kinds cover the whole value surface — RHS, matrix
//! coefficients, objective coefficients, variable bounds — plus targeted
//! RHS moves that flip a row from binding to slack (and back) at the
//! current optimum, the case where a stale basis is most tempting.
//!
//! The incremental model keeps its LP engine between solves and patches
//! it with each edit, so exact mode also proves the patched engine equal
//! to a fresh build. Deterministic sweeps below pin that per edit kind,
//! including when an edit must rebuild the engine: a coefficient moved
//! to or from exactly zero (a sparsity change for the CSC matrix) and
//! any objective edit.

use billcap_milp::{
    certify_solution, ConstraintOp, IncrementalModel, IncrementalSolver, MipSolver, Model, Sense,
    Solution, SolveError, VarId, VarType,
};
use billcap_rt::{Rng, Xoshiro256pp};

const CASES: usize = 256;
const MUTATIONS_PER_CASE: usize = 6;

/// The value state of one instance: everything a mutation can touch.
/// `build()` reconstructs a fresh [`Model`] in a fixed order, so two
/// builds from equal states are float-for-float identical.
#[derive(Debug, Clone)]
struct SpecState {
    n: usize,
    integer: Vec<bool>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    a: Vec<Vec<f64>>,
    rhs: Vec<f64>,
    c: Vec<f64>,
}

impl SpecState {
    fn random(rng: &mut Xoshiro256pp) -> Self {
        let n = rng.random_usize_in(1, 3);
        let m = rng.random_usize_in(1, 3);
        let integer = (0..n).map(|_| rng.random_f64_in(0.0, 1.0) < 0.6).collect();
        let ub: Vec<f64> = (0..n).map(|_| rng.random_i64_in(1, 4) as f64).collect();
        let a = (0..m)
            .map(|_| (0..n).map(|_| rng.random_i64_in(-3, 5) as f64).collect())
            .collect();
        // b >= 0 keeps x = 0 feasible at the start; mutations may later
        // make the instance infeasible, which both paths must agree on.
        let rhs = (0..m).map(|_| rng.random_i64_in(0, 20) as f64).collect();
        let c = (0..n).map(|_| rng.random_i64_in(-5, 5) as f64).collect();
        Self {
            n,
            integer,
            lb: vec![0.0; n],
            ub,
            a,
            rhs,
            c,
        }
    }

    fn build(&self) -> Model {
        let mut m = Model::new("inc-eq", Sense::Maximize);
        let vars: Vec<_> = (0..self.n)
            .map(|j| {
                let vt = if self.integer[j] {
                    VarType::Integer
                } else {
                    VarType::Continuous
                };
                m.add_var(format!("x{j}"), vt, self.lb[j], self.ub[j])
            })
            .collect();
        for (i, row) in self.a.iter().enumerate() {
            m.add_constraint(
                format!("c{i}"),
                vars.iter().zip(row).map(|(&v, &aij)| (v, aij)).collect(),
                ConstraintOp::Le,
                self.rhs[i],
            );
        }
        m.set_objective(
            vars.iter().zip(&self.c).map(|(&v, &cj)| (v, cj)).collect(),
            0.0,
        );
        m
    }
}

/// One value-only edit, applied identically to the incremental model and
/// the rebuild spec.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Rhs { row: usize, rhs: f64 },
    Coeff { row: usize, var: usize, coeff: f64 },
    Objective { var: usize, coeff: f64 },
    Bounds { var: usize, lb: f64, ub: f64 },
}

impl Mutation {
    /// Draws a random edit; `last_values` (the previous optimum, if any)
    /// enables the binding↔slack RHS flips.
    fn random(rng: &mut Xoshiro256pp, spec: &SpecState, last_values: Option<&[f64]>) -> Self {
        let kind = rng.random_usize_in(0, 5);
        match kind {
            0 => Mutation::Rhs {
                row: rng.random_usize_in(0, spec.rhs.len() - 1),
                rhs: rng.random_i64_in(0, 20) as f64,
            },
            1 => Mutation::Coeff {
                row: rng.random_usize_in(0, spec.rhs.len() - 1),
                var: rng.random_usize_in(0, spec.n - 1),
                coeff: rng.random_i64_in(-3, 5) as f64,
            },
            2 => Mutation::Objective {
                var: rng.random_usize_in(0, spec.n - 1),
                coeff: rng.random_i64_in(-5, 5) as f64,
            },
            3 => {
                let var = rng.random_usize_in(0, spec.n - 1);
                let lb = rng.random_i64_in(0, 1) as f64;
                let ub = rng.random_i64_in(lb as i64, 4) as f64;
                Mutation::Bounds { var, lb, ub }
            }
            _ => {
                // Binding↔slack flip: move a row's rhs exactly onto the
                // current optimum's activity (slack → binding) or well
                // past it (binding → slack). Falls back to a plain RHS
                // draw when no optimum is available.
                let row = rng.random_usize_in(0, spec.rhs.len() - 1);
                match last_values {
                    Some(x) => {
                        let activity: f64 =
                            spec.a[row].iter().zip(x).map(|(aij, xj)| aij * xj).sum();
                        let rhs = if kind == 4 {
                            activity // make the row exactly binding
                        } else {
                            activity + rng.random_i64_in(1, 5) as f64 // clearly slack
                        };
                        Mutation::Rhs { row, rhs }
                    }
                    None => Mutation::Rhs {
                        row,
                        rhs: rng.random_i64_in(0, 20) as f64,
                    },
                }
            }
        }
    }

    fn apply(self, spec: &mut SpecState, im: &mut IncrementalModel) {
        match self {
            Mutation::Rhs { row, rhs } => {
                spec.rhs[row] = rhs;
                im.set_rhs(&format!("c{row}"), rhs).expect("row exists");
            }
            Mutation::Coeff { row, var, coeff } => {
                spec.a[row][var] = coeff;
                im.set_coeff(&format!("c{row}"), VarId::from_index(var), coeff)
                    .expect("dense rows: every term exists");
            }
            Mutation::Objective { var, coeff } => {
                spec.c[var] = coeff;
                im.set_objective_coeff(VarId::from_index(var), coeff)
                    .expect("dense objective: every term exists");
            }
            Mutation::Bounds { var, lb, ub } => {
                spec.lb[var] = lb;
                spec.ub[var] = ub;
                im.set_var_bounds(VarId::from_index(var), lb, ub)
                    .expect("ordered bounds");
            }
        }
    }
}

/// Runs `check` against `CASES` seeded instances, reporting the failing
/// case index and spec on panic (same harness as `randomized_milp.rs`).
fn for_random_cases(seed: u64, check: impl Fn(&mut Xoshiro256pp, SpecState)) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    for case in 0..CASES {
        let spec = SpecState::random(&mut rng);
        let snapshot = spec.clone();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&mut rng, spec)));
        if let Err(e) = result {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            panic!("case {case} failed starting from {snapshot:?}: {msg}");
        }
    }
}

/// Exact mode: mutate-then-solve is bitwise identical to
/// rebuild-then-solve after every mutation, including agreeing on
/// infeasibility.
#[test]
fn exact_mode_matches_rebuild_bitwise() {
    for_random_cases(0xA100, |rng, mut spec| {
        let mut im = IncrementalModel::new(spec.build()).expect("valid model");
        let hash = im.structural_hash();
        let mut inc = IncrementalSolver::new(MipSolver::default());
        let mut last_values: Option<Vec<f64>> = None;
        for step in 0..MUTATIONS_PER_CASE {
            let mutation = Mutation::random(rng, &spec, last_values.as_deref());
            mutation.apply(&mut spec, &mut im);
            assert_eq!(
                im.structural_hash(),
                hash,
                "step {step}: value mutation moved the structural hash"
            );
            let fresh = spec.build();
            let a = inc.solve(&mut im);
            let b = MipSolver::default().solve(&fresh);
            match (&a, &b) {
                (Ok(sa), Ok(sb)) => {
                    assert_eq!(
                        sa.objective.to_bits(),
                        sb.objective.to_bits(),
                        "step {step} ({mutation:?}): objective {} vs {}",
                        sa.objective,
                        sb.objective
                    );
                    assert_eq!(
                        sa.values, sb.values,
                        "step {step} ({mutation:?}): values diverged"
                    );
                    let report = certify_solution(&fresh, sb);
                    assert!(
                        report.certified(),
                        "step {step}: rebuild solution fails certification: {:?}",
                        report.violations
                    );
                    last_values = Some(sb.values.clone());
                }
                (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {
                    last_values = None;
                }
                _ => panic!("step {step} ({mutation:?}): outcomes diverged: {a:?} vs {b:?}"),
            }
        }
    });
}

/// Basis-reuse mode: the carried root basis never changes the optimum.
/// Objectives match the rebuild oracle within tolerance and every
/// returned solution passes independent certification.
#[test]
fn basis_reuse_preserves_the_optimum() {
    for_random_cases(0xA200, |rng, mut spec| {
        let mut im = IncrementalModel::new(spec.build()).expect("valid model");
        let mut warm = IncrementalSolver::new(MipSolver::default());
        warm.reuse_basis = true;
        let mut last_values: Option<Vec<f64>> = None;
        for step in 0..MUTATIONS_PER_CASE {
            let mutation = Mutation::random(rng, &spec, last_values.as_deref());
            mutation.apply(&mut spec, &mut im);
            let fresh = spec.build();
            let a = warm.solve(&mut im);
            let b = MipSolver::default().solve(&fresh);
            match (&a, &b) {
                (Ok(sa), Ok(sb)) => {
                    let scale = sb.objective.abs().max(1.0);
                    assert!(
                        (sa.objective - sb.objective).abs() <= 1e-7 * scale,
                        "step {step} ({mutation:?}): warm {} vs rebuild {}",
                        sa.objective,
                        sb.objective
                    );
                    for (label, model, sol) in [("warm", im.model(), sa), ("rebuild", &fresh, sb)] {
                        let report = certify_solution(model, sol);
                        assert!(
                            report.certified(),
                            "step {step}: {label} solution fails certification: {:?}",
                            report.violations
                        );
                    }
                    last_values = Some(sb.values.clone());
                }
                (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {
                    last_values = None;
                }
                _ => panic!("step {step} ({mutation:?}): outcomes diverged: {a:?} vs {b:?}"),
            }
        }
    });
}

/// The parallel solver is also exact on mutated models (it ignores any
/// carried basis, so this is pure mutate-vs-rebuild equivalence). The
/// parallel contract is bitwise-identical *objectives*: on instances
/// with non-unique optima, schedule-dependent pruning can discard a
/// node holding an equal-objective alternative vertex before it offers,
/// so the value vectors of two parallel runs may legitimately differ.
/// Both solutions must still certify against their models.
#[test]
fn parallel_solver_matches_rebuild_on_mutated_models() {
    let par = MipSolver {
        threads: 4,
        ..Default::default()
    };
    for_random_cases(0xA300, |rng, mut spec| {
        let mut im = IncrementalModel::new(spec.build()).expect("valid model");
        for _ in 0..MUTATIONS_PER_CASE {
            let mutation = Mutation::random(rng, &spec, None);
            mutation.apply(&mut spec, &mut im);
        }
        let fresh = spec.build();
        let a = par.solve(im.model());
        let b = par.solve(&fresh);
        match (&a, &b) {
            (Ok(sa), Ok(sb)) => {
                assert_eq!(sa.objective.to_bits(), sb.objective.to_bits());
                for (label, model, sol) in [("mutated", im.model(), sa), ("rebuild", &fresh, sb)] {
                    let report = certify_solution(model, sol);
                    assert!(
                        report.certified(),
                        "{label} solution fails certification: {:?}",
                        report.violations
                    );
                }
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            _ => panic!("outcomes diverged: {a:?} vs {b:?}"),
        }
    });
}

/// A small mixed-integer program that branches: a big-M activation row
/// (`x ≤ 4b`), an integer `z` and fractional right-hand sides.
fn sweep_model() -> Model {
    let mut m = Model::new("sweep", Sense::Maximize);
    let x = m.add_cont("x", 0.0, 5.0);
    let y = m.add_cont("y", 0.0, 5.0);
    let z = m.add_var("z", VarType::Integer, 0.0, 3.0);
    let b = m.add_binary("b");
    m.add_constraint(
        "cap",
        vec![(x, 1.0), (y, 1.0), (z, 1.0)],
        ConstraintOp::Le,
        7.5,
    );
    m.add_constraint("act", vec![(x, 1.0), (b, -4.0)], ConstraintOp::Le, 0.0);
    m.add_constraint("mix", vec![(y, 2.0), (z, 1.0)], ConstraintOp::Le, 6.5);
    m.add_constraint("floor", vec![(x, 1.0), (z, 1.0)], ConstraintOp::Ge, 1.0);
    m.set_objective(vec![(x, 3.0), (y, 2.0), (z, 4.0), (b, -5.0)], 0.0);
    m
}

/// Asserts a retained-engine solve equals a fresh solve of `fresh` bit
/// for bit — objective, values, duals and every work counter — and that
/// the retained solve built its engine `builds` times.
fn assert_retained_matches_fresh(retained: &Solution, fresh: &Model, builds: usize, ctx: &str) {
    let oracle = MipSolver::default().solve(fresh).expect("fresh solve");
    assert_eq!(
        retained.objective.to_bits(),
        oracle.objective.to_bits(),
        "{ctx}: objective {} vs {}",
        retained.objective,
        oracle.objective
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&retained.values),
        bits(&oracle.values),
        "{ctx}: values"
    );
    assert_eq!(
        retained.duals.as_deref().map(bits),
        oracle.duals.as_deref().map(bits),
        "{ctx}: duals"
    );
    assert_eq!(retained.iterations, oracle.iterations, "{ctx}: pivots");
    let (got, want) = (retained.mip.expect("stats"), oracle.mip.expect("stats"));
    assert_eq!(got.trace.engine_builds, builds, "{ctx}: engine builds");
    assert_eq!(
        want.trace.engine_builds, 1,
        "{ctx}: a fresh solve builds once"
    );
    let mut got_trace = got.trace;
    got_trace.engine_builds = want.trace.engine_builds;
    assert_eq!(got_trace, want.trace, "{ctx}: work counters");
    assert_eq!(got.nodes, want.nodes, "{ctx}: nodes");
    assert_eq!(got.best_bound.to_bits(), want.best_bound.to_bits(), "{ctx}");
    assert_eq!(got.gap.to_bits(), want.gap.to_bits(), "{ctx}");
}

/// RHS, coefficient, objective and bound sweeps through one retained
/// engine, each solve bitwise-equal to a fresh solve. RHS, nonzero
/// coefficient and bound edits patch the engine in place (no build);
/// a coefficient to or from exactly zero and an objective edit rebuild
/// it, once, at the next solve.
#[test]
fn retained_engine_sweeps_match_fresh_solves_bitwise() {
    let mut fresh = sweep_model();
    let mut im = IncrementalModel::new(sweep_model()).expect("valid model");
    let mut inc = IncrementalSolver::new(MipSolver::default());
    let [x, _, z, b] = [0, 1, 2, 3].map(VarId::from_index);
    let mut max_nodes = 0;
    let mut check = |im: &mut IncrementalModel, fresh: &Model, builds: usize, ctx: &str| {
        let sol = inc
            .solve(im)
            .unwrap_or_else(|e| panic!("{ctx}: retained solve: {e}"));
        assert_retained_matches_fresh(&sol, fresh, builds, ctx);
        max_nodes = max_nodes.max(sol.mip.expect("stats").nodes);
    };
    check(&mut im, &fresh, 1, "first solve builds the engine");

    for rhs in [6.25, 3.5, 1.25, 9.0] {
        im.set_rhs("cap", rhs).expect("row exists");
        fresh.set_constraint_rhs(0, rhs).expect("row exists");
        check(&mut im, &fresh, 0, &format!("cap rhs {rhs}"));
    }
    for rhs in [2.0, 1.5] {
        im.set_rhs("floor", rhs).expect("row exists");
        fresh.set_constraint_rhs(3, rhs).expect("row exists");
        check(&mut im, &fresh, 0, &format!("floor rhs {rhs}"));
    }

    // The big-M coefficient through zero and back: the zero edits change
    // the CSC pattern, so they (and the return to nonzero) rebuild; a
    // zero of the other sign over a zero does not.
    for (coeff, builds) in [
        (-3.0, 0),
        (-1.5, 0),
        (0.0, 1),
        (-0.0, 0),
        (-2.0, 1),
        (-2.5, 0),
    ] {
        im.set_coeff("act", b, coeff).expect("term exists");
        fresh
            .set_constraint_coeff(1, b, coeff)
            .expect("term exists");
        check(&mut im, &fresh, builds, &format!("act coeff {coeff}"));
    }
    im.set_coeff("mix", z, 0.5).expect("term exists");
    fresh.set_constraint_coeff(2, z, 0.5).expect("term exists");
    check(&mut im, &fresh, 0, "mix coeff 0.5");

    for coeff in [1.0, 6.0, -2.0] {
        im.set_objective_coeff(x, coeff).expect("term exists");
        fresh.set_objective_coeff(x, coeff).expect("term exists");
        check(&mut im, &fresh, 1, &format!("objective {coeff}"));
    }

    for (lb, ub) in [(1.0, 2.0), (0.0, 3.0), (2.0, 2.0)] {
        im.set_var_bounds(z, lb, ub).expect("ordered bounds");
        fresh.set_var_bounds(z, lb, ub);
        check(&mut im, &fresh, 0, &format!("z bounds [{lb}, {ub}]"));
    }
    assert!(max_nodes > 1, "the sweep must exercise branching");
}

/// The pure-LP path keeps the engine too: with `z` and `b` relaxed, RHS
/// and coefficient sweeps return bitwise-identical values and duals.
#[test]
fn retained_engine_pure_lp_sweeps_match_fresh_solves_bitwise() {
    let relaxed = |m: Model| {
        let mut lp = Model::new("sweep_lp", m.sense);
        for v in m.variables() {
            lp.add_cont(v.name.clone(), v.lb, v.ub);
        }
        for c in m.constraints() {
            lp.add_constraint(c.name.clone(), c.terms.clone(), c.op, c.rhs);
        }
        lp.set_objective(m.objective().to_vec(), m.objective_constant());
        lp
    };
    let mut fresh = relaxed(sweep_model());
    let mut im = IncrementalModel::new(relaxed(sweep_model())).expect("valid model");
    let mut inc = IncrementalSolver::new(MipSolver::default());
    let y = VarId::from_index(1);
    let sol = inc.solve(&mut im).expect("retained solve");
    assert_retained_matches_fresh(&sol, &fresh, 1, "first LP solve");
    for (i, v) in [5.5, 8.0, 2.25].into_iter().enumerate() {
        im.set_rhs("mix", v).expect("row exists");
        fresh.set_constraint_rhs(2, v).expect("row exists");
        im.set_coeff("cap", y, 1.0 + i as f64).expect("term exists");
        fresh
            .set_constraint_coeff(0, y, 1.0 + i as f64)
            .expect("term exists");
        let sol = inc.solve(&mut im).expect("retained solve");
        assert_retained_matches_fresh(&sol, &fresh, 0, &format!("LP sweep {i}"));
    }
}
