//! Shared-frontier parallel branch-and-bound.
//!
//! Workers run on [`billcap_rt::run_workers`] and pull open nodes from a
//! single best-bound heap behind a mutex. Each worker keeps its own
//! clone of the model (so LP solves never contend) and publishes
//! improving incumbents through [`Shared::offer_incumbent`]; the
//! incumbent *key* (objective in minimization space) is mirrored into an
//! `AtomicU64` with an order-preserving bit encoding, so the hot
//! global-bound prune is a single atomic load.
//!
//! # Determinism
//!
//! The search tree is a deterministic function of the model: a node's LP
//! relaxation, branching variable, and children depend only on the
//! node's bound box, never on exploration order. Parallelism changes
//! *which* nodes get pruned (the incumbent arrives in a different
//! order), but pruning only removes nodes whose relaxation bound is
//! within `gap_tol` of the incumbent — nodes that cannot contain a
//! solution better than `incumbent - slack`. For instances whose optimum
//! is unique and separated from the runner-up by more than the gap
//! tolerance (every instance this workspace produces; `gap_tol` defaults
//! to 1e-9 relative), the node that yields the optimal incumbent is
//! explored under every schedule, and equal keys imply bitwise-equal
//! objectives (`objective = sign * key` is exact for `sign = ±1`).
//! Hence parallel and sequential solves return identical objective
//! values; the reduction below additionally breaks equal-key ties by
//! lexicographically smaller value vectors. Note the tie-break only
//! orders incumbents that are actually *offered*: on an instance with
//! non-unique optima, a node holding an equal-objective alternative
//! vertex can be pruned (its bound ties the incumbent key) before it
//! offers, so value-vector determinism is guaranteed only when the
//! optimum is unique — the objective is schedule-independent always.

use super::{MipSolver, Node};
use crate::error::SolveError;
use crate::model::{Model, VarId};
use crate::solution::{MipStats, Solution, SolveTrace, Status};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering from poisoning: a poisoned lock means another
/// worker panicked, and that panic propagates when the scoped pool
/// joins, so the remaining workers need not panic a second time here.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Order-preserving encoding of an `f64` into a `u64`: for non-NaN
/// values, `a < b  ⇔  key_bits(a) < key_bits(b)`.
fn key_bits(k: f64) -> u64 {
    let b = k.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`key_bits`].
fn key_from_bits(b: u64) -> f64 {
    f64::from_bits(if b >> 63 == 1 { b & !(1 << 63) } else { !b })
}

/// Why the search stopped before exhausting the frontier.
enum Outcome {
    /// The relative gap fell below `gap_tol`; `bound_key` is the global
    /// dual bound (minimization space) at that moment.
    GapReached { bound_key: f64 },
    /// The node budget ran out; `bound_key` is the best bound among the
    /// unexplored nodes.
    NodeLimit { bound_key: f64 },
    /// A node relaxation failed with a non-pruning error.
    Error(SolveError),
}

/// The frontier and the bookkeeping needed for a valid global dual
/// bound: nodes currently being expanded are no longer in the heap, so
/// their bounds are tracked per worker in `in_flight`.
struct Frontier {
    heap: BinaryHeap<Node>,
    /// Bound of the node each worker is expanding; `f64::INFINITY` when
    /// the worker is idle.
    in_flight: Vec<f64>,
    /// Workers currently expanding a node.
    active: usize,
    /// Set when the search exhausted (empty heap, nobody active).
    finished: bool,
}

impl Frontier {
    /// Minimum over open and in-flight node bounds — a valid global dual
    /// bound in minimization space (`INFINITY` when nothing remains).
    fn global_bound(&self) -> f64 {
        let heap_best = self.heap.peek().map_or(f64::INFINITY, |n| n.bound);
        self.in_flight.iter().copied().fold(heap_best, f64::min)
    }
}

struct Shared<'a> {
    solver: &'a MipSolver,
    model: &'a Model,
    int_vars: &'a [VarId],
    sign: f64,
    /// Root bound box, for each worker's revised-startability check.
    root_bounds: Vec<(f64, f64)>,
    frontier: Mutex<Frontier>,
    work_ready: Condvar,
    /// [`key_bits`] of the incumbent key; monotonically decreasing.
    incumbent_bits: AtomicU64,
    incumbent: Mutex<Option<(f64, Solution)>>,
    nodes: AtomicUsize,
    lp_iterations: AtomicUsize,
    stop: AtomicBool,
    outcome: Mutex<Option<Outcome>>,
    /// Per-worker [`SolveTrace`]s merged here as workers exit.
    trace: Mutex<SolveTrace>,
}

/// Entry point used by [`MipSolver::solve`] when `threads > 1`.
pub(super) fn solve(
    solver: &MipSolver,
    model: &Model,
    int_vars: &[VarId],
    sign: f64,
    root_bounds: Vec<(f64, f64)>,
    threads: usize,
) -> Result<Solution, SolveError> {
    let mut heap = BinaryHeap::new();
    heap.push(Node {
        bounds: root_bounds.clone(),
        bound: f64::NEG_INFINITY,
        depth: 0,
        basis: None,
    });
    let shared = Shared {
        solver,
        model,
        int_vars,
        sign,
        root_bounds,
        frontier: Mutex::new(Frontier {
            heap,
            in_flight: vec![f64::INFINITY; threads],
            active: 0,
            finished: false,
        }),
        work_ready: Condvar::new(),
        incumbent_bits: AtomicU64::new(key_bits(f64::INFINITY)),
        incumbent: Mutex::new(None),
        nodes: AtomicUsize::new(0),
        lp_iterations: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        outcome: Mutex::new(None),
        trace: Mutex::new(SolveTrace::default()),
    };
    let mut mip_span = billcap_obs::span("mip");
    billcap_rt::run_workers(threads, |w| shared.run_worker(w));
    let result = shared.into_result();
    super::finish_obs(&mut mip_span, result.as_ref().ok());
    result
}

impl Shared<'_> {
    fn incumbent_key(&self) -> f64 {
        key_from_bits(self.incumbent_bits.load(Ordering::Acquire))
    }

    /// Records an improving incumbent, returning whether it was accepted.
    /// Ties on the key keep the lexicographically smaller value vector,
    /// so the winning solution does not depend on worker scheduling.
    fn offer_incumbent(&self, key: f64, objective: f64, values: Vec<f64>) -> bool {
        let mut inc = lock(&self.incumbent);
        let accept = match &*inc {
            None => true,
            Some((k, sol)) => key < *k || (key == *k && values < sol.values),
        };
        if accept {
            self.incumbent_bits.store(key_bits(key), Ordering::Release);
            *inc = Some((
                key,
                Solution {
                    status: Status::Optimal,
                    objective,
                    values,
                    iterations: 0,
                    degenerate: 0,
                    mip: None,
                    duals: None,
                },
            ));
        }
        accept
    }

    /// Finishes the expansion of worker `w`'s node: pushes `children`,
    /// releases the in-flight slot, and wakes waiters. Returns the
    /// global dual bound after the update.
    fn complete(&self, w: usize, children: Vec<Node>) -> f64 {
        let mut f = lock(&self.frontier);
        for c in children {
            f.heap.push(c);
        }
        f.active -= 1;
        f.in_flight[w] = f64::INFINITY;
        let bound = f.global_bound();
        self.work_ready.notify_all();
        bound
    }

    /// Records the stop reason (first writer wins) and halts the search.
    fn finish(&self, outcome: Outcome) {
        {
            let mut slot = lock(&self.outcome);
            if slot.is_none() {
                *slot = Some(outcome);
            }
        }
        self.stop.store(true, Ordering::Release);
        let _f = lock(&self.frontier);
        self.work_ready.notify_all();
    }

    /// Stops the search once the relative gap closes. `bound_key` is the
    /// current global dual bound (minimization space).
    fn check_gap(&self, bound_key: f64) {
        if !bound_key.is_finite() {
            return;
        }
        let inc_key = self.incumbent_key();
        if !inc_key.is_finite() {
            return;
        }
        let gap = (inc_key - bound_key) / inc_key.abs().max(1.0);
        if gap <= self.solver.gap_tol {
            self.finish(Outcome::GapReached { bound_key });
        }
    }

    fn run_worker(&self, w: usize) {
        let mut trace = SolveTrace::default();
        self.worker_loop(w, &mut trace);
        lock(&self.trace).merge(&trace);
    }

    fn worker_loop(&self, w: usize, trace: &mut SolveTrace) {
        // Worker-local LP backend (revised engine + dense-fallback model
        // clone), so node solves never contend.
        let mut state = super::LpState::default();
        let mut node_lp = super::NodeLp::new(
            self.solver,
            self.model,
            &self.root_bounds,
            &mut state,
            trace,
        );
        let obs_on = billcap_obs::enabled();
        loop {
            let (node, depth_seen) = {
                let mut f = lock(&self.frontier);
                loop {
                    if self.stop.load(Ordering::Acquire) || f.finished {
                        f.finished = true;
                        self.work_ready.notify_all();
                        return;
                    }
                    if let Some(n) = f.heap.pop() {
                        f.active += 1;
                        f.in_flight[w] = n.bound;
                        // Open nodes plus the ones being expanded: the
                        // frontier as the sequential search would see it.
                        let depth = f.heap.len() + f.active;
                        trace.max_frontier = trace.max_frontier.max(depth);
                        break (n, f.heap.len());
                    }
                    if f.active == 0 {
                        f.finished = true;
                        self.work_ready.notify_all();
                        return;
                    }
                    f = self
                        .work_ready
                        .wait(f)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            if obs_on {
                billcap_obs::observe("milp.bnb.queue_depth", depth_seen as f64);
            }

            // Global-bound prune against the freshest incumbent.
            let inc_key = self.incumbent_key();
            if node.bound >= inc_key - self.solver.prune_slack(inc_key) {
                trace.pruned_by_bound += 1;
                self.complete(w, Vec::new());
                continue;
            }

            // Node budget (counts expanded nodes, like the sequential
            // search).
            let seen = self.nodes.fetch_add(1, Ordering::Relaxed);
            trace.max_depth = trace.max_depth.max(node.depth);
            if seen >= self.solver.max_nodes {
                self.nodes.fetch_sub(1, Ordering::Relaxed);
                let node_bound = node.bound;
                let bound = self.complete(w, Vec::new());
                self.finish(Outcome::NodeLimit {
                    bound_key: node_bound.min(bound),
                });
                continue;
            }

            let lp_sol =
                match node_lp.solve(self.model, &node.bounds, node.basis.as_ref(), false, trace) {
                    Ok(s) => s,
                    Err(SolveError::Infeasible) => {
                        trace.pruned_infeasible += 1;
                        let bound = self.complete(w, Vec::new());
                        self.check_gap(bound);
                        continue;
                    }
                    Err(e) => {
                        self.complete(w, Vec::new());
                        self.finish(Outcome::Error(e));
                        continue;
                    }
                };
            self.lp_iterations
                .fetch_add(lp_sol.iterations, Ordering::Relaxed);
            trace.degenerate_pivots += lp_sol.degenerate;
            if obs_on {
                billcap_obs::observe("milp.lp.iterations_per_node", lp_sol.iterations as f64);
            }
            let node_key = self.sign * lp_sol.objective;
            let inc_key = self.incumbent_key();
            if node_key >= inc_key - self.solver.prune_slack(inc_key) {
                trace.pruned_by_bound += 1;
                let bound = self.complete(w, Vec::new());
                self.check_gap(bound);
                continue;
            }

            match self.solver.select_branch_var(self.int_vars, &lp_sol.values) {
                None => {
                    // Integer feasible: round off float noise and offer.
                    let mut values = lp_sol.values;
                    for &v in self.int_vars {
                        values[v.index()] = values[v.index()].round();
                    }
                    let objective = self.model.eval_objective(&values);
                    let key = self.sign * objective;
                    if key < inc_key && self.offer_incumbent(key, objective, values) {
                        trace.incumbent_updates += 1;
                    }
                    let bound = self.complete(w, Vec::new());
                    self.check_gap(bound);
                }
                Some((v, x)) => {
                    let (lb, ub) = node.bounds[v.index()];
                    let down_ub = x.floor();
                    let up_lb = x.ceil();
                    let mut children = Vec::with_capacity(2);
                    if down_ub >= lb - self.solver.int_tol {
                        let mut b = node.bounds.clone();
                        b[v.index()] = (lb, down_ub);
                        children.push(Node {
                            bounds: b,
                            bound: node_key,
                            depth: node.depth + 1,
                            basis: lp_sol.basis.clone(),
                        });
                    }
                    if up_lb <= ub + self.solver.int_tol {
                        let mut b = node.bounds;
                        b[v.index()] = (up_lb, ub);
                        children.push(Node {
                            bounds: b,
                            bound: node_key,
                            depth: node.depth + 1,
                            basis: lp_sol.basis,
                        });
                    }
                    let bound = self.complete(w, children);
                    self.check_gap(bound);
                }
            }
        }
    }

    /// Assembles the final [`Solution`] after all workers joined.
    fn into_result(self) -> Result<Solution, SolveError> {
        let nodes = self.nodes.into_inner();
        let lp_iterations = self.lp_iterations.into_inner();
        let incumbent = self
            .incumbent
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let outcome = self
            .outcome
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let trace = self
            .trace
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let sign = self.sign;
        match outcome {
            Some(Outcome::Error(e)) => Err(e),
            Some(Outcome::GapReached { bound_key }) => {
                let (key, mut sol) =
                    // repolint-allow(unwrap): GapReached is only produced with an incumbent
                    incumbent.expect("gap stop implies an incumbent");
                sol.iterations = lp_iterations;
                sol.degenerate = trace.degenerate_pivots;
                // A raced bound snapshot can momentarily pass the incumbent;
                // the incumbent itself is always a valid dual bound, so clamp.
                let bound_key = bound_key.min(key);
                let gap = ((key - bound_key) / key.abs().max(1.0)).max(0.0);
                sol.mip = Some(MipStats {
                    nodes,
                    lp_iterations,
                    best_bound: sign * bound_key,
                    gap,
                    trace,
                });
                Ok(sol)
            }
            Some(Outcome::NodeLimit { bound_key }) => match incumbent {
                Some((key, mut sol)) => {
                    sol.status = Status::Feasible;
                    sol.iterations = lp_iterations;
                    sol.degenerate = trace.degenerate_pivots;
                    let bound_key = bound_key.min(key);
                    let gap = (key - bound_key).abs() / sol.objective.abs().max(1.0);
                    sol.mip = Some(MipStats {
                        nodes,
                        lp_iterations,
                        best_bound: sign * bound_key,
                        gap,
                        trace,
                    });
                    Ok(sol)
                }
                None => Err(SolveError::NodeLimit { nodes }),
            },
            None => match incumbent {
                Some((_, mut sol)) => {
                    sol.iterations = lp_iterations;
                    sol.degenerate = trace.degenerate_pivots;
                    sol.mip = Some(MipStats {
                        nodes,
                        lp_iterations,
                        best_bound: sol.objective,
                        gap: 0.0,
                        trace,
                    });
                    Ok(sol)
                }
                None => Err(SolveError::Infeasible),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_bits_preserve_order() {
        let vals = [
            f64::NEG_INFINITY,
            -1.5e300,
            -2.0,
            -0.0,
            0.0,
            1e-300,
            3.25,
            f64::INFINITY,
        ];
        for pair in vals.windows(2) {
            assert!(
                key_bits(pair[0]) <= key_bits(pair[1]),
                "{} vs {}",
                pair[0],
                pair[1]
            );
        }
        for &v in &vals {
            assert_eq!(key_from_bits(key_bits(v)), v);
        }
    }
}
