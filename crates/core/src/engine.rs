//! Incremental decision engine: the bill capper with retained MILPs.
//!
//! [`crate::BillCapper`] rebuilds both optimization models from scratch
//! every hour. The models' *shape* barely moves, though: variables and
//! rows are fixed by the data-center spec, and only the kept price-level
//! set per site (a function of the background demand `d` relative to the
//! policy breakpoints) changes structure. [`DecisionEngine`] exploits
//! that: it builds each step's model once, and between hours rewrites
//! only the values that depend on the inputs —
//!
//! * the `z` coefficients of the `lvl_hi_{i}_{k}` / `lvl_lo_{i}_{k}`
//!   interval rows (functions of `d_i`),
//! * the `demand` / `offered` row RHS (`λ / RATE_SCALE`),
//! * the `budget` row RHS.
//!
//! When a background change moves a site across a breakpoint the kept
//! level set changes, and the engine switches to a model built for that
//! key — structure is never patched in place. Built models are retained
//! in a small per-step cache keyed by (kept levels, cap bit patterns):
//! a diurnal background revisits the same few kept sets over and over,
//! so after the first day a month-long run stops rebuilding entirely
//! instead of rebuilding at every breakpoint crossing.
//!
//! Each retained model also keeps its solver state: the sparse LP
//! engine, its simplex workspace and the root propagation rows, built
//! at the model's first solve. The value mutators above patch that
//! engine in place, so an hour that hits the cache reaches
//! branch-and-bound without rebuilding any solver state (see
//! [`billcap_milp::IncrementalModel`]).
//!
//! **Bitwise contract:** with basis reuse off (the default), every
//! decision is bit-for-bit identical to [`crate::BillCapper::decide_hour`]
//! on the same inputs. Both paths share the level math
//! (`minimize::site_level_params`) and the step orchestration
//! (`capper::decide_hour_impl`), and the value mutators write
//! the exact floats the fresh builder would, so the solver sees an
//! identical model either way. Basis reuse ([`DecisionEngine::
//! set_reuse_basis`]) trades that guarantee for speed: the optimum is
//! preserved (and re-certified under `BILLCAP_AUDIT`), but alternative
//! optima may tie-break differently in the last ulp.

use crate::capper::{decide_hour_impl, CapperConfig, HourBackend, HourDecision};
use crate::error::CoreError;
use crate::minimize::{
    build_piecewise_core, extract_allocation, site_level_params, Allocation, LevelParam,
    PiecewiseVars, RATE_SCALE,
};
use crate::spec::DataCenterSystem;
use billcap_milp::{
    ConstraintOp, IncrementalModel, IncrementalSolver, MipSolver, Model, Sense, VarId,
};

/// One retained step model: the incremental wrapper, the variable
/// handles, and the key its structure was built for.
struct StepModel {
    im: IncrementalModel,
    vars: PiecewiseVars,
    /// Kept price-level indices per site — the structural key. When the
    /// hour's key differs the engine switches models, never patches
    /// structure.
    kept: Vec<Vec<usize>>,
    /// Per-site power caps (bit patterns) the model was built for. Caps
    /// reach deep into the build — `λ` upper bounds, `q` upper bounds,
    /// `cap_i` RHS, level pruning — so a cap change (a
    /// [`crate::CapSchedule`] hour) selects a different cache entry
    /// rather than patching values, keeping every served model
    /// bitwise-identical to a fresh build by construction.
    caps: Vec<u64>,
    /// `(lvl_hi, lvl_lo)` row indices per `(site, kept slot)`, resolved
    /// once at build time so the per-hour coefficient sync skips the
    /// name formatting and hash lookups.
    lvl_rows: Vec<Vec<(usize, usize)>>,
    /// LRU stamp for cache eviction.
    last_used: u64,
}

/// Retained models per step, capped at this many distinct
/// (kept, caps) keys; least-recently-used entries are evicted. A
/// diurnal background cycles through a dozen-odd kept-set phases (each
/// site crosses a few breakpoints up and back per day), so 24 keeps a
/// steady month fully resident, while still bounding memory when a cap
/// schedule mints a new caps key every hour.
const STEP_CACHE_CAP: usize = 24;

/// The retained solver state behind a [`DecisionEngine`]; implements
/// [`HourBackend`] so [`decide_hour_impl`] drives it exactly like the
/// fresh-model capper.
struct EngineCore {
    integral_servers: bool,
    /// Serves steps 1 and 3 (both are `cost_min` solves, differing only
    /// in the demand RHS).
    min_solver: IncrementalSolver,
    max_solver: IncrementalSolver,
    cost_min: Vec<StepModel>,
    thru_max: Vec<StepModel>,
    /// Monotonic use counter driving the caches' LRU eviction.
    stamp: u64,
    /// Step-model cache telemetry across both steps' caches.
    stats: EngineStats,
    /// Fingerprints of structures built since the last
    /// [`DecisionEngine::drain_built_keys`], for the server's
    /// unique-rebuild registry.
    built_keys: Vec<u64>,
}

/// Step-model LRU telemetry for one engine: exact work counters,
/// deterministic for a fixed decision sequence on this engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Lookups that found a retained model (LRU hit).
    pub hits: u64,
    /// Lookups that required a full model build. Equals the number of
    /// rebuilds: every miss builds.
    pub misses: u64,
    /// Retained models evicted to make room (LRU full).
    pub evictions: u64,
}

/// A [`crate::BillCapper`] that keeps its MILPs (and optionally their
/// root bases) alive between hours. See the module docs for the reuse
/// strategy and the bitwise contract.
pub struct DecisionEngine {
    system: DataCenterSystem,
    core: EngineCore,
}

impl DecisionEngine {
    /// Builds an engine for `system` with the given capper config.
    /// Models are built lazily on the first decision.
    pub fn new(system: DataCenterSystem, config: CapperConfig) -> Self {
        Self {
            system,
            core: EngineCore {
                integral_servers: config.integral_servers,
                min_solver: IncrementalSolver::new(MipSolver::default()),
                max_solver: IncrementalSolver::new(MipSolver::default()),
                cost_min: Vec::new(),
                thru_max: Vec::new(),
                stamp: 0,
                stats: EngineStats::default(),
                built_keys: Vec::new(),
            },
        }
    }

    /// Step-model cache counters accumulated by this engine.
    pub fn cache_stats(&self) -> EngineStats {
        self.core.stats
    }

    /// Removes and returns the fingerprints of every model structure
    /// built since the previous call (empty when only cached models
    /// served). A fingerprint is a pure function of
    /// `(step, kept levels, caps)`, so the *set* of fingerprints drained
    /// over a request sequence is independent of how the sequence was
    /// sharded across engines — the server aggregates them into a
    /// thread-count-invariant unique-rebuild counter.
    pub fn drain_built_keys(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.core.built_keys)
    }

    /// The system this engine decides for.
    pub fn system(&self) -> &DataCenterSystem {
        &self.system
    }

    /// Toggles root-basis carry-over between solves. Off by default;
    /// turning it on keeps optima (certified under `BILLCAP_AUDIT`) but
    /// forfeits bitwise identity with the fresh-model capper.
    pub fn set_reuse_basis(&mut self, on: bool) {
        self.core.min_solver.reuse_basis = on;
        self.core.max_solver.reuse_basis = on;
        if !on {
            self.core.min_solver.reset();
            self.core.max_solver.reset();
        }
    }

    /// Whether root-basis carry-over is enabled.
    pub fn reuse_basis(&self) -> bool {
        self.core.min_solver.reuse_basis
    }

    /// Re-caps every site for the next decisions (a
    /// [`crate::CapSchedule`] hour). The retained models are keyed on
    /// the cap vector, so the next [`Self::decide_hour`] switches
    /// models exactly when a cap actually moved — a schedule that
    /// revisits a previous cap vector reuses that vector's cached
    /// model. Decisions stay independent of cap history either way:
    /// every hour-dependent value in a cached model is rewritten before
    /// each solve, so a served model is bitwise-identical to a fresh
    /// build for the current inputs.
    ///
    /// # Panics
    ///
    /// Panics when `caps.len()` differs from the system's site count.
    pub fn set_site_caps(&mut self, caps: &[f64]) {
        assert_eq!(
            caps.len(),
            self.system.sites.len(),
            "got {} caps for {} sites",
            caps.len(),
            self.system.sites.len()
        );
        for (site, &cap) in self.system.sites.iter_mut().zip(caps) {
            site.power_cap_mw = cap;
        }
    }

    /// Decides one hour's allocation. Same contract as
    /// [`crate::BillCapper::decide_hour`].
    pub fn decide_hour(
        &mut self,
        offered: f64,
        premium_offered: f64,
        background_mw: &[f64],
        hourly_budget: f64,
    ) -> Result<HourDecision, CoreError> {
        decide_hour_impl(
            &mut self.core,
            &self.system,
            offered,
            premium_offered,
            background_mw,
            hourly_budget,
        )
    }
}

impl EngineCore {
    /// Per-site kept-level parameters for this hour's background vector.
    fn level_params(system: &DataCenterSystem, background_mw: &[f64]) -> Vec<Vec<LevelParam>> {
        system
            .sites
            .iter()
            .enumerate()
            .map(|(i, site)| site_level_params(site, system.policy(i), background_mw[i]))
            .collect()
    }

    fn kept_key(params: &[Vec<LevelParam>]) -> Vec<Vec<usize>> {
        params
            .iter()
            .map(|ps| ps.iter().map(|p| p.k).collect())
            .collect()
    }

    /// The per-site cap bit patterns the models must have been built
    /// for. Bit equality (not `==` on floats) so that a NaN-poisoned
    /// spec still compares deterministically.
    fn caps_key(system: &DataCenterSystem) -> Vec<u64> {
        system
            .sites
            .iter()
            .map(|s| s.power_cap_mw.to_bits())
            .collect()
    }

    /// Rewrites the interval-row `z` coefficients of `step` to this
    /// hour's values. Only called when the kept key matches, so every
    /// `(site, slot)` pair lines up with a retained `(q, z)` pair and a
    /// pre-resolved `(lvl_hi, lvl_lo)` row pair.
    fn sync_levels(step: &mut StepModel, params: &[Vec<LevelParam>]) -> Result<(), CoreError> {
        for (i, site_params) in params.iter().enumerate() {
            let slots = step.vars.levels[i].iter().zip(&step.lvl_rows[i]);
            for (p, (&(_, _, _, z), &(hi, lo))) in site_params.iter().zip(slots) {
                step.im.set_coeff_at(hi, z, p.zcoef_hi)?;
                step.im.set_coeff_at(lo, z, p.zcoef_lo)?;
            }
        }
        Ok(())
    }

    /// Resolves the `(lvl_hi, lvl_lo)` row indices of a freshly built
    /// step model, one pair per `(site, kept slot)`.
    fn resolve_level_rows(im: &IncrementalModel, vars: &PiecewiseVars) -> Vec<Vec<(usize, usize)>> {
        vars.levels
            .iter()
            .enumerate()
            .map(|(i, levels)| {
                levels
                    .iter()
                    .map(|&(k, _, _, _)| {
                        let hi = im.row(&format!("lvl_hi_{i}_{k}"));
                        let lo = im.row(&format!("lvl_lo_{i}_{k}"));
                        match (hi, lo) {
                            (Some(hi), Some(lo)) => (hi, lo),
                            _ => unreachable!("interval rows created by the build above"),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Returns the cache index of the entry matching `(kept, caps)`,
    /// refreshing its LRU stamp, or `None` on a miss.
    fn cache_lookup(
        cache: &mut [StepModel],
        kept: &[Vec<usize>],
        caps: &[u64],
        stamp: u64,
    ) -> Option<usize> {
        let idx = cache
            .iter()
            .position(|s| s.kept == kept && s.caps == caps)?;
        cache[idx].last_used = stamp;
        Some(idx)
    }

    /// Inserts a freshly built model, evicting the least-recently-used
    /// entry when the cache is full. Returns the new entry's index and
    /// whether an eviction happened.
    fn cache_insert(cache: &mut Vec<StepModel>, entry: StepModel) -> (usize, bool) {
        let mut evicted = false;
        if cache.len() >= STEP_CACHE_CAP {
            let evict = cache
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .unwrap_or(0);
            cache.swap_remove(evict);
            evicted = true;
        }
        cache.push(entry);
        (cache.len() - 1, evicted)
    }

    /// FNV-1a fingerprint of one step model's structural key. Depends
    /// only on `(step, kept, caps)` — never on engine identity or build
    /// order — which makes sets of fingerprints comparable across
    /// engines and thread counts.
    fn structure_fingerprint(step: u64, kept: &[Vec<usize>], caps: &[u64]) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        };
        eat(step);
        eat(kept.len() as u64);
        for site in kept {
            eat(site.len() as u64);
            for &k in site {
                eat(k as u64);
            }
        }
        for &c in caps {
            eat(c);
        }
        h
    }

    /// Bumps the telemetry for a step-cache hit.
    fn note_hit(&mut self) {
        self.stats.hits += 1;
        if billcap_obs::enabled() {
            billcap_obs::counter("core.engine.cache.hit", 1);
        }
    }

    /// Bumps the telemetry for a step-cache miss (always a rebuild) and
    /// remembers the built structure's fingerprint.
    fn note_miss(&mut self, step: u64, kept: &[Vec<usize>], caps: &[u64]) {
        self.stats.misses += 1;
        self.built_keys
            .push(Self::structure_fingerprint(step, kept, caps));
        if billcap_obs::enabled() {
            billcap_obs::counter("core.engine.cache.miss", 1);
        }
        record_rebuild();
    }

    /// Bumps the telemetry when an insert evicted a retained model.
    fn note_eviction(&mut self, evicted: bool) {
        if evicted {
            self.stats.evictions += 1;
            if billcap_obs::enabled() {
                billcap_obs::counter("core.engine.cache.evict", 1);
            }
        }
    }

    /// Ensures a step-1/3 model for this hour's key is cached and
    /// returns its index, building from scratch on a miss. The build
    /// mirrors [`crate::CostMinimizer::solve`] exactly (same
    /// construction order), with the demand RHS left for the caller to
    /// set.
    fn ensure_cost_min(
        &mut self,
        system: &DataCenterSystem,
        background_mw: &[f64],
        kept: &[Vec<usize>],
        caps: &[u64],
    ) -> Result<usize, CoreError> {
        self.stamp += 1;
        if let Some(idx) = Self::cache_lookup(&mut self.cost_min, kept, caps, self.stamp) {
            self.note_hit();
            return Ok(idx);
        }
        self.note_miss(1, kept, caps);
        let mut m = Model::new("cost_min", Sense::Minimize);
        let vars = build_piecewise_core(&mut m, system, background_mw, self.integral_servers);
        m.add_constraint(
            "demand",
            vars.lam.iter().map(|&v| (v, 1.0)).collect(),
            ConstraintOp::Eq,
            0.0,
        );
        let obj: Vec<(VarId, f64)> = vars
            .levels
            .iter()
            .flatten()
            .map(|&(_, r, q, _)| (q, r))
            .collect();
        m.set_objective(obj, 0.0);
        let im = IncrementalModel::new(m)?;
        let lvl_rows = Self::resolve_level_rows(&im, &vars);
        let (idx, evicted) = Self::cache_insert(
            &mut self.cost_min,
            StepModel {
                im,
                vars,
                kept: kept.to_vec(),
                caps: caps.to_vec(),
                lvl_rows,
                last_used: self.stamp,
            },
        );
        self.note_eviction(evicted);
        Ok(idx)
    }

    /// Step-2 analogue of [`Self::ensure_cost_min`], mirroring
    /// [`crate::ThroughputMaximizer::solve`]; `offered` and `budget`
    /// RHS are left for the caller.
    fn ensure_thru_max(
        &mut self,
        system: &DataCenterSystem,
        background_mw: &[f64],
        kept: &[Vec<usize>],
        caps: &[u64],
    ) -> Result<usize, CoreError> {
        self.stamp += 1;
        if let Some(idx) = Self::cache_lookup(&mut self.thru_max, kept, caps, self.stamp) {
            self.note_hit();
            return Ok(idx);
        }
        self.note_miss(2, kept, caps);
        let mut m = Model::new("throughput_max", Sense::Maximize);
        let vars = build_piecewise_core(&mut m, system, background_mw, self.integral_servers);
        m.add_constraint(
            "offered",
            vars.lam.iter().map(|&v| (v, 1.0)).collect(),
            ConstraintOp::Le,
            0.0,
        );
        let cost_terms: Vec<(VarId, f64)> = vars
            .levels
            .iter()
            .flatten()
            .map(|&(_, r, q, _)| (q, r))
            .collect();
        m.add_constraint("budget", cost_terms, ConstraintOp::Le, 0.0);
        m.set_objective(vars.lam.iter().map(|&v| (v, 1.0)).collect(), 0.0);
        let im = IncrementalModel::new(m)?;
        let lvl_rows = Self::resolve_level_rows(&im, &vars);
        let (idx, evicted) = Self::cache_insert(
            &mut self.thru_max,
            StepModel {
                im,
                vars,
                kept: kept.to_vec(),
                caps: caps.to_vec(),
                lvl_rows,
                last_used: self.stamp,
            },
        );
        self.note_eviction(evicted);
        Ok(idx)
    }
}

/// Counts full model builds (cache misses on the (kept, caps) key).
/// The counter is the deterministic work metric the perf gate tracks
/// for the scratch-reuse refactor: on a flat-cap month it stays near
/// the number of *distinct* kept-level sets the background visits —
/// a handful — far below `2 × hours`.
fn record_rebuild() {
    if billcap_obs::enabled() {
        billcap_obs::counter("core.engine.rebuilds", 1);
    }
}

impl HourBackend for EngineCore {
    fn minimize(
        &mut self,
        system: &DataCenterSystem,
        lambda: f64,
        background_mw: &[f64],
    ) -> Result<Allocation, CoreError> {
        if background_mw.len() != system.len() {
            return Err(CoreError::Dimension {
                expected: system.len(),
                got: background_mw.len(),
            });
        }
        let capacity = system.total_capacity();
        if lambda > capacity {
            return Err(CoreError::InsufficientCapacity {
                demanded: lambda,
                capacity,
            });
        }
        let params = Self::level_params(system, background_mw);
        let kept = Self::kept_key(&params);
        let caps = Self::caps_key(system);
        let idx = self.ensure_cost_min(system, background_mw, &kept, &caps)?;
        let step = &mut self.cost_min[idx];
        Self::sync_levels(step, &params)?;
        step.im.set_rhs("demand", lambda / RATE_SCALE)?;
        crate::speclint::lint_model_if_enabled(step.im.model())?;
        let sol = self.min_solver.solve(&mut step.im)?;
        crate::audit::certify_if_enabled(step.im.model(), &sol)?;
        Ok(extract_allocation(system, &step.vars, &sol))
    }

    fn maximize(
        &mut self,
        system: &DataCenterSystem,
        lambda: f64,
        background_mw: &[f64],
        budget: f64,
    ) -> Result<Allocation, CoreError> {
        if background_mw.len() != system.len() {
            return Err(CoreError::Dimension {
                expected: system.len(),
                got: background_mw.len(),
            });
        }
        let params = Self::level_params(system, background_mw);
        let kept = Self::kept_key(&params);
        let caps = Self::caps_key(system);
        let idx = self.ensure_thru_max(system, background_mw, &kept, &caps)?;
        let step = &mut self.thru_max[idx];
        Self::sync_levels(step, &params)?;
        step.im.set_rhs("offered", lambda / RATE_SCALE)?;
        step.im.set_rhs("budget", budget.max(0.0))?;
        crate::speclint::lint_model_if_enabled(step.im.model())?;
        let sol = self.max_solver.solve(&mut step.im)?;
        crate::audit::certify_if_enabled(step.im.model(), &sol)?;
        Ok(extract_allocation(system, &step.vars, &sol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capper::{BillCapper, HourOutcome};
    use crate::spec::DataCenterSystem;

    /// Bitwise equality on everything deterministic in a decision
    /// (wall-clock ns fields are machine noise and excluded).
    fn assert_decisions_bitwise_equal(a: &HourDecision, b: &HourDecision, ctx: &str) {
        assert_eq!(a.outcome, b.outcome, "{ctx}: outcome");
        assert_eq!(a.offered.to_bits(), b.offered.to_bits(), "{ctx}: offered");
        assert_eq!(
            a.premium_served.to_bits(),
            b.premium_served.to_bits(),
            "{ctx}: premium_served"
        );
        assert_eq!(
            a.ordinary_served.to_bits(),
            b.ordinary_served.to_bits(),
            "{ctx}: ordinary_served"
        );
        assert_eq!(a.budget.to_bits(), b.budget.to_bits(), "{ctx}: budget");
        assert_eq!(a.trace.solves, b.trace.solves, "{ctx}: solves");
        assert_eq!(a.trace.nodes, b.trace.nodes, "{ctx}: nodes");
        assert_eq!(
            a.trace.lp_iterations, b.trace.lp_iterations,
            "{ctx}: lp_iterations"
        );
        let (x, y) = (&a.allocation, &b.allocation);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x.lambda), bits(&y.lambda), "{ctx}: lambda");
        assert_eq!(x.servers, y.servers, "{ctx}: servers");
        assert_eq!(bits(&x.power_mw), bits(&y.power_mw), "{ctx}: power");
        assert_eq!(bits(&x.price), bits(&y.price), "{ctx}: price");
        assert_eq!(x.level, y.level, "{ctx}: level");
        assert_eq!(bits(&x.cost), bits(&y.cost), "{ctx}: cost");
        assert_eq!(
            x.total_cost.to_bits(),
            y.total_cost.to_bits(),
            "{ctx}: total_cost"
        );
        assert_eq!(
            x.total_lambda.to_bits(),
            y.total_lambda.to_bits(),
            "{ctx}: total_lambda"
        );
    }

    /// A day-long sweep that exercises all three outcomes and drags
    /// site backgrounds across price breakpoints (forcing kept-level
    /// rebuilds between mutate-only hours). Budgets are anchored to the
    /// hour's actual minimized cost so the throttled branch really runs.
    fn sweep(sys: &DataCenterSystem) -> Vec<(f64, f64, Vec<f64>, f64)> {
        let minimizer = crate::minimize::CostMinimizer::default();
        let mut hours = Vec::new();
        for h in 0..24u32 {
            let t = f64::from(h);
            let offered = 4e8 + 3e8 * (t / 23.0);
            let premium = 0.6 * offered;
            // Site 0 crosses its 450-MW breakpoint mid-sweep; site 1
            // wanders within a level; site 2 crosses twice.
            let background = vec![
                330.0 + 10.0 * t,
                410.0 + 2.0 * t,
                280.0 + 25.0 * (t * 0.7).sin().abs() * t.min(8.0),
            ];
            let full_cost = minimizer
                .solve(sys, offered, &background)
                .unwrap()
                .total_cost;
            let budget = match h % 4 {
                0 => f64::INFINITY,
                1 => 0.93 * full_cost,
                2 => 0.8 * full_cost,
                _ => 1.0,
            };
            hours.push((offered, premium, background, budget));
        }
        hours
    }

    #[test]
    fn engine_matches_fresh_capper_bitwise() {
        let sys = DataCenterSystem::paper_system(1);
        let capper = BillCapper::default();
        let mut engine = DecisionEngine::new(sys.clone(), CapperConfig::default());
        let mut outcomes = [0usize; 3];
        for (h, (offered, premium, background, budget)) in sweep(&sys).into_iter().enumerate() {
            let fresh = capper
                .decide_hour(&sys, offered, premium, &background, budget)
                .unwrap();
            let served = engine
                .decide_hour(offered, premium, &background, budget)
                .unwrap();
            assert_decisions_bitwise_equal(&served, &fresh, &format!("hour {h}"));
            outcomes[match fresh.outcome {
                HourOutcome::WithinBudget => 0,
                HourOutcome::Throttled => 1,
                HourOutcome::PremiumOverride => 2,
            }] += 1;
        }
        assert!(
            outcomes.iter().all(|&c| c > 0),
            "sweep must exercise all outcomes, got {outcomes:?}"
        );
    }

    #[test]
    fn engine_matches_fresh_capper_with_integral_servers() {
        let sys = DataCenterSystem::paper_system(1);
        let config = CapperConfig {
            integral_servers: true,
        };
        let capper = BillCapper::new(config.clone());
        let mut engine = DecisionEngine::new(sys.clone(), config);
        for (h, (offered, premium, background, budget)) in
            sweep(&sys).into_iter().step_by(6).enumerate()
        {
            let fresh = capper
                .decide_hour(&sys, offered, premium, &background, budget)
                .unwrap();
            let served = engine
                .decide_hour(offered, premium, &background, budget)
                .unwrap();
            assert_decisions_bitwise_equal(&served, &fresh, &format!("integral hour {h}"));
        }
    }

    #[test]
    fn basis_reuse_preserves_the_decision_outcome() {
        let sys = DataCenterSystem::paper_system(1);
        let capper = BillCapper::default();
        let mut engine = DecisionEngine::new(sys.clone(), CapperConfig::default());
        engine.set_reuse_basis(true);
        assert!(engine.reuse_basis());
        for (offered, premium, background, budget) in sweep(&sys) {
            let fresh = capper
                .decide_hour(&sys, offered, premium, &background, budget)
                .unwrap();
            let served = engine
                .decide_hour(offered, premium, &background, budget)
                .unwrap();
            assert_eq!(served.outcome, fresh.outcome);
            let scale = fresh.cost().abs().max(1.0);
            assert!(
                (served.cost() - fresh.cost()).abs() <= 1e-7 * scale,
                "cost {} vs {}",
                served.cost(),
                fresh.cost()
            );
            assert!(
                (served.allocation.total_lambda - fresh.allocation.total_lambda).abs()
                    <= 1e-6 * fresh.allocation.total_lambda.max(1.0)
            );
        }
    }

    #[test]
    fn engine_matches_fresh_capper_under_a_cap_schedule() {
        use crate::capsched::CapSchedule;
        let sys = DataCenterSystem::paper_system(1);
        let base_caps: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
        let sched = CapSchedule::derating(&base_caps, 24, 0.35, 42);
        let capper = BillCapper::default();
        let mut engine = DecisionEngine::new(sys.clone(), CapperConfig::default());
        for (h, (offered, premium, background, budget)) in sweep(&sys).into_iter().enumerate() {
            // Fresh path: mutate a working copy of the spec.
            let mut capped = sys.clone();
            sched.apply(&mut capped, h);
            let fresh = capper
                .decide_hour(&capped, offered, premium, &background, budget)
                .unwrap();
            // Engine path: re-cap in place; models rebuild on the key.
            engine.set_site_caps(sched.caps_at(h));
            let served = engine
                .decide_hour(offered, premium, &background, budget)
                .unwrap();
            assert_decisions_bitwise_equal(&served, &fresh, &format!("capped hour {h}"));
        }
    }

    #[test]
    fn cap_change_actually_changes_the_decision() {
        let sys = DataCenterSystem::paper_system(1);
        let mut engine = DecisionEngine::new(sys.clone(), CapperConfig::default());
        let background = vec![330.0, 410.0, 280.0];
        let before = engine
            .decide_hour(7e8, 4.2e8, &background, f64::INFINITY)
            .unwrap();
        // Squeeze the most-loaded site hard; the allocation must shift.
        let loaded = before
            .allocation
            .lambda
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut caps: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
        caps[loaded] *= 0.25;
        engine.set_site_caps(&caps);
        let after = engine
            .decide_hour(7e8, 4.2e8, &background, f64::INFINITY)
            .unwrap();
        assert_ne!(
            before.allocation.lambda, after.allocation.lambda,
            "a 4x cap squeeze must move traffic"
        );
        // And restoring the caps restores the original decision bitwise.
        engine.set_site_caps(&sys.sites.iter().map(|s| s.power_cap_mw).collect::<Vec<_>>());
        let restored = engine
            .decide_hour(7e8, 4.2e8, &background, f64::INFINITY)
            .unwrap();
        assert_decisions_bitwise_equal(&restored, &before, "restored caps");
    }

    #[test]
    fn cache_stats_and_built_keys_track_the_lru() {
        let sys = DataCenterSystem::paper_system(1);
        let mut engine = DecisionEngine::new(sys.clone(), CapperConfig::default());
        assert_eq!(engine.cache_stats(), EngineStats::default());
        let hours = sweep(&sys);
        for (offered, premium, background, budget) in &hours {
            engine
                .decide_hour(*offered, *premium, background, *budget)
                .unwrap();
        }
        let stats = engine.cache_stats();
        assert!(stats.misses > 0, "first day must build models");
        assert!(stats.hits > 0, "revisited kept-sets must hit");
        assert_eq!(stats.evictions, 0, "a day's keys fit in the cache");
        let keys = engine.drain_built_keys();
        assert_eq!(keys.len() as u64, stats.misses, "one key per rebuild");
        assert!(engine.drain_built_keys().is_empty(), "drain empties");

        // The fingerprints are a pure function of the request sequence:
        // a fresh engine fed the same hours produces the same keys.
        let mut fresh = DecisionEngine::new(sys.clone(), CapperConfig::default());
        for (offered, premium, background, budget) in &hours {
            fresh
                .decide_hour(*offered, *premium, background, *budget)
                .unwrap();
        }
        assert_eq!(fresh.drain_built_keys(), keys);
        assert_eq!(fresh.cache_stats(), stats);
    }

    #[test]
    fn engine_rejects_bad_inputs_like_the_capper() {
        let sys = DataCenterSystem::paper_system(1);
        let mut engine = DecisionEngine::new(sys.clone(), CapperConfig::default());
        let capacity = sys.total_capacity();
        assert!(matches!(
            engine.decide_hour(3.0 * capacity, 1.5 * capacity, &[330.0, 410.0, 280.0], 1e9),
            Err(CoreError::InsufficientCapacity { .. })
        ));
        assert!(matches!(
            engine.decide_hour(1e8, 5e7, &[330.0], 1e9),
            Err(CoreError::Dimension { .. })
        ));
        // The engine still works after the error paths.
        engine
            .decide_hour(4e8, 2e8, &[330.0, 410.0, 280.0], f64::INFINITY)
            .unwrap();
    }
}
