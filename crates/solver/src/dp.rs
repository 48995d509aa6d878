//! Exact dynamic-programming solver for the allocation problem.
//!
//! The paper hands Eqs. 1–7 to GUROBI. The program is non-linear and
//! non-convex, but it has a *sequential* structure the generic solver never
//! exploits: the only coupling between runtimes is the demotion carry `R_i`
//! (Eq. 4), which flows strictly from smaller to larger runtimes. Processing
//! runtimes in ascending `max_length` order therefore admits an exact DP
//! whose state is `(GPUs used so far, carried demand R)`:
//!
//! * stage `i` chooses `N_i` within its Eq. 3 bound and the remaining budget
//!   (minus the lower bounds still owed to later runtimes);
//! * the stage cost `L_i(B_i)·C_i` depends only on the state and `N_i`;
//! * future cost is monotone non-decreasing in `R` (more demoted demand can
//!   never reduce downstream latency), so states dominated in both `R` and
//!   accumulated cost can be pruned — a Pareto frontier per `(stage, used)`.
//!
//! Each state's `N` sweep splits at the first `N` whose instances absorb the
//! inflow (`N·M_i ≥ R_{i−1} + Q_i`). Below it every instance serves `M_i`
//! and the rest carries on; from it on the carry is 0 and the `N` instances
//! share the whole inflow. Sweeping the two parts in separate loops keeps
//! the saturation test out of the inner loop; on large instances nearly
//! every transition is saturated.
//!
//! A stage's expansion fills the target `used` buckets; large stages hand
//! each thread a contiguous range of them, split so every range receives
//! about the same number of transitions. Each bucket still receives its
//! states in ascending `(source used, slot)` order, so the result does not
//! depend on the thread count.
//!
//! The frontier is capped (`max_frontier`); on realistic instances it never
//! fills (verified in tests against brute force), and when it does the
//! solver degrades gracefully to near-optimal by epsilon-thinning the
//! frontier rather than failing.

use crate::problem::{Allocation, AllocationProblem, RuntimeInput, SolveError};

/// Transitions a stage must give each thread before it is split across
/// threads. On a 2-CPU Xeon a transition costs about 9 ns and a scoped
/// spawn and join 38–50 µs, so this is about 0.9 ms of work, some 20 spawns'
/// worth. The simulator's 90-GPU decisions (at most about 19k transitions a
/// stage) and the per-stream cost curves (a few hundred) stay on the calling
/// thread.
const MIN_TRANSITIONS_PER_THREAD: u64 = 100_000;

/// Exact DP solver with Pareto-pruned carry states.
///
/// ```
/// use arlo_solver::prelude::*;
/// use arlo_runtime::prelude::*;
///
/// let profiles = profile_runtimes(
///     &RuntimeSet::natural(ModelSpec::bert_base()).compile(),
///     150.0,
///     256,
/// );
/// let demand: Vec<f64> = (0..8).map(|i| 60.0 / (1.0 + i as f64)).collect();
/// let problem = AllocationProblem::from_profiles(10, &profiles, &demand);
/// let (alloc, cost) = DpSolver::default().solve(&problem).unwrap();
/// assert_eq!(alloc.total(), 10);           // Eq. 2
/// assert!(*alloc.instances.last().unwrap() >= 1); // Eq. 7
/// assert!(cost > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DpSolver {
    /// Maximum Pareto-frontier size per `(stage, gpus-used)` cell.
    pub max_frontier: usize,
}

impl Default for DpSolver {
    fn default() -> Self {
        DpSolver { max_frontier: 256 }
    }
}

#[derive(Debug, Clone, Copy)]
struct State {
    carry: f64,
    cost: f64,
    /// Back-pointer: (previous frontier slot, chosen N) — `used` of the
    /// predecessor is implied by `used - n`.
    prev_slot: u32,
    chosen_n: u32,
}

impl DpSolver {
    /// Solve to optimality (given sufficient frontier room).
    ///
    /// Returns the optimal allocation and its objective value.
    pub fn solve(&self, problem: &AllocationProblem) -> Result<(Allocation, f64), SolveError> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.solve_with_threads(problem, threads, MIN_TRANSITIONS_PER_THREAD)
    }

    /// [`DpSolver::solve`] on at most `max_threads` threads, each given at
    /// least `min_transitions` transitions of a stage.
    fn solve_with_threads(
        &self,
        problem: &AllocationProblem,
        max_threads: usize,
        min_transitions: u64,
    ) -> Result<(Allocation, f64), SolveError> {
        problem.validate();
        if !problem.is_solvable() {
            return Err(SolveError::Infeasible);
        }
        let g = problem.gpus as usize;
        let stages = problem.len();
        let bounds = problem.lower_bounds();
        // reserve[i] = GPUs that must remain for stages i..end.
        let mut reserve = vec![0u32; stages + 1];
        for i in (0..stages).rev() {
            reserve[i] = reserve[i + 1] + bounds[i];
        }

        // layers[stage][used] = Pareto frontier of states after `stage`
        // stages, having consumed `used` GPUs.
        let mut layers: Vec<Vec<Vec<State>>> = Vec::with_capacity(stages);
        let seed = State {
            carry: 0.0,
            cost: 0.0,
            prev_slot: 0,
            chosen_n: 0,
        };
        let mut current: Vec<Vec<State>> = vec![Vec::new(); g + 1];
        current[0].push(seed);

        let last = stages - 1;
        for (i, rt) in problem.runtimes.iter().enumerate() {
            let cap = f64::from(rt.capacity);
            let stage = StageCtx {
                rt,
                lo: bounds[i],
                cap,
                reserve: reserve[i],
                next_reserve: reserve[i + 1],
                is_last: i == last,
                g,
                max_frontier: self.max_frontier,
            };
            let work = stage.transitions_per_target(&current);
            let total: u64 = work.iter().sum();
            let threads = (total / min_transitions).clamp(1, max_threads as u64);
            let ends = balanced_ends(&work, total, threads as usize);
            let mut next: Vec<Vec<State>> = vec![Vec::new(); g + 1];
            // The calling thread takes the last range itself.
            std::thread::scope(|scope| {
                let (current, stage) = (&current, &stage);
                let mut rest = next.as_mut_slice();
                let mut first = 0;
                for &end in &ends[..ends.len() - 1] {
                    let (range, tail) = rest.split_at_mut(end - first);
                    scope.spawn(move || stage.expand_into(current, first, range));
                    rest = tail;
                    first = end;
                }
                stage.expand_into(current, first, rest);
            });
            layers.push(current);
            current = next;
        }

        // The answer lives at used == G after the final stage.
        let terminal = &current[g];
        let best_slot = terminal
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cost.partial_cmp(&b.1.cost).expect("NaN cost"))
            .map(|(slot, _)| slot)
            .ok_or(SolveError::Infeasible)?;

        // Walk back-pointers to reconstruct N_i.
        let mut instances = vec![0u32; stages];
        let mut used = g;
        let mut slot = best_slot;
        let objective = terminal[best_slot].cost;
        let mut cursor: &State = &terminal[slot];
        for i in (0..stages).rev() {
            instances[i] = cursor.chosen_n;
            used -= cursor.chosen_n as usize;
            slot = cursor.prev_slot as usize;
            if i > 0 {
                cursor = &layers[i][used][slot];
            }
        }
        let alloc = Allocation { instances };
        debug_assert!(
            problem.is_feasible(&alloc),
            "DP produced infeasible allocation"
        );
        Ok((alloc, objective))
    }
}

/// One stage's constants.
struct StageCtx<'a> {
    rt: &'a RuntimeInput,
    lo: u32,
    /// `M_i`.
    cap: f64,
    reserve: u32,
    next_reserve: u32,
    is_last: bool,
    g: usize,
    max_frontier: usize,
}

impl StageCtx<'_> {
    /// The feasible `N` range of a source bucket, or `None` when the GPUs
    /// left cannot cover the lower bounds still owed. Eq. 2 forces the last
    /// runtime to take every remaining GPU.
    fn n_range(&self, used: usize) -> Option<(u32, u32)> {
        let remaining = (self.g - used) as u32;
        if remaining < self.reserve {
            None
        } else if self.is_last {
            Some((remaining, remaining))
        } else {
            Some((self.lo, remaining - self.next_reserve))
        }
    }

    /// Transitions each target `used` bucket will receive from `current`:
    /// every state of a source bucket reaches each target of its `N` range
    /// once, summed through a difference array.
    fn transitions_per_target(&self, current: &[Vec<State>]) -> Vec<u64> {
        let mut diff = vec![0i64; self.g + 2];
        for (used, frontier) in current.iter().enumerate() {
            if let Some((lo, hi)) = self.n_range(used) {
                diff[used + lo as usize] += frontier.len() as i64;
                diff[used + hi as usize + 1] -= frontier.len() as i64;
            }
        }
        let mut running = 0i64;
        diff[..=self.g]
            .iter()
            .map(|d| {
                running += d;
                running as u64
            })
            .collect()
    }

    /// Expand every state of `current` into the target buckets
    /// `first..first + out.len()`, then thin each overflowing bucket.
    /// Sources are visited in ascending `(used, slot)` order, so each bucket
    /// receives exactly the pushes, in exactly the order, that expanding the
    /// whole stage at once would give it.
    fn expand_into(&self, current: &[Vec<State>], first: usize, out: &mut [Vec<State>]) {
        if out.is_empty() {
            return;
        }
        let last_target = first + out.len() - 1;
        for (used, frontier) in current.iter().enumerate() {
            let Some((lo, hi)) = self.n_range(used) else {
                continue;
            };
            // Clip the N range to this call's targets.
            let lo = lo.max(first.saturating_sub(used) as u32);
            let Some(hi) = last_target.checked_sub(used).map(|h| hi.min(h as u32)) else {
                break;
            };
            if frontier.is_empty() || lo > hi {
                continue;
            }
            let targets = &mut out[used + lo as usize - first..=used + hi as usize - first];
            for (slot, st) in frontier.iter().enumerate() {
                let inflow = st.carry + self.rt.demand;
                // Below the first N whose instances absorb the inflow
                // (N·M_i ≥ inflow), every instance serves M_i and the rest
                // demotes; from it on, and for the last runtime, which serves
                // everything left, the N instances share the whole inflow.
                let unsaturated = if self.is_last {
                    0
                } else {
                    (lo..=hi)
                        .take_while(|&n| f64::from(n) * self.cap < inflow)
                        .count()
                };
                let state = |n: u32, served: f64, carry: f64| {
                    let cost = if served > 0.0 {
                        debug_assert!(n > 0, "flow assigned to an empty runtime");
                        self.rt.batch_latency.mean_latency_ms(served / f64::from(n)) * served
                    } else {
                        0.0
                    };
                    State {
                        carry,
                        cost: st.cost + cost,
                        prev_slot: slot as u32,
                        chosen_n: n,
                    }
                };
                let (below, rest) = targets.split_at_mut(unsaturated);
                for (bucket, n) in below.iter_mut().zip(lo..) {
                    let served = f64::from(n) * self.cap;
                    push_state(bucket, state(n, served, inflow - served));
                }
                for (bucket, n) in rest.iter_mut().zip(lo + unsaturated as u32..) {
                    push_state(bucket, state(n, inflow, 0.0));
                }
            }
        }
        for frontier in out {
            prune(frontier, self.max_frontier);
        }
    }
}

/// Where to end each of `threads` contiguous target ranges so they receive
/// about `total / threads` transitions each. The last end is `work.len()`.
fn balanced_ends(work: &[u64], total: u64, threads: usize) -> Vec<usize> {
    let mut ends = Vec::with_capacity(threads);
    let mut seen = 0u64;
    for (target, &w) in work.iter().enumerate() {
        seen += w;
        while ends.len() + 1 < threads && seen * threads as u64 >= total * (ends.len() as u64 + 1) {
            ends.push(target + 1);
        }
    }
    while ends.len() < threads {
        ends.push(work.len());
    }
    ends
}

/// Insert while keeping only Pareto-minimal `(carry, cost)` states.
fn push_state(frontier: &mut Vec<State>, st: State) {
    // Dominated by an existing state?
    if frontier
        .iter()
        .any(|f| f.carry <= st.carry && f.cost <= st.cost)
    {
        return;
    }
    // Remove states the newcomer dominates.
    frontier.retain(|f| !(st.carry <= f.carry && st.cost <= f.cost));
    frontier.push(st);
}

/// Thin a frontier that overflows `cap` entries.
fn prune(frontier: &mut Vec<State>, cap: usize) {
    if frontier.len() <= cap {
        return;
    }
    // Epsilon-thinning over the carry range: keep the lowest-carry state,
    // then the cheapest state of each of the remaining even buckets. Costs
    // fall as carry rises along a Pareto frontier, so the last bucket keeps
    // the highest-carry state and both endpoints survive. `push_state`
    // appends in arrival order, so sort by carry first.
    frontier.sort_by(|a, b| a.carry.total_cmp(&b.carry));
    let head = usize::from(cap >= 2);
    let (kept_head, rest) = frontier.split_at(head);
    let buckets = cap - head;
    let n = rest.len();
    let mut kept: Vec<State> = kept_head.to_vec();
    for k in 0..buckets {
        let lo = k * n / buckets;
        let hi = ((k + 1) * n / buckets).max(lo + 1);
        let best = rest[lo..hi]
            .iter()
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("NaN cost"))
            .copied()
            .expect("non-empty bucket");
        kept.push(best);
    }
    *frontier = kept;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceSolver;
    use crate::problem::RuntimeInput;
    use arlo_runtime::models::ModelSpec;
    use arlo_runtime::profile::{profile_runtimes, BatchLatencyMap};
    use arlo_runtime::runtime_set::RuntimeSet;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn burst_map(exec_ms: f64, m: usize) -> BatchLatencyMap {
        BatchLatencyMap::from_measurements(
            (1..=m.max(1))
                .map(|b| exec_ms * (b as f64 + 1.0) / 2.0)
                .collect(),
        )
    }

    fn problem(gpus: u32, spec: &[(u32, u32, f64, f64)]) -> AllocationProblem {
        AllocationProblem {
            gpus,
            runtimes: spec
                .iter()
                .map(|&(len, cap, q, exec)| RuntimeInput {
                    max_length: len,
                    capacity: cap,
                    demand: q,
                    batch_latency: burst_map(exec, cap.max(1) as usize),
                })
                .collect(),
        }
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        let cases = [
            problem(4, &[(64, 10, 25.0, 1.0), (512, 5, 4.0, 2.0)]),
            problem(
                6,
                &[(64, 12, 30.0, 1.0), (256, 8, 10.0, 1.5), (512, 5, 5.0, 2.0)],
            ),
            problem(
                8,
                &[
                    (64, 20, 5.0, 0.5),
                    (128, 15, 40.0, 0.8),
                    (256, 10, 3.0, 1.2),
                    (512, 6, 8.0, 2.0),
                ],
            ),
            problem(3, &[(128, 7, 0.0, 1.0), (512, 4, 0.0, 2.0)]),
        ];
        for (k, p) in cases.iter().enumerate() {
            let (dp_alloc, dp_cost) = DpSolver::default().solve(p).expect("dp");
            let (bf_alloc, bf_cost) = BruteForceSolver.solve(p).expect("bf");
            assert!(
                (dp_cost - bf_cost).abs() < 1e-6,
                "case {k}: dp {dp_cost} (alloc {dp_alloc:?}) vs brute {bf_cost} ({bf_alloc:?})"
            );
        }
    }

    #[test]
    fn infeasible_when_lower_bounds_exceed_gpus() {
        let p = problem(2, &[(64, 10, 100.0, 1.0), (512, 5, 4.0, 2.0)]);
        assert_eq!(
            DpSolver::default().solve(&p).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn allocation_sums_to_g_and_respects_bounds() {
        let p = problem(
            12,
            &[
                (64, 20, 80.0, 0.5),
                (128, 15, 60.0, 0.8),
                (256, 10, 20.0, 1.2),
                (512, 6, 10.0, 2.0),
            ],
        );
        let (alloc, _) = DpSolver::default().solve(&p).expect("solve");
        assert_eq!(alloc.total(), 12);
        for (i, &n) in alloc.instances.iter().enumerate() {
            assert!(n >= p.lower_bound(i), "runtime {i}: {n}");
        }
    }

    #[test]
    fn heavy_short_demand_draws_gpus_to_small_runtimes() {
        // Nearly all demand is short: the optimizer should pile instances on
        // the small runtime rather than the expensive large one.
        let p = problem(10, &[(64, 100, 500.0, 1.0), (512, 20, 5.0, 5.0)]);
        let (alloc, _) = DpSolver::default().solve(&p).expect("solve");
        assert!(
            alloc.instances[0] >= 7,
            "small runtime got {:?}",
            alloc.instances
        );
        assert!(alloc.instances[1] >= 1);
    }

    #[test]
    fn heavy_long_demand_draws_gpus_to_large_runtimes() {
        let p = problem(10, &[(64, 100, 5.0, 1.0), (512, 20, 150.0, 5.0)]);
        let (alloc, _) = DpSolver::default().solve(&p).expect("solve");
        assert!(
            alloc.instances[1] >= 7,
            "large runtime got {:?}",
            alloc.instances
        );
    }

    /// Table 2's largest configuration: 1000 GPUs, 16 runtimes, demand
    /// skewed short.
    fn table2_sized() -> AllocationProblem {
        let spec: Vec<(u32, u32, f64, f64)> = (1..=16)
            .map(|i| {
                let len = 32 * i;
                let exec = 0.5 + 0.3 * f64::from(i);
                let cap = (150.0 / exec) as u32;
                let q = 4000.0 / f64::from(i); // demand skewed short
                (len, cap, q, exec)
            })
            .collect();
        problem(1000, &spec)
    }

    fn twelve_runtimes_on_256() -> AllocationProblem {
        let spec: Vec<(u32, u32, f64, f64)> = (1..=12)
            .map(|i| {
                let exec = 0.5 + 0.25 * f64::from(i);
                ((48 * i), (150.0 / exec) as u32, 900.0 / f64::from(i), exec)
            })
            .collect();
        problem(256, &spec)
    }

    #[test]
    fn scales_to_table2_sizes() {
        // Table 2's largest configuration: 1000 GPUs, 16 runtimes. This test
        // checks correctness properties and that the solve completes; the
        // timing itself is measured by the `ilp_solve` Criterion bench.
        let p = table2_sized();
        let (alloc, cost) = DpSolver::default().solve(&p).expect("solve");
        assert_eq!(alloc.total(), 1000);
        assert!(cost.is_finite() && cost > 0.0);
    }

    #[test]
    fn parallel_expansion_is_deterministic_and_consistent() {
        // Two default solves must agree with each other and with independent
        // objective evaluation. Whether this instance splits a stage depends
        // on the host's CPU count; `serial_and_threaded_expansion_agree_bit_for_bit`
        // forces the split on it.
        let p = twelve_runtimes_on_256();
        let (a1, c1) = DpSolver::default().solve(&p).expect("solve");
        let (a2, c2) = DpSolver::default().solve(&p).expect("solve");
        assert_eq!(a1, a2, "repeated solves must agree");
        assert_eq!(c1, c2);
        let re = p.evaluate(&a1).expect("feasible");
        assert!((re - c1).abs() < 1e-6, "reported {c1} vs evaluated {re}");
        assert_eq!(a1.total(), 256);
    }

    #[test]
    fn zero_demand_gives_minimal_cost_zero() {
        let p = problem(5, &[(64, 10, 0.0, 1.0), (512, 5, 0.0, 2.0)]);
        let (alloc, cost) = DpSolver::default().solve(&p).expect("solve");
        assert_eq!(cost, 0.0);
        assert_eq!(alloc.total(), 5);
    }

    #[test]
    fn tiny_frontier_still_feasible() {
        // With a pathologically small frontier the solver must still return
        // a feasible (if not optimal) allocation.
        let p = problem(
            8,
            &[
                (64, 20, 55.0, 0.5),
                (128, 15, 33.0, 0.8),
                (256, 10, 21.0, 1.2),
                (512, 6, 8.0, 2.0),
            ],
        );
        let solver = DpSolver { max_frontier: 2 };
        let (alloc, cost) = solver.solve(&p).expect("solve");
        assert!(p.is_feasible(&alloc));
        let exact = DpSolver::default().solve(&p).expect("solve").1;
        assert!(
            cost >= exact - 1e-9,
            "thinned frontier cannot beat the optimum"
        );
    }

    /// The straightforward solver the kernel and the target-range split
    /// replaced, kept as the reference they are checked against: one
    /// thread, every `(state, N)` transition evaluated through Eqs. 4–6.
    fn reference_solve(problem: &AllocationProblem) -> Result<(Allocation, f64), SolveError> {
        if !problem.is_solvable() {
            return Err(SolveError::Infeasible);
        }
        let g = problem.gpus as usize;
        let stages = problem.len();
        let bounds = problem.lower_bounds();
        let mut reserve = vec![0u32; stages + 1];
        for i in (0..stages).rev() {
            reserve[i] = reserve[i + 1] + bounds[i];
        }
        let mut layers: Vec<Vec<Vec<State>>> = Vec::with_capacity(stages);
        let mut current: Vec<Vec<State>> = vec![Vec::new(); g + 1];
        current[0].push(State {
            carry: 0.0,
            cost: 0.0,
            prev_slot: 0,
            chosen_n: 0,
        });
        for (i, rt) in problem.runtimes.iter().enumerate() {
            let is_last = i == stages - 1;
            let cap = f64::from(rt.capacity);
            let mut next: Vec<Vec<State>> = vec![Vec::new(); g + 1];
            for (used, frontier) in current.iter().enumerate() {
                let remaining = (g - used) as u32;
                if remaining < reserve[i] {
                    continue;
                }
                let ns = if is_last {
                    remaining..=remaining
                } else {
                    bounds[i]..=remaining - reserve[i + 1]
                };
                for (slot, st) in frontier.iter().enumerate() {
                    let inflow = st.carry + rt.demand;
                    for n in ns.clone() {
                        let served_cap = f64::from(n) * cap;
                        let (c, r) = if is_last {
                            (inflow, 0.0)
                        } else {
                            (inflow.min(served_cap), (inflow - served_cap).max(0.0))
                        };
                        let inc = if c <= 0.0 {
                            0.0
                        } else {
                            rt.batch_latency.mean_latency_ms(c / f64::from(n)) * c
                        };
                        push_state(
                            &mut next[used + n as usize],
                            State {
                                carry: r,
                                cost: st.cost + inc,
                                prev_slot: slot as u32,
                                chosen_n: n,
                            },
                        );
                    }
                }
            }
            for frontier in &mut next {
                prune(frontier, DpSolver::default().max_frontier);
            }
            layers.push(current);
            current = next;
        }
        let terminal = &current[g];
        let best = (0..terminal.len())
            .min_by(|&a, &b| terminal[a].cost.partial_cmp(&terminal[b].cost).unwrap())
            .ok_or(SolveError::Infeasible)?;
        let mut instances = vec![0u32; stages];
        let (mut used, mut cursor) = (g, terminal[best]);
        for i in (0..stages).rev() {
            instances[i] = cursor.chosen_n;
            used -= cursor.chosen_n as usize;
            if i > 0 {
                cursor = layers[i][used][cursor.prev_slot as usize];
            }
        }
        Ok((Allocation { instances }, terminal[best].cost))
    }

    /// Solve `p` with the reference and with the solver on 1 and 3
    /// threads (every stage split, however small); all must agree on the
    /// allocation and on the objective's bits.
    fn assert_matches_reference(p: &AllocationProblem, what: &str) {
        let want = reference_solve(p).map(|(a, c)| (a, c.to_bits()));
        for threads in [1, 3] {
            let got = DpSolver::default()
                .solve_with_threads(p, threads, 1)
                .map(|(a, c)| (a, c.to_bits()));
            assert_eq!(got, want, "{what}, {threads} thread(s)");
        }
        assert!(want.is_ok(), "{what}: the instance should be solvable");
    }

    /// Scale `demand` so the Eq. 3 lower bounds take `fill` of `gpus`.
    fn scale_demand(p: &mut AllocationProblem, fill: f64) {
        let per_gpu: f64 = p
            .runtimes
            .iter()
            .map(|rt| rt.demand / f64::from(rt.capacity.max(1)))
            .sum();
        let k = f64::from(p.gpus) * fill / per_gpu;
        for rt in &mut p.runtimes {
            rt.demand *= k;
        }
    }

    /// A seeded synthetic instance: staircase execution costs, demand skewed
    /// short. With `holes`, about a quarter of the bins get no demand and
    /// about a fifth of the runtimes (never the last) no capacity.
    fn seeded_problem(seed: u64, gpus: u32, runtimes: u32, holes: bool) -> AllocationProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec: Vec<(u32, u32, f64, f64)> = (1..=runtimes)
            .map(|i| {
                let exec = (0.5 + 0.3 * f64::from(i)) * rng.gen_range_f64(0.8, 1.2);
                let mut cap = (150.0 / exec) as u32;
                let mut q = rng.gen_range_f64(0.2, 1.0) / f64::from(i * i);
                if holes && rng.next_u32() % 4 == 0 {
                    q = 0.0;
                }
                if holes && i < runtimes && rng.next_u32() % 5 == 0 {
                    cap = 0;
                }
                (32 * i, cap, q, exec)
            })
            .collect();
        let mut p = problem(gpus, &spec);
        scale_demand(&mut p, rng.gen_range_f64(0.5, 0.9));
        p
    }

    /// A seeded instance with integer capacities and demands, placed so
    /// that on the path where every runtime takes its Eq. 3 bound each
    /// stage's inflow is an exact multiple of `M_i`: some `N` meets
    /// `N·M_i == inflow` exactly.
    fn boundary_problem(seed: u64, gpus: u32, runtimes: u32) -> AllocationProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut carry = 0u32;
        let mut spec = Vec::new();
        for i in 1..=runtimes {
            let exec = (0.5 + 0.3 * f64::from(i)) * rng.gen_range_f64(0.8, 1.2);
            let cap = (150.0 / exec) as u32;
            let multiple = carry.div_ceil(cap) + rng.next_u32() % 3;
            let q = cap * multiple - carry;
            carry = (carry + q) - (q / cap) * cap;
            spec.push((32 * i, cap, f64::from(q), exec));
        }
        let p = problem(gpus, &spec);
        let bounds: u32 = p.lower_bounds().iter().sum();
        assert!(
            bounds <= gpus,
            "seed {seed}: bounds {bounds} exceed {gpus} GPUs"
        );
        p
    }

    /// Table 2's largest row on the real profiles: Bert-Large, 16
    /// runtimes, 450 ms SLO, 1000 GPUs, with seeded Twitter-like demand.
    fn table2_problem(seed: u64) -> AllocationProblem {
        let profiles = profile_runtimes(
            &RuntimeSet::with_count(ModelSpec::bert_large(), 16).compile(),
            450.0,
            512,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let demand: Vec<f64> = (0..profiles.len())
            .map(|i| rng.gen_range_f64(0.5, 1.5) / (1.0 + i as f64).powi(2))
            .collect();
        let mut p = AllocationProblem::from_profiles(1000, &profiles, &demand);
        scale_demand(&mut p, rng.gen_range_f64(0.6, 0.95));
        p
    }

    #[test]
    fn matches_reference_at_table2_scale() {
        for seed in 1..=2 {
            assert_matches_reference(&table2_problem(seed), &format!("table2 seed {seed}"));
        }
        assert_matches_reference(&seeded_problem(7, 1000, 16, false), "synthetic 1000/16");
    }

    #[test]
    fn matches_reference_on_seeded_problems() {
        for seed in 0..6 {
            for (gpus, runtimes) in [(90, 8), (256, 12)] {
                for holes in [false, true] {
                    let p = seeded_problem(seed, gpus, runtimes, holes);
                    assert_matches_reference(&p, &format!("seed {seed}, {gpus}/{runtimes}"));
                }
            }
        }
    }

    #[test]
    fn matches_reference_with_demand_on_the_saturation_boundary() {
        for seed in 0..6 {
            for (gpus, runtimes) in [(90, 8), (256, 12)] {
                let p = boundary_problem(seed, gpus, runtimes);
                assert_matches_reference(&p, &format!("seed {seed}, {gpus}/{runtimes}"));
            }
        }
    }

    #[test]
    fn serial_and_threaded_expansion_agree_bit_for_bit() {
        for p in [twelve_runtimes_on_256(), table2_sized()] {
            let solver = DpSolver::default();
            let (serial, cost) = solver.solve_with_threads(&p, 1, 1).expect("solve");
            for threads in [2, 4] {
                let (alloc, c) = solver.solve_with_threads(&p, threads, 1).expect("solve");
                assert_eq!(alloc, serial, "G = {}, {threads} threads", p.gpus);
                assert_eq!(c.to_bits(), cost.to_bits(), "G = {}", p.gpus);
            }
        }
    }

    #[test]
    fn balanced_ends_split_transitions_evenly() {
        // Work falling off with the target, as in a stage's low buckets.
        let work: Vec<u64> = (0..10).rev().map(|w| w * 10).collect();
        let total = work.iter().sum();
        let ends = balanced_ends(&work, total, 3);
        assert_eq!(ends.len(), 3);
        assert_eq!(*ends.last().unwrap(), work.len());
        let mut first = 0;
        for &end in &ends {
            let share: u64 = work[first..end].iter().sum();
            assert!(
                share <= total / 3 + 90,
                "range {first}..{end} got {share} of {total}"
            );
            first = end;
        }
        // All work in one bucket: one range takes it, the others are empty.
        let ends = balanced_ends(&[0, 0, 7, 0], 7, 2);
        assert_eq!(ends, vec![3, 4]);
    }

    #[test]
    fn prune_keeps_both_ends_of_the_carry_range() {
        // A Pareto frontier (cost falls as carry rises) pushed out of carry
        // order, as the expansion's arrival order does.
        let mut frontier = Vec::new();
        for carry in [5, 1, 9, 3, 7, 0, 8, 2, 6, 4] {
            push_state(
                &mut frontier,
                State {
                    carry: f64::from(carry),
                    cost: f64::from(10 - carry),
                    prev_slot: 0,
                    chosen_n: 0,
                },
            );
        }
        assert_eq!(frontier.len(), 10);
        prune(&mut frontier, 4);
        let carries: Vec<f64> = frontier.iter().map(|s| s.carry).collect();
        assert_eq!(carries.len(), 4);
        assert!(carries.contains(&0.0), "min carry lost: {carries:?}");
        assert!(carries.contains(&9.0), "max carry lost: {carries:?}");
        assert!(carries.windows(2).all(|w| w[0] < w[1]), "{carries:?}");
    }
}
