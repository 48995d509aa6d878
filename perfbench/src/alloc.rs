//! `alloc-table2`: Runtime Scheduler decision time at Table 2's largest
//! row — Bert-Large, 16 runtimes, 1000 GPUs — over demand vectors taken
//! from a seeded Twitter-Bursty trace.

use crate::procfs;
use crate::report::{Metric, Outcome};
use crate::spans::{Spans, ROOT};
use crate::stats::{self, ratio};
use arlo_core::runtime_scheduler::ArloRuntimeScheduler;
use arlo_core::system::{RuntimeChoice, SystemSpec};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::RuntimeProfile;
use arlo_sim::driver::DemandWindow;
use arlo_solver::dp::DpSolver;
use arlo_solver::problem::{Allocation, AllocationProblem};
use arlo_trace::workload::TraceSpec;
use arlo_trace::NANOS_PER_SEC;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const GPUS: u32 = 1000;
const RUNTIMES: u32 = 16;
const SLO_MS: f64 = 450.0;
const RATE: f64 = 30_000.0;
const WINDOW_SECS: u64 = 10;
/// Sub-window length the quantile is taken over.
const SUB_SECS: u64 = 1;
const QUANTILE: f64 = 0.95;
/// `solve_for`'s demand back-off factor (the engine's).
const BACKOFF: f64 = 0.9;
/// Demand vectors (one per window) per second of `--seconds`: a decision
/// takes about 0.45 s on a 2-vCPU host. One window's decision costs from
/// 0.1 to 0.8 s, so the run's median follows its seed's windows; forty
/// distinct windows keep that within a few percent, where twenty-four
/// solved twice spread 0.18 between seeds.
const WINDOWS_PER_SEC: f64 = 4.0;
/// Windows solved a second time, at the end, to check the allocation
/// repeats exactly.
const REPEATS: usize = 4;
/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 3;

/// The profiled runtimes and the run's `n` demand vectors.
fn setup(seed: u64, n: usize) -> (Vec<RuntimeProfile>, Vec<Vec<f64>>) {
    let profiles = SystemSpec::arlo(ModelSpec::bert_large(), GPUS, SLO_MS)
        .with_runtimes(RuntimeChoice::Count(RUNTIMES))
        .build_profiles();
    let max_lengths: Vec<u32> = profiles.iter().map(|p| p.max_length()).collect();
    let subs = WINDOW_SECS / SUB_SECS;
    let mut windows = Vec::with_capacity(n);
    for w in 0..n as u64 {
        // One trace per window, from its own seed: only one window's
        // requests are held at a time.
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(w));
        let trace = TraceSpec::twitter_bursty(RATE, WINDOW_SECS as f64).generate(&mut rng);
        // Stretch time so the realized mean rate is exactly `RATE`: the
        // burst pattern varies with the seed, the mean demand does not.
        let stretch = trace.len() as f64 / (RATE * WINDOW_SECS as f64);
        let mut window = DemandWindow {
            bin_counts: vec![0; max_lengths.len()],
            window: WINDOW_SECS * NANOS_PER_SEC,
            slo_ms: SLO_MS,
            sub_counts: vec![vec![0; max_lengths.len()]; subs as usize],
            sub_window: SUB_SECS * NANOS_PER_SEC,
        };
        for r in trace.requests() {
            let sub = (r.arrival as f64 * stretch) as u64 / (SUB_SECS * NANOS_PER_SEC);
            let bin = max_lengths
                .partition_point(|&m| m < r.length)
                .min(max_lengths.len() - 1);
            window.bin_counts[bin] += 1;
            window.sub_counts[(sub as usize).min(subs as usize - 1)][bin] += 1;
        }
        windows.push(window);
    }
    let demands = windows
        .iter()
        .map(|w| w.demand_quantile_per_slo(QUANTILE))
        .collect();
    (profiles, demands)
}

/// `solve_for`'s back-off loop, replayed: the problem it finally solves and
/// how many times demand was shrunk to reach it.
fn final_problem(profiles: &[RuntimeProfile], demand: &[f64]) -> Option<(AllocationProblem, u32)> {
    let mut demand = demand.to_vec();
    for rounds in 0..256 {
        let problem = AllocationProblem::from_profiles(GPUS, profiles, &demand);
        if problem.is_solvable() {
            return Some((problem, rounds));
        }
        for q in &mut demand {
            *q *= BACKOFF;
        }
    }
    None
}

/// Run `alloc-table2`: solve each demand vector once, in order, then the
/// first [`REPEATS`] again; check every allocation.
pub fn run(seed: u64, seconds: u64, traced: bool, spans: &mut Spans) -> Result<Outcome, String> {
    let n = ((seconds as f64 * WINDOWS_PER_SEC).round() as usize).max(1);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let built = setup(seed, n);
        setups.push(t0.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let (profiles, demands) = inputs.expect("SETUP_REPS >= 1");

    // The allocation each vector must get, with its problem's bounds, and
    // the problem of the vector's full, unshrunk demand.
    let mut expected: Vec<Option<(Vec<u32>, AllocationProblem)>> = Vec::with_capacity(n);
    let mut full: Vec<AllocationProblem> = Vec::with_capacity(n);
    for q in &demands {
        expected.push(final_problem(&profiles, q).map(|(p, _)| (Vec::new(), p)));
        full.push(AllocationProblem::from_profiles(GPUS, &profiles, q));
    }

    let order: Vec<usize> = (0..n).chain(0..REPEATS.min(n)).collect();
    // Decision times net of steal: each decision's wall time less the share
    // of the machine's CPU time the hypervisor took meanwhile. The DP is
    // CPU-bound, and its wall time grows with that share: in ten runs whose
    // steal ranged from 3% to 16%, the median decision time spread 0.16
    // while CPU time per decision spread 0.05. Net of steal, a run with 11%
    // steal read 437 ms instead of 511 ms, against about 410 ms for runs
    // with none.
    let (mut solve_ms, mut raw_ms, mut cpu_s) = (Vec::new(), Vec::new(), 0.0);
    let mut solved = 0u64;
    let mut full_demand = 0u64;
    for &i in &order {
        let q = &demands[i];
        let cpu0 = procfs::self_cpu_s();
        let steal0 = procfs::steal_ticks();
        let t0 = Instant::now();
        let got = ArloRuntimeScheduler::solve_for(&profiles, q, GPUS, BACKOFF);
        let t1 = Instant::now();
        let wall_s = t1.duration_since(t0).as_secs_f64();
        let stolen = procfs::stolen_share(steal0, wall_s);
        cpu_s += procfs::self_cpu_s() - cpu0;
        raw_ms.push(wall_s * 1e3);
        solve_ms.push(wall_s * (1.0 - stolen) * 1e3);
        if traced {
            spans.push_at("core.runtime_scheduler.solve_for", t0, t1, ROOT, i as u64);
        }
        match (got, expected[i].as_mut()) {
            (None, None) => {}
            (Some(alloc), Some((first, problem))) => {
                if alloc.iter().sum::<u32>() != GPUS {
                    return Err(format!(
                        "window {i}: allocation uses {} of {GPUS} GPUs",
                        alloc.iter().sum::<u32>()
                    ));
                }
                let candidate = Allocation {
                    instances: alloc.clone(),
                };
                if !problem.is_feasible(&candidate) {
                    return Err(format!(
                        "window {i}: allocation {alloc:?} misses the Eq. 3 lower bounds {:?}",
                        problem.lower_bounds()
                    ));
                }
                // Attained when the allocation provisions the full demand,
                // not only the backed-off one it was solved for.
                full_demand += u64::from(full[i].is_feasible(&candidate));
                if first.is_empty() {
                    *first = alloc;
                } else if *first != alloc {
                    return Err(format!("window {i}: allocation changed between solves"));
                }
                solved += 1;
            }
            (got, _) => {
                return Err(format!(
                    "window {i}: solve_for returned {got:?} for a solvable={} problem",
                    expected[i].is_some()
                ))
            }
        }
    }
    let net_s = solve_ms.iter().sum::<f64>() / 1e3;
    let wall_s = raw_ms.iter().sum::<f64>() / 1e3;
    let decisions = solve_ms.len() as u64;
    let mut o = Outcome {
        attempted: decisions,
        failed: decisions - solved,
        metrics: Vec::new(),
    };
    let sorted = stats::sorted(solve_ms.clone());
    if !traced {
        o.metrics = vec![
            Metric::with(
                "setup_s",
                stats::median(&setups),
                format!("median of {SETUP_REPS}"),
            ),
            Metric::new("peak_rss_mb", procfs::self_peak_rss_mb()),
            Metric::with(
                "throughput_per_s",
                decisions as f64 / net_s,
                format!(
                    "{decisions} decisions over {n} windows, {:.1}% of their time stolen",
                    (1.0 - net_s / wall_s) * 100.0
                ),
            ),
            {
                let mut m = Metric::pct("latency_p50_us", stats::median_sorted(&sorted), 1e3);
                m.how += &format!(
                    ", {:.0} us before steal is taken out",
                    stats::median(&raw_ms) * 1e3
                );
                m
            },
            Metric::pct("latency_tail_us", stats::tail_sorted(&sorted, 99.0), 1e3),
            Metric::with(
                "cpu_us_per_op",
                cpu_s * 1e6 / decisions as f64,
                format!("{cpu_s:.2} CPU-s"),
            ),
            Metric::new("ok_share", solved as f64 / decisions as f64),
            Metric::with(
                "slo_attainment",
                full_demand as f64 / decisions as f64,
                "allocations meeting the Eq. 3 lower bounds of the full p95 demand",
            ),
        ];
        return Ok(o);
    }

    // Traced: split each decision into its two layers, solved again
    // outside `solve_for`: problem building (with back-off) and the DP.
    let (mut build_ms, mut dp_ms, mut backoffs) = (Vec::new(), Vec::new(), Vec::new());
    let traced_start = Instant::now();
    for &i in &order {
        let t0 = Instant::now();
        let fp = final_problem(&profiles, &demands[i]);
        let t1 = Instant::now();
        build_ms.push(t1.duration_since(t0).as_secs_f64() * 1e3);
        spans.push_at("core.runtime_scheduler.build", t0, t1, ROOT, i as u64);
        let Some((problem, rounds)) = fp else {
            continue;
        };
        backoffs.push(f64::from(rounds));
        let t2 = Instant::now();
        let solved = DpSolver::default().solve(&problem);
        let t3 = Instant::now();
        dp_ms.push(t3.duration_since(t2).as_secs_f64() * 1e3);
        spans.push_at("solver.dp.solve", t2, t3, ROOT, i as u64);
        let want = expected[i].as_ref().map(|(first, _)| first);
        if solved.as_ref().ok().map(|(a, _)| &a.instances) != want {
            return Err(format!("window {i}: the DP disagrees with solve_for"));
        }
    }
    let traced_wall = traced_start.elapsed().as_secs_f64();
    o.metrics = vec![
        Metric::pct(
            "core.runtime_scheduler.build_ms_p50",
            stats::median_sorted(&stats::sorted(build_ms)),
            1.0,
        ),
        Metric::new(
            "core.runtime_scheduler.backoff_rounds",
            stats::mean(&backoffs),
        ),
        Metric::pct(
            "solver.dp.solve_ms_p50",
            stats::median_sorted(&stats::sorted(dp_ms)),
            1.0,
        ),
        Metric::with(
            "trace_overhead_share",
            ratio(traced_wall, wall_s) - 1.0,
            "layer-split decisions vs solve_for",
        ),
    ];
    Ok(o)
}
