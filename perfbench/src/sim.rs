//! `sim-fig10`: the Fig. 10(a) large-scale simulation — Bert-Base on 90
//! GPUs under Twitter-Bursty traffic at 11k req/s, Arlo's own dispatcher
//! and allocator, stepped event by event.

use crate::procfs;
use crate::report::{Metric, Outcome};
use crate::spans::{Spans, ROOT};
use crate::stats::{self, ratio};
use arlo_core::system::SystemSpec;
use arlo_runtime::models::ModelSpec;
use arlo_sim::cluster::{ClusterView, InstanceId};
use arlo_sim::driver::{Allocator, DemandWindow, Dispatcher, Simulation};
use arlo_trace::workload::{Request, Trace, TraceSpec};
use arlo_trace::{Nanos, NANOS_PER_SEC};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::time::Instant;

const GPUS: u32 = 90;
const RATE: f64 = 11_000.0;
const SLO_MS: f64 = 150.0;
/// Virtual length of one simulated trace (Fig. 10(a)'s).
const TRACE_SECS: f64 = 150.0;
/// Warm-up excluded from latency accounting (Fig. 10's).
const WARMUP_SECS: f64 = 30.0;
/// Traces simulated per second of `--seconds`: each takes about 2 s on a
/// 2-vCPU host.
const TRACES_PER_SEC: f64 = 0.5;
/// Steps whose spans are kept: one in this many.
const STEP_SAMPLE: u64 = 4096;

fn spec() -> SystemSpec {
    SystemSpec::arlo(ModelSpec::bert_base(), GPUS, SLO_MS)
}

/// Shared between the traced step loop and the policy wrappers.
struct Tracer {
    spans: Spans,
    /// Span of the step in progress, when that step is sampled.
    step: Option<u32>,
    dispatch_ns: u64,
    dispatch_calls: u64,
    dispatch_misses: u64,
    alloc_ns: Vec<f64>,
    alloc_changes: u64,
}

struct TimedDispatcher<'a> {
    inner: &'a mut dyn Dispatcher,
    tracer: &'a RefCell<Tracer>,
}

impl Dispatcher for TimedDispatcher<'_> {
    fn dispatch(&mut self, req: &Request, view: &ClusterView<'_>) -> Option<InstanceId> {
        let t0 = Instant::now();
        let r = self.inner.dispatch(req, view);
        let t1 = Instant::now();
        let mut t = self.tracer.borrow_mut();
        t.dispatch_ns += t1.duration_since(t0).as_nanos() as u64;
        t.dispatch_calls += 1;
        t.dispatch_misses += u64::from(r.is_none());
        if let Some(parent) = t.step {
            t.spans
                .push_at("core.request_scheduler.dispatch", t0, t1, parent, req.id);
        }
        r
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

struct TimedAllocator<'a> {
    inner: &'a mut dyn Allocator,
    tracer: &'a RefCell<Tracer>,
}

impl Allocator for TimedAllocator<'_> {
    fn allocate(
        &mut self,
        now: Nanos,
        window: &DemandWindow,
        view: &ClusterView<'_>,
    ) -> Option<Vec<u32>> {
        let t0 = Instant::now();
        let r = self.inner.allocate(now, window, view);
        let t1 = Instant::now();
        let mut t = self.tracer.borrow_mut();
        t.alloc_ns.push(t1.duration_since(t0).as_nanos() as f64);
        t.alloc_changes += u64::from(r.as_ref().is_some_and(|v| *v != view.committed_counts()));
        let parent = t.step.unwrap_or(ROOT);
        t.spans
            .push_at("core.runtime_scheduler.allocate", t0, t1, parent, now);
        r
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Simulated (virtual) latency of one trace's requests after the warm-up.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Quality {
    /// Served requests measured.
    measured: usize,
    /// Requests shed (never served).
    shed: usize,
    within_slo: usize,
    mean_ms: f64,
    p98_ms: f64,
}

/// One simulated trace.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    requests: usize,
    /// Requests served (the rest were shed).
    served: usize,
    /// Simulated latency of the requests arriving after the warm-up.
    quality: Quality,
    /// Wall µs per request spent simulating each virtual second (untraced
    /// only).
    per_request_us: Vec<f64>,
    steps: u64,
    step_ns: u64,
}

fn simulate(seed: u64, tracer: Option<&RefCell<Tracer>>) -> Result<Rep, String> {
    let t0 = Instant::now();
    let trace: Trace =
        TraceSpec::twitter_bursty(RATE, TRACE_SECS).generate(&mut StdRng::seed_from_u64(seed));
    let spec = spec();
    let profiles = spec.build_profiles();
    let initial = spec.initial_allocation(&profiles, &trace);
    let mut dispatcher = spec.build_dispatcher();
    let mut allocator = spec.build_allocator(&profiles, &trace);
    let mut sim = Simulation::new(&trace, profiles, &initial, spec.sim_config());
    sim.start();
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = procfs::self_cpu_s();
    let start = Instant::now();
    let (mut steps, mut step_ns) = (0u64, 0u64);
    let mut per_request_us = Vec::new();
    match tracer {
        None => {
            // Arrivals per virtual second: a burst second carries more
            // requests, so its wall time is read per request.
            let mut arrivals = vec![0u64; (trace.horizon() / NANOS_PER_SEC) as usize + 1];
            for r in trace.requests() {
                arrivals[(r.arrival / NANOS_PER_SEC) as usize] += 1;
            }
            let (mut second_started, mut second) = (start, 0usize);
            while sim.step(dispatcher.as_mut(), allocator.as_mut()) {
                steps += 1;
                let now_second = (sim.now() / NANOS_PER_SEC) as usize;
                if now_second > second {
                    let now = Instant::now();
                    let n: u64 = arrivals
                        .get(second..now_second.min(arrivals.len()))
                        .map_or(0, |a| a.iter().sum());
                    if n > 0 {
                        let wall_us = now.duration_since(second_started).as_secs_f64() * 1e6;
                        per_request_us.push(wall_us / n as f64);
                    }
                    second_started = now;
                    second = now_second;
                }
            }
        }
        Some(tracer) => {
            let mut d = TimedDispatcher {
                inner: dispatcher.as_mut(),
                tracer,
            };
            let mut a = TimedAllocator {
                inner: allocator.as_mut(),
                tracer,
            };
            loop {
                let sampled = steps % STEP_SAMPLE == 0;
                let s0 = Instant::now();
                if sampled {
                    let mut t = tracer.borrow_mut();
                    let ns = t.spans.ns(s0);
                    t.step = Some(t.spans.push("sim.step", ns, ns, ROOT, steps));
                }
                let more = sim.step(&mut d, &mut a);
                let s1 = Instant::now();
                step_ns += s1.duration_since(s0).as_nanos() as u64;
                let step = tracer.borrow_mut().step.take();
                if let Some(id) = step {
                    let mut t = tracer.borrow_mut();
                    let end = t.spans.ns(s1);
                    t.spans.set_end(id, end);
                }
                if !more {
                    break;
                }
                steps += 1;
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = procfs::self_cpu_s() - cpu0;
    let report = sim.finish();
    // Every request ends served (a record) or shed, exactly once.
    if report.records.len() + report.shed.len() != trace.len() {
        return Err(format!(
            "{} served and {} shed of {} requests",
            report.records.len(),
            report.shed.len(),
            trace.len()
        ));
    }
    let warmup = arlo_trace::secs_to_nanos(WARMUP_SECS);
    let latencies_ms = stats::sorted(
        report
            .records
            .iter()
            .filter(|r| r.arrival >= warmup)
            .map(|r| arlo_trace::nanos_to_ms(r.latency_ns(report.overhead_ns)))
            .collect(),
    );
    let quality = Quality {
        measured: latencies_ms.len(),
        shed: report.shed.iter().filter(|r| r.arrival >= warmup).count(),
        within_slo: latencies_ms.partition_point(|&l| l <= SLO_MS),
        mean_ms: stats::mean(&latencies_ms),
        p98_ms: stats::percentile_sorted(&latencies_ms, 98.0),
    };
    Ok(Rep {
        setup_s,
        wall_s,
        cpu_s,
        requests: trace.len(),
        served: report.records.len(),
        quality,
        per_request_us,
        steps,
        step_ns,
    })
}

/// Seed of the `i`-th trace of a run.
fn rep_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i)
}

/// Run `sim-fig10`: simulate a fixed number of traces (set by `seconds`),
/// untraced; a traced run simulates each again with every dispatch,
/// allocation and step timed, and checks the two agree exactly.
pub fn run(seed: u64, seconds: u64, traced: bool, spans: &mut Spans) -> Result<Outcome, String> {
    let n = ((seconds as f64 * TRACES_PER_SEC).round() as u64).max(1);
    let reps: Vec<Rep> = (0..n)
        .map(|i| simulate(rep_seed(seed, i), None))
        .collect::<Result<_, _>>()?;
    let requests: usize = reps.iter().map(|r| r.requests).sum();
    let served: usize = reps.iter().map(|r| r.served).sum();
    let mut o = Outcome {
        attempted: requests as u64,
        failed: (requests - served) as u64,
        metrics: Vec::new(),
    };
    let measured: usize = reps.iter().map(|r| r.quality.measured).sum();
    let mean_ms = reps
        .iter()
        .map(|r| r.quality.mean_ms * r.quality.measured as f64)
        .sum::<f64>()
        / measured as f64;
    let p98s: Vec<f64> = reps.iter().map(|r| r.quality.p98_ms).collect();
    if !traced {
        let within: usize = reps.iter().map(|r| r.quality.within_slo).sum();
        // A shed request counts as a miss.
        let offered = measured + reps.iter().map(|r| r.quality.shed).sum::<usize>();
        let per_request = stats::sorted(
            reps.iter()
                .flat_map(|r| r.per_request_us.iter().copied())
                .collect(),
        );
        let rates: Vec<f64> = reps.iter().map(|r| r.requests as f64 / r.wall_s).collect();
        let cpu_s: f64 = reps.iter().map(|r| r.cpu_s).sum();
        let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        o.metrics = vec![
            Metric::with("setup_s", stats::median(&setups), format!("median of {n}")),
            Metric::new("peak_rss_mb", procfs::self_peak_rss_mb()),
            Metric::with(
                "throughput_per_s",
                stats::median(&rates),
                format!("median of {n} traces, {requests} requests"),
            ),
            Metric::pct("latency_p50_us", stats::median_sorted(&per_request), 1.0),
            // The costliest tenth of virtual seconds: above p90 the
            // per-second cost is a handful of burst seconds, and its
            // p98.7 spread 0.26 between runs where p90 spread as the median.
            Metric::pct(
                "latency_tail_us",
                stats::Pct {
                    value: stats::percentile_sorted(&per_request, 90.0),
                    pct: 90.0,
                    samples: per_request.len(),
                },
                1.0,
            ),
            Metric::with(
                "cpu_us_per_op",
                cpu_s * 1e6 / requests as f64,
                format!("{cpu_s:.2} CPU-s"),
            ),
            Metric::new("ok_share", served as f64 / requests as f64),
            Metric::with(
                "slo_attainment",
                within as f64 / offered as f64,
                format!(
                    "of {offered} after warm-up; virtual latency mean {mean_ms:.3} ms, \
                     median trace p98 {:.3} ms",
                    stats::median(&p98s)
                ),
            ),
        ];
        return Ok(o);
    }

    let tracer = RefCell::new(Tracer {
        spans: Spans::new(Instant::now()),
        step: None,
        dispatch_ns: 0,
        dispatch_calls: 0,
        dispatch_misses: 0,
        alloc_ns: Vec::new(),
        alloc_changes: 0,
    });
    let mut traced_reps = Vec::with_capacity(reps.len());
    for (i, rep) in reps.iter().enumerate() {
        let t = simulate(rep_seed(seed, i as u64), Some(&tracer))?;
        if t.quality != rep.quality {
            return Err("the traced simulation diverged from the untraced one".into());
        }
        traced_reps.push(t);
    }
    let t = tracer.into_inner();
    let steps: u64 = traced_reps.iter().map(|r| r.steps).sum();
    let step_ns: u64 = traced_reps.iter().map(|r| r.step_ns).sum();
    let alloc_total: f64 = t.alloc_ns.iter().sum();
    let self_ns = step_ns as f64 - t.dispatch_ns as f64 - alloc_total;
    let untraced_wall: f64 = reps.iter().map(|r| r.wall_s).sum();
    let traced_wall: f64 = traced_reps.iter().map(|r| r.wall_s).sum();
    let decisions = t.alloc_ns.len();
    o.metrics = vec![
        Metric::with(
            "sim.driver.self_ns_per_event",
            ratio(self_ns, steps as f64),
            format!("{steps} events"),
        ),
        Metric::new(
            "sim.driver.events_per_req",
            ratio(steps as f64, requests as f64),
        ),
        Metric::with(
            "core.request_scheduler.dispatch_ns",
            ratio(t.dispatch_ns as f64, t.dispatch_calls as f64),
            format!("mean of {}", t.dispatch_calls),
        ),
        Metric::new(
            "core.request_scheduler.calls_per_req",
            ratio(t.dispatch_calls as f64, requests as f64),
        ),
        Metric::new(
            "core.request_scheduler.miss_share",
            ratio(t.dispatch_misses as f64, t.dispatch_calls as f64),
        ),
        Metric::with(
            "core.runtime_scheduler.decide_ms",
            stats::mean(&t.alloc_ns) / 1e6,
            format!("mean of {decisions}"),
        ),
        Metric::new(
            "core.runtime_scheduler.change_share",
            ratio(t.alloc_changes as f64, decisions as f64),
        ),
        Metric::with(
            "sim.report.latency_mean_ms",
            mean_ms,
            format!("of {measured} after warm-up"),
        ),
        Metric::with(
            "sim.report.latency_p98_ms",
            stats::median(&p98s),
            format!("median of {} traces' p98", p98s.len()),
        ),
        Metric::with(
            "trace_overhead_share",
            traced_wall / untraced_wall - 1.0,
            "traced vs untraced stepping",
        ),
    ];
    spans.absorb(t.spans);
    Ok(o)
}
