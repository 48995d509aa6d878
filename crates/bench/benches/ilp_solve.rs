//! Criterion micro-benchmarks for the allocation solvers (Table 2's
//! companion): the exact DP at the paper's three scales, plus the simplex +
//! branch-and-bound MILP on the linearized formulation.

#![allow(missing_docs)] // criterion_main! generates an undocumented fn

use arlo_bench::table2_instance;
use arlo_solver::dp::DpSolver;
use arlo_solver::linear::LinearizedAllocator;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_solver");
    for (gpus, runtimes) in [(50u32, 8u32), (200, 12), (1000, 16)] {
        let problem = table2_instance(gpus, runtimes);
        group.sample_size(if gpus >= 1000 { 10 } else { 30 });
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{gpus}gpu_{runtimes}rt")),
            &problem,
            |b, p| b.iter(|| DpSolver::default().solve(black_box(p)).expect("solvable")),
        );
    }
    group.finish();
}

fn bench_milp(c: &mut Criterion) {
    let mut group = c.benchmark_group("linearized_milp");
    group.sample_size(10);
    for (gpus, runtimes) in [(50u32, 8u32), (200, 12)] {
        let problem = table2_instance(gpus, runtimes);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{gpus}gpu_{runtimes}rt")),
            &problem,
            |b, p| {
                b.iter(|| {
                    LinearizedAllocator::default()
                        .solve(black_box(p))
                        .expect("solvable")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dp, bench_milp);
criterion_main!(benches);
