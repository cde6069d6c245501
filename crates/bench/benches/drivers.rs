//! Criterion benchmarks for the register-constrained strategies, including
//! the ablation of the paper's two scheduling-time accelerations (Section
//! 4.5) and the best-of-all combination.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use regpipe_core::{compile, CompileOptions, SpillDriverOptions, Strategy};
use regpipe_loops::paper;
use regpipe_machine::MachineConfig;
use regpipe_spill::SelectHeuristic;

fn bench_spill_ablation(c: &mut Criterion) {
    let machine = MachineConfig::p2l4();
    let g = paper::apsi50_like();
    let one_at_a_time = SpillDriverOptions::unaccelerated(SelectHeuristic::MaxLtOverTraffic);
    let variants: [(&str, SpillDriverOptions); 4] = [
        ("one-at-a-time", one_at_a_time),
        ("multi-spill", SpillDriverOptions { multi_spill: true, ..one_at_a_time }),
        ("last-ii", SpillDriverOptions { last_ii_pruning: true, ..one_at_a_time }),
        ("both", SpillDriverOptions::default()),
    ];
    let mut group = c.benchmark_group("spill_apsi50_regs32");
    for (label, spill) in variants {
        let options =
            CompileOptions { strategy: Strategy::Spill, spill, ..CompileOptions::default() };
        group.bench_with_input(BenchmarkId::from_parameter(label), &options, |b, o| {
            b.iter(|| black_box(compile(&g, &machine, 32, o).unwrap()));
        });
    }
    group.finish();
}

fn bench_strategy(c: &mut Criterion, name: &str, strategy: Strategy) {
    let machine = MachineConfig::p2l4();
    let g = paper::apsi47_like();
    let options = CompileOptions { strategy, ..CompileOptions::default() };
    c.bench_function(name, |b| {
        b.iter(|| black_box(compile(&g, &machine, 32, &options).unwrap()));
    });
}

fn bench_increase_ii(c: &mut Criterion) {
    bench_strategy(c, "increase_ii_apsi47_regs32", Strategy::IncreaseIi);
}

fn bench_best_of_all(c: &mut Criterion) {
    bench_strategy(c, "best_of_all_apsi47_regs32", Strategy::BestOfAll);
}

criterion_group!(benches, bench_spill_ablation, bench_increase_ii, bench_best_of_all);
criterion_main!(benches);
