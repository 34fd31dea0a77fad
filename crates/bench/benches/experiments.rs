//! One Criterion bench per paper experiment: each timed target regenerates
//! the corresponding table or figure at the smoke scale (two machines,
//! minimal windows), so `cargo bench` demonstrates every reproduction end
//! to end with measured cost. Run `repro <experiment>` for full-scale
//! reports.

use criterion::{criterion_group, criterion_main, Criterion};
use horizon_bench::{
    fig_1, fig_10, fig_11, fig_12, fig_13, fig_2, fig_3, fig_4, fig_9, input_sets_report,
    rate_speed_report, table_1, table_2, table_5, table_8, table_9, validation_report, ReproConfig,
};

macro_rules! experiment_bench {
    ($fn_name:ident, $id:literal, $driver:path) => {
        fn $fn_name(c: &mut Criterion) {
            let cfg = ReproConfig::smoke();
            c.bench_function(concat!("experiments/", $id), |b| {
                b.iter(|| $driver(&cfg).expect("experiment succeeds").to_string())
            });
        }
    };
}

experiment_bench!(bench_table1, "table1", table_1);
experiment_bench!(bench_table2, "table2", table_2);
experiment_bench!(bench_fig1, "fig1", fig_1);
experiment_bench!(bench_fig2, "fig2", fig_2);
experiment_bench!(bench_fig3, "fig3", fig_3);
experiment_bench!(bench_fig4, "fig4", fig_4);
experiment_bench!(bench_table5, "table5", table_5);
experiment_bench!(bench_validation, "fig5_fig6_table6", validation_report);
experiment_bench!(bench_inputs, "fig7_fig8_table7", input_sets_report);
experiment_bench!(bench_rate_speed, "rate_speed", rate_speed_report);
experiment_bench!(bench_fig9, "fig9", fig_9);
experiment_bench!(bench_fig10, "fig10", fig_10);
experiment_bench!(bench_table8, "table8", table_8);
experiment_bench!(bench_fig11, "fig11", fig_11);
experiment_bench!(bench_fig12, "fig12", fig_12);
experiment_bench!(bench_fig13, "fig13", fig_13);
experiment_bench!(bench_table9, "table9", table_9);

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_table1, bench_table2, bench_fig1, bench_fig2, bench_fig3, bench_fig4,
        bench_table5, bench_validation, bench_inputs, bench_rate_speed, bench_fig9,
        bench_fig10, bench_table8, bench_fig11, bench_fig12, bench_fig13, bench_table9
}
criterion_main!(benches);
