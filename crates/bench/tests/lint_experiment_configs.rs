//! Every experiment scale the benchmark harness ships must describe a
//! consistent model: `lint_config` runs over the exact pipeline config
//! each [`ExperimentScale`] realises, so a config regression is caught at
//! test time instead of minutes into a benchmark run.

use aero_bench::protocol::ExperimentScale;
use aerodiffusion::lint_config;

#[test]
fn all_experiment_scales_lint_clean() {
    for scale in [ExperimentScale::Smoke, ExperimentScale::Small, ExperimentScale::Paper] {
        let config = scale.pipeline_config();
        let report = lint_config(&config);
        assert!(
            report.is_clean(),
            "{scale:?} experiment config has shape errors:\n{}",
            report.render()
        );
        assert_eq!(
            report.warning_count(),
            0,
            "{scale:?} experiment config has shape warnings:\n{}",
            report.render()
        );
    }
}
