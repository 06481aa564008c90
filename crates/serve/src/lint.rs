//! Pre-flight validation of a serving configuration.
//!
//! The micro-batcher coalesces up to `max_batch` requests into one UNet
//! batch, so on top of the pipeline rules `max_batch` must be positive.

use aero_analysis::{DiagCode, Report};
use aerodiffusion::lint::lint_config;
use aerodiffusion::PipelineConfig;

use crate::runtime::ServeConfig;

/// Validates a serving setup: [`lint_config`] plus a positive
/// `max_batch` (`AD0005` at `serve.max_batch`).
#[must_use]
pub fn lint_serve(config: &PipelineConfig, serve: &ServeConfig) -> Report {
    let mut report = lint_config(config);
    if serve.max_batch == 0 {
        report.push(DiagCode::InvalidConfig, "serve.max_batch", "max_batch must be positive");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_presets_lint_clean_with_default_serving() {
        for (name, config) in [
            ("paper", PipelineConfig::paper()),
            ("small", PipelineConfig::small()),
            ("smoke", PipelineConfig::smoke()),
        ] {
            let serve = ServeConfig::for_pipeline(&config);
            let report = lint_serve(&config, &serve);
            assert!(report.is_clean(), "{name} preset:\n{}", report.render());
        }
    }

    #[test]
    fn zero_max_batch_is_flagged() {
        let config = PipelineConfig::smoke();
        let mut serve = ServeConfig::for_pipeline(&config);
        serve.max_batch = 0;
        let report = lint_serve(&config, &serve);
        assert!(!report.is_clean());
    }
}
