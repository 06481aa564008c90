//! Keypoint-coverage analysis of captions against scene ground truth.
//!
//! This quantifies the Fig. 3 contrast: how many of the scene's keypoints
//! (time of day, viewpoint, object classes, layout) a caption actually
//! conveys, and whether it asserts objects that are not there.

use crate::tokenizer::tokenize_words;
use aero_scene::{ObjectClass, SceneSpec};

/// Coverage of scene keypoints by a caption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageReport {
    /// Caption states the correct time of day.
    pub mentions_time: bool,
    /// Caption describes the viewpoint (altitude/angle words).
    pub mentions_viewpoint: bool,
    /// Fraction of present object classes that are named.
    pub class_recall: f32,
    /// Fraction of named object classes that are actually present.
    pub class_precision: f32,
    /// Caption references layout elements present in the scene.
    pub mentions_layout: bool,
    /// Caption uses spatial-relation vocabulary (left/right/center/…).
    pub mentions_positions: bool,
}

impl CoverageReport {
    /// A single scalar score in `[0, 1]` combining all keypoints, used to
    /// rank captioners in tests and in the Table II harness.
    pub fn score(&self) -> f32 {
        let mut s = 0.0;
        if self.mentions_time {
            s += 1.0;
        }
        if self.mentions_viewpoint {
            s += 1.0;
        }
        if self.mentions_layout {
            s += 1.0;
        }
        if self.mentions_positions {
            s += 1.0;
        }
        s += 2.0 * self.class_recall;
        s += self.class_precision;
        s / 7.0
    }
}

/// Measures how completely `caption` covers the keypoints of `spec`.
pub fn keypoint_coverage(caption: &str, spec: &SceneSpec) -> CoverageReport {
    let words = tokenize_words(caption);
    let has = |w: &str| words.iter().any(|t| t == w);
    let has_any = |ws: &[&str]| ws.iter().any(|w| has(w));

    let mentions_time = has(match spec.time {
        aero_scene::TimeOfDay::Day => "daytime",
        aero_scene::TimeOfDay::Night => "nighttime",
    });
    let mentions_viewpoint =
        has_any(&["altitude", "vantage", "angle", "angled", "down", "perspective"]);
    let mentions_positions = has_any(&["left", "right", "center", "top", "bottom"]);

    let hist = spec.class_histogram();
    let mut present = 0usize;
    let mut recalled = 0usize;
    let mut named = 0usize;
    let mut named_correct = 0usize;
    for class in ObjectClass::ALL {
        // match singular token of the label's first word ("motorcycle" etc.)
        // and its plural — including sibilant stems ("bus" → "buses")
        let label_word = class.label().split_whitespace().next().unwrap_or("");
        let in_caption = words.iter().any(|t| {
            t == label_word || t == &format!("{label_word}s") || t == &format!("{label_word}es")
        });
        let in_scene = hist[class.id()] > 0;
        if in_scene {
            present += 1;
            if in_caption {
                recalled += 1;
            }
        }
        if in_caption {
            named += 1;
            if in_scene {
                named_correct += 1;
            }
        }
    }
    let class_recall = if present == 0 { 1.0 } else { recalled as f32 / present as f32 };
    let class_precision = if named == 0 { 0.0 } else { named_correct as f32 / named as f32 };

    let l = &spec.layout;
    let mentions_layout = (!l.roads.is_empty()
        && has_any(&["road", "highway", "walkway", "lanes", "street"]))
        || (!l.buildings.is_empty() && has_any(&["building", "buildings", "stalls"]))
        || (!l.trees.is_empty() && has_any(&["tree", "trees"]))
        || (!l.water.is_empty() && has("pond"));

    CoverageReport {
        mentions_time,
        mentions_viewpoint,
        class_recall,
        class_precision,
        mentions_layout,
        mentions_positions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llm::{LlmProvider, SimulatedLlm};
    use crate::prompt::PromptTemplate;
    use aero_scene::{SceneGenerator, SceneGeneratorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scene(seed: u64) -> SceneSpec {
        SceneGenerator::new(SceneGeneratorConfig::default())
            .generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn keypoint_captions_score_higher_than_traditional() {
        let mut better = 0;
        for seed in 0..12u64 {
            let spec = scene(seed);
            let llm = SimulatedLlm::new(LlmProvider::KeypointAware);
            let rich = llm.describe(
                &spec,
                &PromptTemplate::keypoint_aware(),
                &mut StdRng::seed_from_u64(seed),
            );
            let vague = llm.describe(
                &spec,
                &PromptTemplate::traditional(),
                &mut StdRng::seed_from_u64(seed),
            );
            let rs = keypoint_coverage(&rich, &spec).score();
            let vs = keypoint_coverage(&vague, &spec).score();
            if rs > vs {
                better += 1;
            }
        }
        assert!(better >= 11, "keypoint prompt should nearly always win, won {better}/12");
    }

    #[test]
    fn provider_scores_match_table_ii_ordering() {
        let mut avg = std::collections::HashMap::new();
        for seed in 0..16u64 {
            let spec = scene(seed + 100);
            for p in LlmProvider::ALL {
                let llm = SimulatedLlm::new(p);
                let cap = llm.describe(
                    &spec,
                    &PromptTemplate::keypoint_aware(),
                    &mut StdRng::seed_from_u64(seed),
                );
                *avg.entry(p).or_insert(0.0f32) += keypoint_coverage(&cap, &spec).score();
            }
        }
        let aero = avg[&LlmProvider::KeypointAware];
        let gemini = avg[&LlmProvider::GeminiLike];
        let gpt = avg[&LlmProvider::Gpt4oLike];
        let blip = avg[&LlmProvider::BlipCaption];
        assert!(aero > gemini, "aero {aero} gemini {gemini}");
        assert!(gemini > gpt, "gemini {gemini} gpt {gpt}");
        assert!(gpt > blip, "gpt {gpt} blip {blip}");
    }

    #[test]
    fn perfect_recall_on_full_keypoint_caption() {
        let spec = scene(50);
        let llm = SimulatedLlm::new(LlmProvider::KeypointAware);
        let cap =
            llm.describe(&spec, &PromptTemplate::keypoint_aware(), &mut StdRng::seed_from_u64(0));
        let report = keypoint_coverage(&cap, &spec);
        assert!((report.class_recall - 1.0).abs() < 1e-6, "{report:?}\n{cap}");
        assert!(report.mentions_time);
    }

    #[test]
    fn empty_caption_scores_low() {
        let spec = scene(51);
        let report = keypoint_coverage("", &spec);
        assert!(report.score() < 0.3);
        assert!(!report.mentions_time);
    }
}
