//! Simulated black-box LLM captioners.
//!
//! The paper calls GPT-4o / Gemini through APIs (temperature 1.2, ≤120
//! tokens) and also compares against BLIP's native captions (Table II).
//! Here each provider is a profile over *caption information content*:
//! with what probability each keypoint category survives into the text,
//! how many object classes are silently omitted, and how often a class
//! that is not in the scene is hallucinated. Downstream, richer and more
//! faithful captions give the conditional diffusion model more usable
//! guidance — the mechanism behind the paper's Table II ordering.

use crate::prompt::PromptTemplate;
use aero_scene::{ObjectClass, SceneSpec, TimeOfDay, Viewpoint};
use rand::Rng;

/// Fidelity profile of a simulated captioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptionProfile {
    /// Probability a requested keypoint (time/viewpoint/layout/positions)
    /// actually appears in the output.
    pub keypoint_compliance: f64,
    /// Probability each present object class is dropped from the text.
    pub omission_rate: f64,
    /// Probability of inventing one absent object class.
    pub hallucination_rate: f64,
    /// Hard cap on sentences (BLIP-style captions are a single sentence).
    pub max_sentences: usize,
}

/// The captioners compared in Table II, plus the paper's own pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LlmProvider {
    /// AeroDiffusion's keypoint-aware generation (chain-of-thought over
    /// ground-truth object lists): complete and faithful.
    KeypointAware,
    /// A Gemini-like API captioner: strong but lossy.
    GeminiLike,
    /// A GPT-4o-like API captioner: slightly lossier in this domain.
    Gpt4oLike,
    /// BLIP native captioning: one short, generic sentence.
    BlipCaption,
}

impl LlmProvider {
    /// All providers in Table II order.
    pub const ALL: [LlmProvider; 4] = [
        LlmProvider::GeminiLike,
        LlmProvider::Gpt4oLike,
        LlmProvider::BlipCaption,
        LlmProvider::KeypointAware,
    ];

    /// Display name matching the paper's Table II rows.
    pub fn name(self) -> &'static str {
        match self {
            LlmProvider::KeypointAware => "AeroDiffusion",
            LlmProvider::GeminiLike => "Gemini",
            LlmProvider::Gpt4oLike => "GPT-4o",
            LlmProvider::BlipCaption => "BLIP",
        }
    }

    /// The provider's fidelity profile.
    pub fn profile(self) -> CaptionProfile {
        match self {
            LlmProvider::KeypointAware => CaptionProfile {
                keypoint_compliance: 1.0,
                omission_rate: 0.0,
                hallucination_rate: 0.0,
                max_sentences: 8,
            },
            LlmProvider::GeminiLike => CaptionProfile {
                keypoint_compliance: 0.7,
                omission_rate: 0.25,
                hallucination_rate: 0.05,
                max_sentences: 5,
            },
            LlmProvider::Gpt4oLike => CaptionProfile {
                keypoint_compliance: 0.6,
                omission_rate: 0.35,
                hallucination_rate: 0.08,
                max_sentences: 5,
            },
            LlmProvider::BlipCaption => CaptionProfile {
                keypoint_compliance: 0.15,
                omission_rate: 0.75,
                hallucination_rate: 0.10,
                max_sentences: 1,
            },
        }
    }
}

/// A deterministic-given-RNG stand-in for `LLM(X_i, O_i, P_i)` (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedLlm {
    provider: LlmProvider,
}

impl SimulatedLlm {
    /// Creates a captioner for a provider.
    pub fn new(provider: LlmProvider) -> Self {
        SimulatedLlm { provider }
    }

    /// The provider this captioner simulates.
    pub fn provider(&self) -> LlmProvider {
        self.provider
    }

    /// Produces the caption `G_i` for a scene under a prompt.
    ///
    /// The effective coverage of each keypoint is the AND of the prompt
    /// requesting it and the provider complying — matching Fig. 3, where
    /// even a capable model gives a vague caption under the traditional
    /// prompt.
    pub fn describe<R: Rng + ?Sized>(
        &self,
        spec: &SceneSpec,
        prompt: &PromptTemplate,
        rng: &mut R,
    ) -> String {
        let profile = self.provider.profile();
        let want = &prompt.keypoints;
        let comply =
            |requested: bool, rng: &mut R| requested && rng.gen_bool(profile.keypoint_compliance);

        let mut sentences: Vec<String> = Vec::new();

        // Opening sentence: time of day + scene + viewpoint.
        let time_phrase = if comply(want.time_of_day, rng) {
            format!("A {} aerial image", spec.time.phrase())
        } else {
            "An aerial image".to_string()
        };
        let view_phrase = if comply(want.viewpoint, rng) {
            format!(", captured from {}", spec.viewpoint.phrase())
        } else {
            String::new()
        };
        sentences.push(format!("{time_phrase} of {}{view_phrase}.", spec.kind.phrase()));

        // Object inventory with spatial relations.
        let hist = spec.class_histogram();
        let mention_positions = comply(want.spatial_relations, rng);
        let mut mentioned_any = false;
        for class in ObjectClass::ALL {
            let n = hist[class.id()];
            if n == 0 {
                continue;
            }
            if !want.object_list {
                continue; // traditional prompt: inventory handled below
            }
            if rng.gen_bool(profile.omission_rate) {
                continue;
            }
            mentioned_any = true;
            let count_word = count_phrase(n);
            let noun = if n == 1 { class.label() } else { class.plural_label() };
            let mut s = format!("{count_word} {noun}");
            if mention_positions {
                s.push_str(&format!(" {}", region_phrase(spec, class)));
            }
            sentences.push(format!("There are {s}."));
        }
        // Traditional prompt: one vague gist sentence about the most
        // salient class only.
        if !want.object_list {
            if let Some((class, _)) = ObjectClass::ALL
                .iter()
                .map(|&c| (c, hist[c.id()]))
                .filter(|(_, n)| *n > 0)
                .max_by_key(|(_, n)| *n)
            {
                sentences.push(format!(
                    "The scene shows some {} and general activity.",
                    class.plural_label()
                ));
            }
        }
        // Hallucination: invent a class that is absent.
        if rng.gen_bool(profile.hallucination_rate) {
            if let Some(fake) = ObjectClass::ALL.iter().find(|c| hist[c.id()] == 0) {
                sentences.push(format!("A few {} are visible.", fake.plural_label()));
            }
        }
        if !mentioned_any && want.object_list {
            // Even heavy omission keeps at least the dominant class so the
            // caption is never empty of content.
            if let Some((class, n)) = ObjectClass::ALL
                .iter()
                .map(|&c| (c, hist[c.id()]))
                .filter(|(_, n)| *n > 0)
                .max_by_key(|(_, n)| *n)
            {
                sentences.push(format!("There are {} {}.", count_phrase(n), class.plural_label()));
            }
        }

        // Layout sentence.
        if comply(want.layout, rng) {
            sentences.push(layout_phrase(spec));
        }

        sentences.truncate(profile.max_sentences);
        sentences.join(" ")
    }

    /// Produces the target description `G'_i` for viewpoint-transition
    /// synthesis (Table III): the same scene content re-narrated from a
    /// requested new viewpoint.
    pub fn describe_with_viewpoint<R: Rng + ?Sized>(
        &self,
        spec: &SceneSpec,
        new_viewpoint: Viewpoint,
        rng: &mut R,
    ) -> String {
        let moved = spec.with_viewpoint(new_viewpoint);
        self.describe(&moved, &PromptTemplate::keypoint_aware(), rng)
    }

    /// Produces a nighttime-conditioned description of the scene with
    /// explicit lighting detail (used for Fig. 5).
    pub fn describe_at_night<R: Rng + ?Sized>(&self, spec: &SceneSpec, rng: &mut R) -> String {
        let night = spec.with_time(TimeOfDay::Night);
        let mut caption = self.describe(&night, &PromptTemplate::keypoint_aware(), rng);
        caption.push_str(
            " Headlights cast bright pools on the road and streetlights glow along its edges.",
        );
        caption
    }
}

pub(crate) fn count_phrase(n: usize) -> &'static str {
    match n {
        0 => "no",
        1 => "one",
        2..=4 => "a few",
        5..=12 => "several",
        13..=30 => "many",
        _ => "dozens of",
    }
}

fn region_phrase(spec: &SceneSpec, class: ObjectClass) -> String {
    let (mut sx, mut sy, mut n) = (0.0f32, 0.0f32, 0usize);
    for o in spec.objects.iter().filter(|o| o.class == class) {
        sx += o.x;
        sy += o.y;
        n += 1;
    }
    if n == 0 {
        return "in the scene".into();
    }
    let (mx, my) = (sx / n as f32, sy / n as f32);
    let horiz = if mx < 0.38 {
        "on the left"
    } else if mx > 0.62 {
        "on the right"
    } else {
        "near the center"
    };
    let vert = if my < 0.38 {
        "toward the top"
    } else if my > 0.62 {
        "toward the bottom"
    } else {
        ""
    };
    if vert.is_empty() {
        format!("{horiz} of the scene")
    } else {
        format!("{horiz} of the scene, {vert}")
    }
}

fn layout_phrase(spec: &SceneSpec) -> String {
    let l = &spec.layout;
    let mut parts = Vec::new();
    if !l.roads.is_empty() {
        let lanes = l.roads.iter().map(|r| r.lanes).max().unwrap_or(1);
        if lanes > 1 {
            parts.push(format!("a road with {lanes} lanes and white painted markings"));
        } else {
            parts.push("a paved walkway".to_string());
        }
    }
    if !l.buildings.is_empty() {
        parts.push(format!("{} buildings", count_phrase(l.buildings.len())));
    }
    if !l.trees.is_empty() {
        parts.push(format!("{} green trees", count_phrase(l.trees.len())));
    }
    if !l.water.is_empty() {
        parts.push("a pond".to_string());
    }
    if parts.is_empty() {
        "The surroundings are open ground.".to_string()
    } else {
        format!("The scene includes {}.", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aero_scene::{SceneGenerator, SceneGeneratorConfig, SceneKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scene(seed: u64) -> SceneSpec {
        SceneGenerator::new(SceneGeneratorConfig::default())
            .generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn keypoint_caption_includes_time_and_viewpoint() {
        let spec = scene(1);
        let llm = SimulatedLlm::new(LlmProvider::KeypointAware);
        let cap =
            llm.describe(&spec, &PromptTemplate::keypoint_aware(), &mut StdRng::seed_from_u64(0));
        assert!(cap.starts_with(&format!("A {} aerial image", spec.time.phrase())), "{cap}");
        assert!(cap.contains("captured from"), "{cap}");
    }

    #[test]
    fn keypoint_caption_mentions_every_present_class() {
        let spec = scene(2);
        let llm = SimulatedLlm::new(LlmProvider::KeypointAware);
        let cap =
            llm.describe(&spec, &PromptTemplate::keypoint_aware(), &mut StdRng::seed_from_u64(0));
        let hist = spec.class_histogram();
        for class in ObjectClass::ALL {
            if hist[class.id()] > 0 {
                assert!(cap.contains(class.label()), "missing {} in: {cap}", class.label());
            }
        }
    }

    #[test]
    fn traditional_prompt_gives_vague_caption() {
        let spec = scene(3);
        let llm = SimulatedLlm::new(LlmProvider::KeypointAware);
        let keypoint =
            llm.describe(&spec, &PromptTemplate::keypoint_aware(), &mut StdRng::seed_from_u64(0));
        let traditional =
            llm.describe(&spec, &PromptTemplate::traditional(), &mut StdRng::seed_from_u64(0));
        assert!(traditional.len() < keypoint.len(), "vague: {traditional}\nrich: {keypoint}");
    }

    #[test]
    fn blip_caption_is_single_sentence() {
        let spec = scene(4);
        let llm = SimulatedLlm::new(LlmProvider::BlipCaption);
        let cap =
            llm.describe(&spec, &PromptTemplate::keypoint_aware(), &mut StdRng::seed_from_u64(0));
        assert_eq!(cap.matches('.').count(), 1, "{cap}");
    }

    #[test]
    fn providers_order_by_information_content() {
        // Averaged over scenes, the keypoint-aware captioner produces the
        // longest captions and BLIP the shortest.
        let mut totals = std::collections::HashMap::new();
        for seed in 0..10u64 {
            let spec = scene(seed);
            for p in LlmProvider::ALL {
                let llm = SimulatedLlm::new(p);
                let cap = llm.describe(
                    &spec,
                    &PromptTemplate::keypoint_aware(),
                    &mut StdRng::seed_from_u64(seed),
                );
                *totals.entry(p).or_insert(0usize) += cap.len();
            }
        }
        assert!(totals[&LlmProvider::KeypointAware] > totals[&LlmProvider::GeminiLike]);
        assert!(totals[&LlmProvider::GeminiLike] > totals[&LlmProvider::BlipCaption]);
    }

    #[test]
    fn night_description_mentions_lighting() {
        let spec = scene(5);
        let llm = SimulatedLlm::new(LlmProvider::KeypointAware);
        let cap = llm.describe_at_night(&spec, &mut StdRng::seed_from_u64(0));
        assert!(cap.contains("nighttime"), "{cap}");
        assert!(cap.contains("Headlights"), "{cap}");
    }

    #[test]
    fn viewpoint_transition_changes_caption() {
        let spec = scene(6);
        let llm = SimulatedLlm::new(LlmProvider::KeypointAware);
        let g =
            llm.describe(&spec, &PromptTemplate::keypoint_aware(), &mut StdRng::seed_from_u64(0));
        let vp = Viewpoint { altitude: 0.4, pitch_deg: 45.0, heading_deg: 10.0 };
        let g_prime = llm.describe_with_viewpoint(&spec, vp, &mut StdRng::seed_from_u64(0));
        assert_ne!(g, g_prime);
        assert!(g_prime.contains("low altitude"), "{g_prime}");
    }

    #[test]
    fn market_caption_names_the_market() {
        let spec = SceneGenerator::default()
            .generate_kind(SceneKind::Market, &mut StdRng::seed_from_u64(7));
        let llm = SimulatedLlm::new(LlmProvider::KeypointAware);
        let cap =
            llm.describe(&spec, &PromptTemplate::keypoint_aware(), &mut StdRng::seed_from_u64(0));
        assert!(cap.contains("market"), "{cap}");
    }
}
