//! Prompt templates contrasted in Fig. 3 of the paper.

use aero_scene::SceneSpec;

/// Which keypoints a prompt instructs the captioner to cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeypointSet {
    /// Time of day / atmospheric conditions.
    pub time_of_day: bool,
    /// The drone's viewpoint (altitude, angle).
    pub viewpoint: bool,
    /// The explicit object list `o_1 … o_n`.
    pub object_list: bool,
    /// Arrangement/positions relative to the drone's perspective.
    pub spatial_relations: bool,
    /// Static layout (roads, buildings, trees, water).
    pub layout: bool,
}

impl KeypointSet {
    /// All keypoints requested (the keypoint-aware prompt).
    pub const FULL: KeypointSet = KeypointSet {
        time_of_day: true,
        viewpoint: true,
        object_list: true,
        spatial_relations: true,
        layout: true,
    };

    /// No keypoints requested (the traditional prompt).
    pub const NONE: KeypointSet = KeypointSet {
        time_of_day: false,
        viewpoint: false,
        object_list: false,
        spatial_relations: false,
        layout: false,
    };
}

/// A captioning prompt: the instruction text plus the keypoints it asks
/// the model to cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromptTemplate {
    /// Human-readable prompt name ("traditional", "keypoint-aware").
    pub name: String,
    /// The keypoints the prompt demands.
    pub keypoints: KeypointSet,
}

impl PromptTemplate {
    /// The traditional prompt: "Write a description for this image."
    pub fn traditional() -> Self {
        PromptTemplate { name: "traditional".into(), keypoints: KeypointSet::NONE }
    }

    /// The keypoint-aware prompt of Fig. 3, demanding time of day,
    /// viewpoint, the object list, and spatial arrangement.
    pub fn keypoint_aware() -> Self {
        PromptTemplate { name: "keypoint-aware".into(), keypoints: KeypointSet::FULL }
    }

    /// Renders the full prompt text that would be sent to a black-box
    /// LLM API for the given scene (Eq. 1's `P_i`, with `O_i` inlined).
    pub fn render(&self, spec: &SceneSpec) -> String {
        if self.keypoints == KeypointSet::NONE {
            return "Write a description for this image.".to_string();
        }
        let hist = spec.class_histogram();
        let objects: Vec<String> = aero_scene::ObjectClass::ALL
            .iter()
            .zip(hist)
            .filter(|(_, n)| *n > 0)
            .map(|(c, n)| {
                if n == 1 {
                    format!("{n} {}", c.label())
                } else {
                    format!("{n} {}", c.plural_label())
                }
            })
            .collect();
        format!(
            "Write a description for this image, starting with 'A nighttime aerial image' \
             or 'A daytime aerial image', highlighting the time of day and atmospheric \
             conditions. Detail the drone's viewpoint, indicating its perspective on the \
             scene, and mention the objects present ({}), describing their arrangement and \
             positions relative to the drone's perspective and the location within the scene.",
            objects.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aero_scene::{SceneGenerator, SceneGeneratorConfig};
    use rand::{rngs::StdRng, SeedableRng};

    fn scene() -> SceneSpec {
        SceneGenerator::new(SceneGeneratorConfig::default()).generate(&mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn traditional_prompt_is_generic() {
        let p = PromptTemplate::traditional();
        let text = p.render(&scene());
        assert_eq!(text, "Write a description for this image.");
        assert_eq!(p.keypoints, KeypointSet::NONE);
    }

    #[test]
    fn keypoint_prompt_mentions_objects_and_keypoints() {
        let spec = scene();
        let p = PromptTemplate::keypoint_aware();
        let text = p.render(&spec);
        assert!(text.contains("time of day"));
        assert!(text.contains("viewpoint"));
        // at least one real object count should be inlined
        let hist = spec.class_histogram();
        let (class, n) = aero_scene::ObjectClass::ALL
            .iter()
            .zip(hist)
            .find(|(_, n)| *n > 0)
            .expect("scene has objects");
        assert!(text.contains(&format!("{n} {}", class.label())), "prompt: {text}");
    }

    #[test]
    fn full_keypoints_demand_everything() {
        let k = KeypointSet::FULL;
        assert!(k.time_of_day && k.viewpoint && k.object_list && k.spatial_relations && k.layout);
    }
}
