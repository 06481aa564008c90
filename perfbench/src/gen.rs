//! The seeded input generator. Prompts, scenes, source images,
//! homography viewpoints, inpainting boxes and arrival times all derive
//! from the workload seed; the program under test only ever sees the
//! generated requests.

use aero_scene::{
    build_dataset, Annotation, BBox, DatasetConfig, DatasetItem, Homography, Image, ObjectClass,
    SceneGeneratorConfig, Viewpoint,
};
use aero_tensor::Tensor;
use aerodiffusion::TaskSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sub-seed for one purpose, so adding a draw for one input never
/// shifts another.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

pub fn rng(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, purpose))
}

/// Open-loop arrival offsets (ms from the phase start) of a Poisson
/// process of `rate` per second over `duration_s`, conditioned on its
/// expected count: `round(rate * duration)` uniform arrivals, sorted.
/// Fixing the count keeps the offered load exact per phase while the
/// gaps stay exponential-like.
pub fn poisson_schedule(rng: &mut StdRng, rate: f64, duration_s: f64) -> Vec<f64> {
    let n = (rate * duration_s).round() as usize;
    let mut at: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * duration_s * 1e3).collect();
    at.sort_by(f64::total_cmp);
    at
}

const MOODS: [&str; 8] =
    ["a busy", "a quiet", "a dense", "a sparse", "a sunny", "a rainy", "an early", "a late"];
const PLACES: [&str; 10] = [
    "intersection",
    "parking lot",
    "downtown block",
    "river crossing",
    "harbor",
    "stadium",
    "rail yard",
    "suburban street",
    "market square",
    "highway interchange",
];
const THINGS: [&str; 7] =
    ["cars", "trucks", "buses", "pedestrians", "bicycles", "vans", "tricycles"];
const VIEWS: [&str; 4] =
    ["seen from above", "from a low drone", "at a steep angle", "in aerial view"];

/// Fisher-Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// One free-text prompt from the prompt grammar.
pub fn prompt(rng: &mut StdRng) -> String {
    format!(
        "{} {} with {} {} {}",
        MOODS[rng.gen_range(0..MOODS.len())],
        PLACES[rng.gen_range(0..PLACES.len())],
        rng.gen_range(2..12usize),
        THINGS[rng.gen_range(0..THINGS.len())],
        VIEWS[rng.gen_range(0..VIEWS.len())],
    )
}

/// `n` distinct prompts.
pub fn prompt_pool(rng: &mut StdRng, n: usize) -> Vec<String> {
    let mut pool: Vec<String> = Vec::with_capacity(n);
    while pool.len() < n {
        let p = prompt(rng);
        if !pool.contains(&p) {
            pool.push(p);
        }
    }
    pool
}

/// `n` seeded aerial scenes at `image_size`.
pub fn scenes(seed: u64, n: usize, image_size: usize) -> Vec<DatasetItem> {
    build_dataset(&DatasetConfig {
        n_scenes: n,
        image_size,
        seed: sub_seed(seed, 7),
        generator: SceneGeneratorConfig::default(),
    })
    .items
}

/// The reference scene a serving runtime conditions text requests on
/// (scene 0 of `reference_seed`, as `ServeConfig::reference_seed`
/// documents).
pub fn reference_scene(reference_seed: u64, image_size: usize) -> DatasetItem {
    build_dataset(&DatasetConfig {
        n_scenes: 1,
        image_size,
        seed: reference_seed,
        generator: SceneGeneratorConfig::default(),
    })
    .items
    .remove(0)
}

/// Channel-major RGB8 bytes of an image (round to nearest), the wire
/// layout of `rgb8_b64`.
pub fn rgb8(image: &Image) -> Vec<u8> {
    image
        .to_tensor()
        .as_slice()
        .iter()
        .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
        .collect()
}

/// The image a server decodes from wire bytes (`byte / 255`).
pub fn image_from_rgb8(bytes: &[u8], width: usize, height: usize) -> Image {
    let data: Vec<f32> = bytes.iter().map(|&b| f32::from(b) / 255.0).collect();
    Image::from_tensor(&Tensor::from_vec(data, &[3, height, width]))
}

/// A camera on a grid of exactly representable values, so the wire
/// round trip cannot perturb it.
fn viewpoint(rng: &mut StdRng) -> Viewpoint {
    Viewpoint {
        altitude: 0.5 + 0.25 * rng.gen_range(0..5u32) as f32,
        pitch_deg: rng.gen_range(45..91u32) as f32,
        heading_deg: rng.gen_range(0..360u32) as f32,
    }
}

/// One to three labelled keypoint boxes inside a `size`-pixel image.
fn boxes(rng: &mut StdRng, size: usize) -> Vec<Annotation> {
    let s = size as u32;
    (0..rng.gen_range(1..4usize))
        .map(|_| {
            let (w, h) = (rng.gen_range(4..s / 3), rng.gen_range(4..s / 3));
            let (x0, y0) = (rng.gen_range(0..s - w), rng.gen_range(0..s - h));
            Annotation {
                class: ObjectClass::ALL[rng.gen_range(0..ObjectClass::ALL.len())],
                bbox: BBox::new(x0 as f32, y0 as f32, (x0 + w) as f32, (y0 + h) as f32),
            }
        })
        .collect()
}

/// A generated task in the benchmark's own terms, from which both the
/// wire line and the in-process `TaskSpec` are built.
#[derive(Debug, Clone)]
pub enum Task {
    Text,
    View { rgb8: Vec<u8>, size: usize, source: Viewpoint, target: Viewpoint },
    Inpaint { rgb8: Vec<u8>, size: usize, boxes: Vec<Annotation> },
    SuperRes { rgb8: Vec<u8>, size: usize },
}

impl Task {
    pub fn kind(&self) -> &'static str {
        match self {
            Task::Text => "text",
            Task::View { .. } => "view",
            Task::Inpaint { .. } => "inpaint",
            Task::SuperRes { .. } => "superres",
        }
    }

    /// The `task` object of the wire line (`None` for text).
    fn wire(&self) -> Option<String> {
        let image = |bytes: &[u8], size: usize| {
            format!(
                r#"{{"width":{size},"height":{size},"rgb8_b64":"{}"}}"#,
                crate::b64::encode(bytes)
            )
        };
        let view = |v: &Viewpoint| {
            format!(
                r#"{{"altitude":{},"pitch":{},"heading":{}}}"#,
                v.altitude, v.pitch_deg, v.heading_deg
            )
        };
        match self {
            Task::Text => None,
            Task::View { rgb8, size, source, target } => Some(format!(
                r#"{{"kind":"view","image":{},"source_view":{},"target_view":{}}}"#,
                image(rgb8, *size),
                view(source),
                view(target)
            )),
            Task::Inpaint { rgb8, size, boxes } => {
                let boxes: Vec<String> = boxes
                    .iter()
                    .map(|b| {
                        format!(
                            r#"{{"label":"{}","x0":{},"y0":{},"x1":{},"y1":{}}}"#,
                            b.class.label(),
                            b.bbox.x0,
                            b.bbox.y0,
                            b.bbox.x1,
                            b.bbox.y1
                        )
                    })
                    .collect();
                Some(format!(
                    r#"{{"kind":"inpaint","image":{},"boxes":[{}]}}"#,
                    image(rgb8, *size),
                    boxes.join(",")
                ))
            }
            Task::SuperRes { rgb8, size } => {
                Some(format!(r#"{{"kind":"superres","image":{}}}"#, image(rgb8, *size)))
            }
        }
    }

    /// The in-process task a server builds from this request's wire
    /// form; `reference`/`caption_g` are the serving runtime's text
    /// exemplar.
    pub fn spec(&self, prompt: &str, reference: &DatasetItem, caption_g: &str) -> TaskSpec {
        match self {
            Task::Text => TaskSpec::text(reference, caption_g, prompt),
            Task::View { rgb8, size, source, target } => TaskSpec::view(
                image_from_rgb8(rgb8, *size, *size),
                Homography::between(*size, *size, source, target),
                prompt,
            ),
            Task::Inpaint { rgb8, size, boxes } => {
                TaskSpec::inpaint(image_from_rgb8(rgb8, *size, *size), boxes.clone(), prompt)
            }
            Task::SuperRes { rgb8, size } => {
                TaskSpec::superres(image_from_rgb8(rgb8, *size, *size), prompt)
            }
        }
    }
}

/// One generated serving request.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: String,
    pub prompt: String,
    pub seed: u64,
    pub task: Task,
}

impl Request {
    /// The NDJSON wire line, newline included.
    pub fn line(&self) -> String {
        let task = self.task.wire().map(|t| format!(r#","task":{t}"#)).unwrap_or_default();
        format!(
            "{{\"type\":\"generate\",\"id\":\"{}\",\"prompt\":\"{}\",\"seed\":{}{task}}}\n",
            self.id, self.prompt, self.seed
        )
    }
}

/// The image-conditioned task of `kind` built on `scene`.
pub fn task(kind: usize, scene: &DatasetItem, rng: &mut StdRng) -> Task {
    let image = &scene.rendered.image;
    let size = image.width();
    match kind % 4 {
        0 => Task::Text,
        1 => Task::View { rgb8: rgb8(image), size, source: viewpoint(rng), target: viewpoint(rng) },
        2 => Task::Inpaint { rgb8: rgb8(image), size, boxes: boxes(rng, size) },
        _ => {
            let half = (size / 2).max(1);
            Task::SuperRes { rgb8: rgb8(&image.resize(half, half)), size: half }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_determined_by_the_seed() {
        let a = poisson_schedule(&mut rng(5, 1), 20.0, 3.0);
        let b = poisson_schedule(&mut rng(5, 1), 20.0, 3.0);
        let c = poisson_schedule(&mut rng(6, 1), 20.0, 3.0);
        assert_eq!(a, b, "same seed, same arrivals");
        assert_ne!(a, c, "another seed, other arrivals");
        assert_eq!(a.len(), 60, "the count is the expected count");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are sorted");
        assert!(a.iter().all(|&t| (0.0..3000.0).contains(&t)), "arrivals stay in the phase");
    }

    #[test]
    fn prompts_and_tasks_are_determined_by_the_seed() {
        assert_eq!(prompt_pool(&mut rng(3, 2), 12), prompt_pool(&mut rng(3, 2), 12));
        let pool = prompt_pool(&mut rng(3, 2), 12);
        let mut dedup = pool.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 12, "the pool is distinct");
        let scene = &scenes(3, 1, 32)[0];
        for kind in 0..4 {
            let a = Request {
                id: "x".into(),
                prompt: "p".into(),
                seed: 1,
                task: task(kind, scene, &mut rng(3, 9)),
            };
            let b = Request {
                id: "x".into(),
                prompt: "p".into(),
                seed: 1,
                task: task(kind, scene, &mut rng(3, 9)),
            };
            assert_eq!(a.line(), b.line());
            assert!(a.line().ends_with("}\n"));
        }
    }

    #[test]
    fn generated_lines_parse_as_the_requests_they_describe() {
        let scene = &scenes(11, 1, 32)[0];
        let reference = reference_scene(0, 32);
        for kind in 0..4 {
            let task = task(kind, scene, &mut rng(11, kind as u64));
            let req = Request { id: format!("r{kind}"), prompt: "a harbor".into(), seed: 42, task };
            let json = aero_serve::Json::parse(req.line().trim_end()).expect("valid JSON");
            let parsed =
                aero_serve::GenerateRequest::from_json(&json, "fallback").expect("valid request");
            assert_eq!((parsed.id.as_str(), parsed.seed), (req.id.as_str(), 42));
            assert_eq!(parsed.task_kind().as_str(), req.task.kind());
            if let Some(payload) = &parsed.task {
                let ours = req.task.spec(&req.prompt, &reference, "g");
                let theirs = payload.to_spec(&req.prompt);
                assert_eq!(ours.source_digest(), theirs.source_digest(), "kind {kind}");
            }
        }
    }
}
