//! Dataset builders: the synthetic aerial corpus and the "classical"
//! single-subject corpus used for the Fig. 1 complexity comparison.

use crate::layout::{SceneGenerator, SceneGeneratorConfig};
use crate::raster::{AnnotatedImage, Rasterizer};
use crate::types::{SceneKind, SceneSpec, TimeOfDay};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One dataset entry: the ground-truth spec plus its render.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetItem {
    /// Full scene ground truth.
    pub spec: SceneSpec,
    /// Rendered image and pixel annotations.
    pub rendered: AnnotatedImage,
}

/// A paired aerial dataset (our stand-in for VisDrone-DET).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AerialDataset {
    /// All items, in generation order.
    pub items: Vec<DatasetItem>,
    /// Image resolution the dataset was rendered at.
    pub image_size: usize,
}

impl AerialDataset {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over items.
    pub fn iter(&self) -> std::slice::Iter<'_, DatasetItem> {
        self.items.iter()
    }

    /// Splits into (train, eval) at `train_fraction`.
    pub fn split(&self, train_fraction: f32) -> (AerialDataset, AerialDataset) {
        let n_train = ((self.items.len() as f32) * train_fraction).round() as usize;
        let n_train = n_train.min(self.items.len());
        (
            AerialDataset { items: self.items[..n_train].to_vec(), image_size: self.image_size },
            AerialDataset { items: self.items[n_train..].to_vec(), image_size: self.image_size },
        )
    }

    /// Aggregate object-count statistics (Fig. 1).
    pub fn object_count_stats(&self) -> ObjectCountStats {
        let counts: Vec<usize> = self.items.iter().map(|i| i.spec.objects.len()).collect();
        ObjectCountStats::from_counts(&counts)
    }
}

/// Configuration for [`build_dataset`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Number of scenes to generate.
    pub n_scenes: usize,
    /// Square image resolution.
    pub image_size: usize,
    /// Master seed.
    pub seed: u64,
    /// Scene generator parameters.
    pub generator: SceneGeneratorConfig,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            n_scenes: 64,
            image_size: 32,
            seed: 0,
            generator: SceneGeneratorConfig::default(),
        }
    }
}

/// Builds the synthetic aerial dataset, parallelizing rendering across
/// threads (each scene is generated from an independent per-index seed so
/// the result is deterministic regardless of thread count).
///
/// # Panics
///
/// Panics if a rendering worker thread panics.
pub fn build_dataset(config: &DatasetConfig) -> AerialDataset {
    let generator = SceneGenerator::new(config.generator);
    let rasterizer = Rasterizer::new(config.image_size, config.image_size);
    let n_threads = aero_tensor::parallel::suggested_threads(8);
    let chunk = config.n_scenes.div_ceil(n_threads).max(1);
    let mut items: Vec<Option<DatasetItem>> = vec![None; config.n_scenes];
    std::thread::scope(|scope| {
        for (tid, slot_chunk) in items.chunks_mut(chunk).enumerate() {
            let generator = &generator;
            let rasterizer = &rasterizer;
            let base = tid * chunk;
            let seed = config.seed;
            scope.spawn(move || {
                for (k, slot) in slot_chunk.iter_mut().enumerate() {
                    let idx = base + k;
                    let mut rng = StdRng::seed_from_u64(
                        seed.wrapping_add(0x51ED_2701).wrapping_add(idx as u64 * 0x9E37),
                    );
                    let spec = generator.generate(&mut rng);
                    let rendered = rasterizer.render(&spec);
                    *slot = Some(DatasetItem { spec, rendered });
                }
            });
        }
    });
    AerialDataset {
        items: items.into_iter().map(|i| i.expect("all slots filled")).collect(),
        image_size: config.image_size,
    }
}

/// Builds a "classical image synthesis dataset" stand-in (FlintStones-like
/// in Fig. 1): single-subject scenes with 1–2 objects on a plain ground.
pub fn build_classical_dataset(n_scenes: usize, image_size: usize, seed: u64) -> AerialDataset {
    let rasterizer = Rasterizer::new(image_size, image_size);
    let generator = SceneGenerator::new(SceneGeneratorConfig {
        min_objects: 1,
        max_objects: 2,
        night_probability: 0.0,
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items = Vec::with_capacity(n_scenes);
    for _ in 0..n_scenes {
        let kind = if rng.gen_bool(0.5) { SceneKind::Park } else { SceneKind::Campus };
        let mut spec = generator.generate_kind(kind, &mut rng);
        spec.time = TimeOfDay::Day;
        // Classical datasets centre their one or two subjects.
        for (i, o) in spec.objects.iter_mut().enumerate() {
            o.x = 0.45 + 0.1 * i as f32;
            o.y = 0.5;
        }
        let rendered = rasterizer.render(&spec);
        items.push(DatasetItem { spec, rendered });
    }
    AerialDataset { items, image_size }
}

/// Summary statistics of objects-per-image (the Fig. 1 histogram).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectCountStats {
    /// Minimum objects in any image.
    pub min: usize,
    /// Maximum objects in any image.
    pub max: usize,
    /// Mean objects per image.
    pub mean: f32,
    /// Histogram over bins of width 10 (0–9, 10–19, …, 90+).
    pub histogram: Vec<usize>,
}

impl ObjectCountStats {
    /// Computes stats from raw per-image counts.
    pub fn from_counts(counts: &[usize]) -> Self {
        let min = counts.iter().copied().min().unwrap_or(0);
        let max = counts.iter().copied().max().unwrap_or(0);
        let mean = if counts.is_empty() {
            0.0
        } else {
            counts.iter().sum::<usize>() as f32 / counts.len() as f32
        };
        let mut histogram = vec![0usize; 10];
        for &c in counts {
            histogram[(c / 10).min(9)] += 1;
        }
        ObjectCountStats { min, max, mean, histogram }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dataset_deterministic_and_sized() {
        let cfg =
            DatasetConfig { n_scenes: 8, image_size: 16, seed: 3, ..DatasetConfig::default() };
        let a = build_dataset(&cfg);
        let b = build_dataset(&cfg);
        assert_eq!(a.len(), 8);
        assert_eq!(a, b, "dataset generation must be deterministic");
        assert_eq!(a.items[0].rendered.image.width(), 16);
    }

    #[test]
    fn split_partitions() {
        let cfg =
            DatasetConfig { n_scenes: 10, image_size: 8, seed: 1, ..DatasetConfig::default() };
        let ds = build_dataset(&cfg);
        let (train, eval) = ds.split(0.7);
        assert_eq!(train.len(), 7);
        assert_eq!(eval.len(), 3);
    }

    #[test]
    fn aerial_vs_classical_complexity_gap() {
        // The Fig. 1 claim: aerial scenes carry ~20–90 objects, classical
        // scenes 1–2.
        let aerial = build_dataset(&DatasetConfig {
            n_scenes: 12,
            image_size: 8,
            seed: 5,
            ..DatasetConfig::default()
        });
        let classical = build_classical_dataset(12, 8, 5);
        let sa = aerial.object_count_stats();
        let sc = classical.object_count_stats();
        assert!(sa.min >= 20 && sa.max <= 90);
        assert!(sc.max <= 2);
        assert!(sa.mean > 10.0 * sc.mean);
    }

    #[test]
    fn histogram_bins_cover_counts() {
        let stats = ObjectCountStats::from_counts(&[0, 5, 10, 19, 95, 90]);
        assert_eq!(stats.histogram[0], 2);
        assert_eq!(stats.histogram[1], 2);
        assert_eq!(stats.histogram[9], 2);
        assert_eq!(stats.min, 0);
        assert_eq!(stats.max, 95);
    }

    #[test]
    fn empty_counts_are_safe() {
        let stats = ObjectCountStats::from_counts(&[]);
        assert_eq!(stats.mean, 0.0);
        assert_eq!(stats.min, 0);
    }
}
