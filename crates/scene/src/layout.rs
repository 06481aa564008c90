//! Procedural layout and scene generation.

use crate::types::{ObjectClass, SceneKind, SceneObject, SceneSpec, TimeOfDay, Viewpoint};
use rand::Rng;

/// A straight road segment in world coordinates (`[0, 1]²`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadSegment {
    /// Start point.
    pub start: (f32, f32),
    /// End point.
    pub end: (f32, f32),
    /// Road half-width in world units.
    pub half_width: f32,
    /// Number of painted lanes.
    pub lanes: usize,
}

impl RoadSegment {
    /// Unit direction vector of the road.
    pub fn direction(&self) -> (f32, f32) {
        let dx = self.end.0 - self.start.0;
        let dy = self.end.1 - self.start.1;
        let len = (dx * dx + dy * dy).sqrt().max(1e-6);
        (dx / len, dy / len)
    }

    /// Heading angle in radians.
    pub fn heading(&self) -> f32 {
        let (dx, dy) = self.direction();
        dy.atan2(dx)
    }

    /// A point at parameter `t ∈ [0, 1]` offset `lateral` from the axis.
    pub fn point_at(&self, t: f32, lateral: f32) -> (f32, f32) {
        let (dx, dy) = self.direction();
        let base = (
            self.start.0 + (self.end.0 - self.start.0) * t,
            self.start.1 + (self.end.1 - self.start.1) * t,
        );
        (base.0 - dy * lateral, base.1 + dx * lateral)
    }

    /// Signed distance heuristics: distance from a point to the segment axis.
    pub fn distance_to(&self, p: (f32, f32)) -> f32 {
        let (dx, dy) = self.direction();
        let len = {
            let ex = self.end.0 - self.start.0;
            let ey = self.end.1 - self.start.1;
            (ex * ex + ey * ey).sqrt()
        };
        let px = p.0 - self.start.0;
        let py = p.1 - self.start.1;
        let t = (px * dx + py * dy).clamp(0.0, len);
        let cx = self.start.0 + dx * t;
        let cy = self.start.1 + dy * t;
        ((p.0 - cx).powi(2) + (p.1 - cy).powi(2)).sqrt()
    }
}

/// Axis-aligned world-space rectangle (used for buildings and stalls).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldRect {
    /// Centre x.
    pub cx: f32,
    /// Centre y.
    pub cy: f32,
    /// Half extent along x.
    pub hx: f32,
    /// Half extent along y.
    pub hy: f32,
    /// Roof tint seed in `[0, 1]`.
    pub tint: f32,
}

/// A circular feature (tree canopy or pond).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldCircle {
    /// Centre x.
    pub cx: f32,
    /// Centre y.
    pub cy: f32,
    /// Radius in world units.
    pub r: f32,
}

/// Static scene furniture: roads, buildings, trees, optional water.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Layout {
    /// Road segments (drawn below everything else).
    pub roads: Vec<RoadSegment>,
    /// Buildings (market stalls included).
    pub buildings: Vec<WorldRect>,
    /// Tree canopies.
    pub trees: Vec<WorldCircle>,
    /// Ponds/water bodies.
    pub water: Vec<WorldCircle>,
    /// Paved plaza regions (campus walkways, market floor).
    pub plazas: Vec<WorldRect>,
}

/// Configuration of the scene generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneGeneratorConfig {
    /// Minimum annotated objects per scene (paper: ~20).
    pub min_objects: usize,
    /// Maximum annotated objects per scene (paper: ~90).
    pub max_objects: usize,
    /// Probability of a night scene.
    pub night_probability: f64,
}

impl Default for SceneGeneratorConfig {
    fn default() -> Self {
        SceneGeneratorConfig { min_objects: 20, max_objects: 90, night_probability: 0.25 }
    }
}

/// Procedural generator of [`SceneSpec`]s.
#[derive(Debug, Clone, Default)]
pub struct SceneGenerator {
    config: SceneGeneratorConfig,
}

impl SceneGenerator {
    /// Creates a generator with the given configuration.
    pub fn new(config: SceneGeneratorConfig) -> Self {
        SceneGenerator { config }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &SceneGeneratorConfig {
        &self.config
    }

    /// Generates a complete scene from the RNG's current state.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> SceneSpec {
        let kind = SceneKind::ALL[rng.gen_range(0..SceneKind::ALL.len())];
        self.generate_kind(kind, rng)
    }

    /// Generates a scene of a specific archetype.
    pub fn generate_kind<R: Rng + ?Sized>(&self, kind: SceneKind, rng: &mut R) -> SceneSpec {
        let time = if rng.gen_bool(self.config.night_probability) {
            TimeOfDay::Night
        } else {
            TimeOfDay::Day
        };
        let viewpoint = Viewpoint {
            altitude: rng.gen_range(0.5..1.0),
            pitch_deg: rng.gen_range(55.0..90.0),
            heading_deg: rng.gen_range(0.0..360.0),
        };
        let seed = rng.gen();
        let (layout, objects) = match kind {
            SceneKind::Highway => self.highway(rng),
            SceneKind::Intersection => self.intersection(rng),
            SceneKind::Market => self.market(rng),
            SceneKind::Campus => self.campus(rng),
            SceneKind::Park => self.park(rng),
            SceneKind::Residential => self.residential(rng),
        };
        SceneSpec { kind, time, viewpoint, layout, objects, seed }
    }

    fn target_count<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        rng.gen_range(self.config.min_objects..=self.config.max_objects)
    }

    fn vehicle_mix<R: Rng + ?Sized>(rng: &mut R) -> ObjectClass {
        match rng.gen_range(0..10) {
            0..=5 => ObjectClass::Car,
            6 => ObjectClass::Van,
            7 => ObjectClass::Truck,
            8 => ObjectClass::Bus,
            _ => ObjectClass::Motor,
        }
    }

    fn place_on_road<R: Rng + ?Sized>(
        road: &RoadSegment,
        class: ObjectClass,
        rng: &mut R,
    ) -> SceneObject {
        let lane_count = road.lanes.max(1);
        let lane = rng.gen_range(0..lane_count) as f32;
        let lane_offset =
            (lane + 0.5) / lane_count as f32 * 2.0 * road.half_width - road.half_width;
        let t = rng.gen_range(0.05..0.95);
        let (x, y) = road.point_at(t, lane_offset * 0.85);
        SceneObject { class, x, y, heading: road.heading(), tint: rng.gen() }
    }

    fn scatter_pedestrians<R: Rng + ?Sized>(
        objects: &mut Vec<SceneObject>,
        n: usize,
        region: (f32, f32, f32, f32),
        rng: &mut R,
    ) {
        let (x0, y0, x1, y1) = region;
        for _ in 0..n {
            objects.push(SceneObject {
                class: if rng.gen_bool(0.85) {
                    ObjectClass::Pedestrian
                } else {
                    ObjectClass::Bicycle
                },
                x: rng.gen_range(x0..x1),
                y: rng.gen_range(y0..y1),
                heading: rng.gen_range(0.0..std::f32::consts::TAU),
                tint: rng.gen(),
            });
        }
    }

    fn highway<R: Rng + ?Sized>(&self, rng: &mut R) -> (Layout, Vec<SceneObject>) {
        let y = rng.gen_range(0.35..0.65);
        let road = RoadSegment {
            start: (0.0, y),
            end: (1.0, y + rng.gen_range(-0.1..0.1)),
            half_width: 0.09,
            lanes: 4,
        };
        let mut layout = Layout { roads: vec![road], ..Layout::default() };
        // Dense neighbourhood on one side, trees on the other (per Fig. 3's
        // running example).
        for _ in 0..rng.gen_range(6..12) {
            layout.buildings.push(WorldRect {
                cx: rng.gen_range(0.05..0.95),
                cy: rng.gen_range(0.02..(y - 0.16).max(0.04)),
                hx: rng.gen_range(0.03..0.07),
                hy: rng.gen_range(0.03..0.06),
                tint: rng.gen(),
            });
        }
        for _ in 0..rng.gen_range(8..16) {
            layout.trees.push(WorldCircle {
                cx: rng.gen_range(0.02..0.98),
                cy: rng.gen_range((y + 0.14).min(0.92)..0.98),
                r: rng.gen_range(0.015..0.04),
            });
        }
        let n = self.target_count(rng);
        let mut objects = Vec::with_capacity(n);
        let vehicles = (n as f32 * 0.8) as usize;
        for _ in 0..vehicles {
            objects.push(Self::place_on_road(&road, Self::vehicle_mix(rng), rng));
        }
        Self::scatter_pedestrians(
            &mut objects,
            n - vehicles,
            (0.05, 0.02, 0.95, (y - 0.12).max(0.05)),
            rng,
        );
        (layout, objects)
    }

    fn intersection<R: Rng + ?Sized>(&self, rng: &mut R) -> (Layout, Vec<SceneObject>) {
        let cx = rng.gen_range(0.4..0.6);
        let cy = rng.gen_range(0.4..0.6);
        let h = RoadSegment { start: (0.0, cy), end: (1.0, cy), half_width: 0.07, lanes: 2 };
        let v = RoadSegment { start: (cx, 0.0), end: (cx, 1.0), half_width: 0.07, lanes: 2 };
        let mut layout = Layout { roads: vec![h, v], ..Layout::default() };
        for corner in [(0.2, 0.2), (0.8, 0.2), (0.2, 0.8), (0.8, 0.8)] {
            for _ in 0..rng.gen_range(1..4) {
                layout.buildings.push(WorldRect {
                    cx: (corner.0 + rng.gen_range(-0.12..0.12f32)).clamp(0.05, 0.95),
                    cy: (corner.1 + rng.gen_range(-0.12..0.12f32)).clamp(0.05, 0.95),
                    hx: rng.gen_range(0.03..0.06),
                    hy: rng.gen_range(0.03..0.06),
                    tint: rng.gen(),
                });
            }
        }
        let n = self.target_count(rng);
        let mut objects = Vec::with_capacity(n);
        let vehicles = (n as f32 * 0.7) as usize;
        for i in 0..vehicles {
            let road = if i % 2 == 0 { &h } else { &v };
            objects.push(Self::place_on_road(road, Self::vehicle_mix(rng), rng));
        }
        Self::scatter_pedestrians(&mut objects, n - vehicles, (0.1, 0.1, 0.9, 0.35), rng);
        (layout, objects)
    }

    fn market<R: Rng + ?Sized>(&self, rng: &mut R) -> (Layout, Vec<SceneObject>) {
        let x = rng.gen_range(0.4..0.6);
        let street = RoadSegment { start: (x, 0.0), end: (x, 1.0), half_width: 0.06, lanes: 1 };
        let mut layout = Layout {
            roads: vec![street],
            plazas: vec![WorldRect { cx: x, cy: 0.5, hx: 0.22, hy: 0.5, tint: 0.5 }],
            ..Layout::default()
        };
        // Red-roofed stalls lining the street.
        for side in [-1.0f32, 1.0] {
            let mut t = 0.06;
            while t < 0.95 {
                layout.buildings.push(WorldRect {
                    cx: x + side * rng.gen_range(0.09..0.13),
                    cy: t,
                    hx: rng.gen_range(0.02..0.035),
                    hy: rng.gen_range(0.025..0.045),
                    tint: rng.gen_range(0.0..0.25), // warm roof tints
                });
                t += rng.gen_range(0.09..0.14);
            }
        }
        let n = self.target_count(rng);
        let mut objects = Vec::with_capacity(n);
        let peds = (n as f32 * 0.7) as usize;
        Self::scatter_pedestrians(
            &mut objects,
            peds,
            ((x - 0.07).max(0.02), 0.02, (x + 0.07).min(0.98), 0.98),
            rng,
        );
        for _ in 0..(n - peds) {
            let class = if rng.gen_bool(0.5) { ObjectClass::Van } else { Self::vehicle_mix(rng) };
            objects.push(Self::place_on_road(&street, class, rng));
        }
        (layout, objects)
    }

    fn campus<R: Rng + ?Sized>(&self, rng: &mut R) -> (Layout, Vec<SceneObject>) {
        let walk1 = RoadSegment { start: (0.0, 0.5), end: (1.0, 0.5), half_width: 0.035, lanes: 1 };
        let walk2 = RoadSegment { start: (0.5, 0.0), end: (0.5, 1.0), half_width: 0.035, lanes: 1 };
        let mut layout = Layout {
            roads: vec![walk1, walk2],
            plazas: vec![WorldRect { cx: 0.5, cy: 0.5, hx: 0.12, hy: 0.12, tint: 0.6 }],
            ..Layout::default()
        };
        for _ in 0..rng.gen_range(2..5) {
            layout.buildings.push(WorldRect {
                cx: rng.gen_range(0.1..0.9),
                cy: rng.gen_range(0.08..0.25),
                hx: rng.gen_range(0.05..0.1),
                hy: rng.gen_range(0.04..0.08),
                tint: rng.gen(),
            });
        }
        for _ in 0..rng.gen_range(10..18) {
            layout.trees.push(WorldCircle {
                cx: rng.gen_range(0.02..0.98),
                cy: rng.gen_range(0.6..0.98),
                r: rng.gen_range(0.015..0.035),
            });
        }
        let n = self.target_count(rng);
        let mut objects = Vec::with_capacity(n);
        let peds = (n as f32 * 0.6) as usize;
        Self::scatter_pedestrians(&mut objects, peds, (0.3, 0.3, 0.7, 0.7), rng);
        for _ in 0..(n - peds) {
            // parked cars along the side of the road
            objects.push(Self::place_on_road(&walk1, ObjectClass::Car, rng));
        }
        (layout, objects)
    }

    fn park<R: Rng + ?Sized>(&self, rng: &mut R) -> (Layout, Vec<SceneObject>) {
        let walkway = RoadSegment {
            start: (0.0, rng.gen_range(0.55..0.75)),
            end: (1.0, rng.gen_range(0.55..0.75)),
            half_width: 0.03,
            lanes: 1,
        };
        let mut layout = Layout {
            roads: vec![walkway],
            water: vec![WorldCircle {
                cx: rng.gen_range(0.25..0.75),
                cy: rng.gen_range(0.2..0.4),
                r: rng.gen_range(0.1..0.18),
            }],
            ..Layout::default()
        };
        for _ in 0..rng.gen_range(14..24) {
            layout.trees.push(WorldCircle {
                cx: rng.gen_range(0.02..0.98),
                cy: rng.gen_range(0.02..0.98),
                r: rng.gen_range(0.015..0.04),
            });
        }
        let n = self.target_count(rng);
        let mut objects = Vec::with_capacity(n);
        Self::scatter_pedestrians(&mut objects, n, (0.05, 0.45, 0.95, 0.95), rng);
        (layout, objects)
    }

    fn residential<R: Rng + ?Sized>(&self, rng: &mut R) -> (Layout, Vec<SceneObject>) {
        let road = RoadSegment { start: (0.0, 0.5), end: (1.0, 0.5), half_width: 0.05, lanes: 2 };
        let mut layout = Layout { roads: vec![road], ..Layout::default() };
        for row in [0.2f32, 0.8] {
            let mut x = 0.08;
            while x < 0.95 {
                layout.buildings.push(WorldRect {
                    cx: x,
                    cy: row + rng.gen_range(-0.05..0.05f32),
                    hx: rng.gen_range(0.035..0.055),
                    hy: rng.gen_range(0.035..0.055),
                    tint: rng.gen(),
                });
                x += rng.gen_range(0.12..0.18);
            }
        }
        for _ in 0..rng.gen_range(4..10) {
            layout.trees.push(WorldCircle {
                cx: rng.gen_range(0.02..0.98),
                cy: rng.gen_range(0.3..0.45),
                r: rng.gen_range(0.012..0.025),
            });
        }
        let n = self.target_count(rng);
        let mut objects = Vec::with_capacity(n);
        let vehicles = (n as f32 * 0.55) as usize;
        for _ in 0..vehicles {
            objects.push(Self::place_on_road(&road, Self::vehicle_mix(rng), rng));
        }
        Self::scatter_pedestrians(&mut objects, n - vehicles, (0.05, 0.55, 0.95, 0.95), rng);
        (layout, objects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn object_counts_within_paper_range() {
        let gen = SceneGenerator::new(SceneGeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let spec = gen.generate(&mut rng);
            assert!(
                (20..=90).contains(&spec.objects.len()),
                "{} objects in {:?}",
                spec.objects.len(),
                spec.kind
            );
        }
    }

    #[test]
    fn every_kind_generates() {
        let gen = SceneGenerator::default();
        let mut rng = StdRng::seed_from_u64(2);
        for kind in SceneKind::ALL {
            let spec = gen.generate_kind(kind, &mut rng);
            assert_eq!(spec.kind, kind);
            assert!(!spec.objects.is_empty());
        }
    }

    #[test]
    fn objects_lie_in_world_bounds() {
        let gen = SceneGenerator::default();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let spec = gen.generate(&mut rng);
            for o in &spec.objects {
                assert!((-0.2..=1.2).contains(&o.x), "x={}", o.x);
                assert!((-0.2..=1.2).contains(&o.y), "y={}", o.y);
            }
        }
    }

    #[test]
    fn highway_vehicles_follow_road_heading() {
        let gen = SceneGenerator::default();
        let mut rng = StdRng::seed_from_u64(4);
        let spec = gen.generate_kind(SceneKind::Highway, &mut rng);
        let road_heading = spec.layout.roads[0].heading();
        let vehicle_headings: Vec<f32> = spec
            .objects
            .iter()
            .filter(|o| o.class == ObjectClass::Car)
            .map(|o| o.heading)
            .collect();
        assert!(!vehicle_headings.is_empty());
        for h in vehicle_headings {
            assert!((h - road_heading).abs() < 1e-5);
        }
    }

    #[test]
    fn park_has_water_market_has_stalls() {
        let gen = SceneGenerator::default();
        let mut rng = StdRng::seed_from_u64(5);
        let park = gen.generate_kind(SceneKind::Park, &mut rng);
        assert!(!park.layout.water.is_empty());
        let market = gen.generate_kind(SceneKind::Market, &mut rng);
        assert!(market.layout.buildings.len() >= 6);
    }

    #[test]
    fn road_geometry_helpers() {
        let road = RoadSegment { start: (0.0, 0.5), end: (1.0, 0.5), half_width: 0.1, lanes: 2 };
        assert_eq!(road.direction(), (1.0, 0.0));
        assert_eq!(road.heading(), 0.0);
        let (x, y) = road.point_at(0.5, 0.05);
        assert!((x - 0.5).abs() < 1e-6 && (y - 0.55).abs() < 1e-6);
        assert!((road.distance_to((0.5, 0.8)) - 0.3).abs() < 1e-6);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen = SceneGenerator::default();
        let a = gen.generate(&mut StdRng::seed_from_u64(42));
        let b = gen.generate(&mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
