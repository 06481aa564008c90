//! Core scene vocabulary: object classes, boxes, viewpoints, specs.

use std::fmt;

/// Annotated object categories, mirroring the VisDrone-DET label set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjectClass {
    /// A person on foot.
    Pedestrian,
    /// A bicycle (with or without rider).
    Bicycle,
    /// A passenger car.
    Car,
    /// A delivery van.
    Van,
    /// A truck.
    Truck,
    /// A bus.
    Bus,
    /// A motorcycle.
    Motor,
}

impl ObjectClass {
    /// All classes, in canonical order (stable class-id assignment).
    pub const ALL: [ObjectClass; 7] = [
        ObjectClass::Pedestrian,
        ObjectClass::Bicycle,
        ObjectClass::Car,
        ObjectClass::Van,
        ObjectClass::Truck,
        ObjectClass::Bus,
        ObjectClass::Motor,
    ];

    /// The stable integer id of this class (infallible: `ALL` lists
    /// every variant).
    pub fn id(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).unwrap_or(0)
    }

    /// Class from its stable id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn from_id(id: usize) -> Self {
        Self::ALL[id]
    }

    /// Lower-case label used in captions ("car", "van", …).
    pub fn label(self) -> &'static str {
        match self {
            ObjectClass::Pedestrian => "pedestrian",
            ObjectClass::Bicycle => "bicycle",
            ObjectClass::Car => "car",
            ObjectClass::Van => "van",
            ObjectClass::Truck => "truck",
            ObjectClass::Bus => "bus",
            ObjectClass::Motor => "motorcycle",
        }
    }

    /// Plural caption label ("cars", "buses", …).
    pub fn plural_label(self) -> &'static str {
        match self {
            ObjectClass::Pedestrian => "pedestrians",
            ObjectClass::Bicycle => "bicycles",
            ObjectClass::Car => "cars",
            ObjectClass::Van => "vans",
            ObjectClass::Truck => "trucks",
            ObjectClass::Bus => "buses",
            ObjectClass::Motor => "motorcycles",
        }
    }

    /// Nominal world-space footprint (length, width) in scene units
    /// (the full scene spans 1.0 × 1.0).
    pub fn footprint(self) -> (f32, f32) {
        match self {
            ObjectClass::Pedestrian => (0.012, 0.012),
            ObjectClass::Bicycle => (0.018, 0.010),
            ObjectClass::Car => (0.042, 0.022),
            ObjectClass::Van => (0.050, 0.024),
            ObjectClass::Truck => (0.068, 0.028),
            ObjectClass::Bus => (0.085, 0.028),
            ObjectClass::Motor => (0.020, 0.010),
        }
    }

    /// A representative body colour (RGB in `[0, 1]`), varied per object.
    pub fn base_color(self) -> [f32; 3] {
        match self {
            ObjectClass::Pedestrian => [0.85, 0.55, 0.40],
            ObjectClass::Bicycle => [0.20, 0.55, 0.80],
            ObjectClass::Car => [0.75, 0.10, 0.10],
            ObjectClass::Van => [0.90, 0.90, 0.92],
            ObjectClass::Truck => [0.95, 0.70, 0.15],
            ObjectClass::Bus => [0.95, 0.85, 0.20],
            ObjectClass::Motor => [0.30, 0.30, 0.35],
        }
    }
}

impl fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Lighting condition of the scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimeOfDay {
    /// Daylight: full palette, soft shadows.
    #[default]
    Day,
    /// Night: darkened palette, headlights and streetlight pools.
    Night,
}

impl TimeOfDay {
    /// Caption phrase ("daytime" / "nighttime").
    pub fn phrase(self) -> &'static str {
        match self {
            TimeOfDay::Day => "daytime",
            TimeOfDay::Night => "nighttime",
        }
    }
}

/// Scene archetype controlling the procedural layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SceneKind {
    /// A multi-lane highway with dense traffic and a neighbourhood edge.
    Highway,
    /// Two crossing roads with queued traffic.
    Intersection,
    /// A market street: stalls, vans, many pedestrians.
    Market,
    /// A campus: walkways, lawns, scattered pedestrians, parked cars.
    Campus,
    /// A park: pond, walkway, trees, pedestrians.
    Park,
    /// A residential block: building grid, parked cars, a few people.
    Residential,
}

impl SceneKind {
    /// All kinds in canonical order.
    pub const ALL: [SceneKind; 6] = [
        SceneKind::Highway,
        SceneKind::Intersection,
        SceneKind::Market,
        SceneKind::Campus,
        SceneKind::Park,
        SceneKind::Residential,
    ];

    /// Caption phrase describing the scene kind.
    pub fn phrase(self) -> &'static str {
        match self {
            SceneKind::Highway => "a busy highway",
            SceneKind::Intersection => "a road intersection",
            SceneKind::Market => "a bustling market street",
            SceneKind::Campus => "a paved campus",
            SceneKind::Park => "a tranquil park",
            SceneKind::Residential => "a residential block",
        }
    }
}

impl fmt::Display for SceneKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.phrase())
    }
}

/// Drone camera parameters.
///
/// `altitude` ∈ `[0.3, 1.0]` controls zoom (1.0 = highest, widest view);
/// `pitch_deg` ∈ `[30, 90]` is the camera tilt (90° = straight down);
/// `heading_deg` rotates the view around the vertical axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewpoint {
    /// Normalized altitude in `[0.3, 1.0]`.
    pub altitude: f32,
    /// Camera pitch in degrees; 90 is nadir (top-down).
    pub pitch_deg: f32,
    /// Heading in degrees, rotating the scene in view.
    pub heading_deg: f32,
}

impl Default for Viewpoint {
    fn default() -> Self {
        Viewpoint { altitude: 1.0, pitch_deg: 90.0, heading_deg: 0.0 }
    }
}

impl Viewpoint {
    /// A nadir (top-down) view from the given altitude.
    pub fn top_down(altitude: f32) -> Self {
        Viewpoint { altitude, pitch_deg: 90.0, heading_deg: 0.0 }
    }

    /// Caption phrase summarizing the viewpoint ("a high vantage point,
    /// looking straight down", …).
    pub fn phrase(&self) -> String {
        let height = if self.altitude >= 0.75 {
            "a high vantage point"
        } else if self.altitude >= 0.5 {
            "a medium altitude"
        } else {
            "a low altitude"
        };
        let angle = if self.pitch_deg >= 75.0 {
            "looking straight down"
        } else if self.pitch_deg >= 50.0 {
            "at a slightly angled perspective"
        } else {
            "from a low angle to the side"
        };
        format!("{height}, {angle}")
    }
}

/// One annotated object in world coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneObject {
    /// Object category.
    pub class: ObjectClass,
    /// World-space centre x ∈ `[0, 1]`.
    pub x: f32,
    /// World-space centre y ∈ `[0, 1]`.
    pub y: f32,
    /// Orientation in radians (0 = facing +x).
    pub heading: f32,
    /// Per-object colour jitter seed in `[0, 1]`.
    pub tint: f32,
}

/// Axis-aligned bounding box in pixel coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BBox {
    /// Left edge (inclusive).
    pub x0: f32,
    /// Top edge (inclusive).
    pub y0: f32,
    /// Right edge (exclusive).
    pub x1: f32,
    /// Bottom edge (exclusive).
    pub y1: f32,
}

impl BBox {
    /// Creates a box from corner coordinates.
    pub fn new(x0: f32, y0: f32, x1: f32, y1: f32) -> Self {
        BBox { x0, y0, x1, y1 }
    }

    /// Box width (zero when degenerate).
    pub fn width(&self) -> f32 {
        (self.x1 - self.x0).max(0.0)
    }

    /// Box height (zero when degenerate).
    pub fn height(&self) -> f32 {
        (self.y1 - self.y0).max(0.0)
    }

    /// Box area.
    pub fn area(&self) -> f32 {
        self.width() * self.height()
    }

    /// Centre point.
    pub fn center(&self) -> (f32, f32) {
        ((self.x0 + self.x1) * 0.5, (self.y0 + self.y1) * 0.5)
    }

    /// Intersection-over-union with another box.
    pub fn iou(&self, other: &BBox) -> f32 {
        let ix0 = self.x0.max(other.x0);
        let iy0 = self.y0.max(other.y0);
        let ix1 = self.x1.min(other.x1);
        let iy1 = self.y1.min(other.y1);
        let inter = (ix1 - ix0).max(0.0) * (iy1 - iy0).max(0.0);
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Clips the box to an image of the given size.
    pub fn clip(&self, width: usize, height: usize) -> BBox {
        BBox {
            x0: self.x0.clamp(0.0, width as f32),
            y0: self.y0.clamp(0.0, height as f32),
            x1: self.x1.clamp(0.0, width as f32),
            y1: self.y1.clamp(0.0, height as f32),
        }
    }

    /// Whether the clipped box retains positive area.
    pub fn is_visible(&self) -> bool {
        self.area() > 0.0
    }
}

/// One detection-style annotation: class + pixel box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Annotation {
    /// Object category.
    pub class: ObjectClass,
    /// Pixel-space bounding box.
    pub bbox: BBox,
}

/// Complete ground-truth description of one scene.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneSpec {
    /// Scene archetype.
    pub kind: SceneKind,
    /// Lighting condition.
    pub time: TimeOfDay,
    /// Camera parameters.
    pub viewpoint: Viewpoint,
    /// Static layout (roads, buildings, trees, water).
    pub layout: crate::layout::Layout,
    /// Annotated dynamic objects.
    pub objects: Vec<SceneObject>,
    /// Seed the scene was generated from (for reproducibility).
    pub seed: u64,
}

impl SceneSpec {
    /// Counts objects per class, indexed by [`ObjectClass::id`].
    pub fn class_histogram(&self) -> [usize; 7] {
        let mut hist = [0usize; 7];
        for o in &self.objects {
            hist[o.class.id()] += 1;
        }
        hist
    }

    /// A copy of this scene viewed from a different camera.
    pub fn with_viewpoint(&self, viewpoint: Viewpoint) -> SceneSpec {
        SceneSpec { viewpoint, ..self.clone() }
    }

    /// A copy of this scene under different lighting.
    pub fn with_time(&self, time: TimeOfDay) -> SceneSpec {
        SceneSpec { time, ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ids_round_trip() {
        for class in ObjectClass::ALL {
            assert_eq!(ObjectClass::from_id(class.id()), class);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = ObjectClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ObjectClass::ALL.len());
    }

    #[test]
    fn bbox_iou_identity_and_disjoint() {
        let a = BBox::new(0.0, 0.0, 2.0, 2.0);
        assert!((a.iou(&a) - 1.0).abs() < 1e-6);
        let b = BBox::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn bbox_iou_half_overlap() {
        let a = BBox::new(0.0, 0.0, 2.0, 1.0);
        let b = BBox::new(1.0, 0.0, 3.0, 1.0);
        // intersection 1, union 3
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn bbox_clip_bounds() {
        let b = BBox::new(-5.0, -5.0, 100.0, 100.0).clip(32, 32);
        assert_eq!(b, BBox::new(0.0, 0.0, 32.0, 32.0));
        let off = BBox::new(40.0, 40.0, 50.0, 50.0).clip(32, 32);
        assert!(!off.is_visible());
    }

    #[test]
    fn viewpoint_phrases_vary() {
        let high = Viewpoint::top_down(1.0).phrase();
        let low = Viewpoint { altitude: 0.35, pitch_deg: 40.0, heading_deg: 0.0 }.phrase();
        assert_ne!(high, low);
        assert!(high.contains("high"));
        assert!(low.contains("low"));
    }

    #[test]
    fn footprints_are_ordered_sensibly() {
        let (bus_len, _) = ObjectClass::Bus.footprint();
        let (car_len, _) = ObjectClass::Car.footprint();
        let (ped_len, _) = ObjectClass::Pedestrian.footprint();
        assert!(bus_len > car_len && car_len > ped_len);
    }
}
