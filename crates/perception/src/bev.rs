//! Ego-centric bird's-eye-view rendering (the BEV transformer `g`).

use icoil_geom::{Obb, Vec2, EPS};
use icoil_vehicle::VehicleState;
use icoil_world::{NoiseConfig, ParkingMap};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// BEV image geometry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BevConfig {
    /// Image side length in pixels (must be divisible by 8 for the IL
    /// network's three pooling stages).
    pub size: usize,
    /// Half-extent of the square window around the ego vehicle (meters):
    /// the image spans `[-range, range]` in both ego-frame axes.
    pub range: f64,
}

impl Default for BevConfig {
    fn default() -> Self {
        BevConfig {
            size: 32,
            range: 8.0,
        }
    }
}

impl BevConfig {
    /// Meters per pixel.
    pub fn resolution(&self) -> f64 {
        2.0 * self.range / self.size as f64
    }
}

/// A three-channel ego-centric BEV image.
///
/// Layout is `[channel, row, col]` row-major: `channel 0` is the
/// obstacle/wall occupancy, `channel 1` the goal-bay mask, and
/// `channel 2` a constant plane encoding the ego's normalized signed
/// speed (the standard conditioning trick of camera-based IL — the
/// action depends on the current speed, which pixels alone cannot
/// reveal). Row 0 is the far left-front of the vehicle; the ego sits at
/// the image center facing +x (increasing column).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BevImage {
    /// Pixels per side.
    pub size: usize,
    /// Half-extent in meters.
    pub range: f64,
    /// `3 × size × size` pixel values (occupancy/goal in `[0, 1]`, speed
    /// plane in `[-1, 1]`).
    pub data: Vec<f32>,
}

impl BevImage {
    /// Number of channels (obstacles, goal, ego speed).
    pub const CHANNELS: usize = 3;

    /// Pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range indices.
    pub fn at(&self, channel: usize, row: usize, col: usize) -> f32 {
        assert!(channel < Self::CHANNELS && row < self.size && col < self.size);
        self.data[(channel * self.size + row) * self.size + col]
    }

    /// Mean occupancy of the obstacle channel.
    pub fn obstacle_density(&self) -> f64 {
        let n = self.size * self.size;
        self.data[..n].iter().map(|&v| v as f64).sum::<f64>() / n as f64
    }
}

/// Renders ego-centric BEV images from ground truth.
#[derive(Debug, Clone)]
pub struct BevRenderer {
    config: BevConfig,
}

impl BevRenderer {
    /// Creates a renderer.
    ///
    /// # Panics
    ///
    /// Panics when `size` is zero, not divisible by 8, or `range` is not
    /// positive.
    pub fn new(config: BevConfig) -> Self {
        assert!(
            config.size > 0 && config.size.is_multiple_of(8),
            "BEV size must be a positive multiple of 8"
        );
        assert!(config.range > 0.0, "BEV range must be positive");
        BevRenderer { config }
    }

    /// The renderer configuration.
    pub fn config(&self) -> &BevConfig {
        &self.config
    }

    /// Renders the BEV image for the given ego state.
    ///
    /// `noise` perturbs pixels (additive Gaussian-ish noise plus dropout)
    /// using `rng`; pass [`NoiseConfig::none`] for clean rendering.
    pub fn render(
        &self,
        ego: &VehicleState,
        obstacles: &[Obb],
        map: &ParkingMap,
        noise: &NoiseConfig,
        rng: &mut SmallRng,
    ) -> BevImage {
        let s = self.config.size;
        let mut data = vec![0.0f32; BevImage::CHANNELS * s * s];
        let range = self.config.range;
        let bounds = map.bounds();
        // channel 2: constant normalized-speed plane
        let v_norm = (ego.velocity / 2.5).clamp(-1.0, 1.0) as f32;
        data[2 * s * s..].iter_mut().for_each(|v| *v = v_norm);
        let (cols, rows) = self.pixel_products(ego.pose.theta);
        // Every pixel center lies within `range·√2` of the ego, so a box
        // whose center is farther than that plus its half-diagonal (and a
        // 1 m margin that dwarfs any rounding) contains none of them.
        let reach = range * std::f64::consts::SQRT_2 + 1.0;
        let near = |o: &Obb| {
            let r = reach + o.half_length + o.half_width;
            let (dx, dy) = (o.center.x - ego.pose.x, o.center.y - ego.pose.y);
            // NaN distances stay in (and then contain nothing, as before)
            let far = dx * dx + dy * dy > r * r;
            !far
        };
        let boxes: Vec<LocalObb> =
            obstacles.iter().filter(|o| near(o)).map(LocalObb::new).collect();
        let bay = Some(map.bay()).filter(near).map(|b| LocalObb::new(&b));
        for (row, &row_products) in rows.iter().enumerate() {
            for (col, &col_products) in cols.iter().enumerate() {
                let world = pixel_world(ego, col_products, row_products);
                let occupied =
                    !bounds.contains(world) || boxes.iter().any(|o| o.contains(world));
                if occupied {
                    data[row * s + col] = 1.0;
                }
                if bay.as_ref().is_some_and(|b| b.contains(world)) {
                    data[(s + row) * s + col] = 1.0;
                }
            }
        }
        let occupancy_len = 2 * s * s;
        apply_noise(&mut data[..occupancy_len], noise, rng);
        BevImage {
            size: s,
            range: self.config.range,
            data,
        }
    }

    /// `Pose2::to_world` of a pixel center is `position +
    /// local.rotated(theta)`, and its four products depend on the column
    /// or the row alone: `(cos·ex, sin·ex)` per column and `(sin·ey,
    /// cos·ey)` per row, taken here once with the same operands.
    fn pixel_products(&self, theta: f64) -> (Vec<Products>, Vec<Products>) {
        let (s, range) = (self.config.size, self.config.range);
        let res = self.config.resolution();
        let (sin, cos) = theta.sin_cos();
        let mut cols = Vec::with_capacity(s);
        let mut rows = Vec::with_capacity(s);
        for i in 0..s {
            // ego frame: +x forward (columns), +y left (rows upward);
            // row 0 is the left-most (+y) edge.
            let ex = -range + (i as f64 + 0.5) * res;
            let ey = range - (i as f64 + 0.5) * res;
            cols.push((cos * ex, sin * ex));
            rows.push((sin * ey, cos * ey));
        }
        (cols, rows)
    }
}

/// The rotation products of one pixel column, `(cos·ex, sin·ex)`, or
/// row, `(sin·ey, cos·ey)`.
type Products = (f64, f64);

/// The world position of a pixel center from its column and row products
/// ([`BevRenderer::pixel_products`]): `Pose2::to_world`'s sums in its
/// order, so the same bits.
fn pixel_world(
    ego: &VehicleState,
    (cos_ex, sin_ex): Products,
    (sin_ey, cos_ey): Products,
) -> Vec2 {
    Vec2::new(ego.pose.x + (cos_ex - sin_ey), ego.pose.y + (sin_ex + cos_ey))
}

/// An [`Obb`] with its inverse rotation taken once: [`LocalObb::contains`]
/// is [`Obb::contains`] with the `(-theta).sin_cos()` hoisted out of the
/// per-point test — the same call on the same argument and the same
/// operations in the same order, so the answer is the same bit for bit.
struct LocalObb {
    center: Vec2,
    sin: f64,
    cos: f64,
    half_length: f64,
    half_width: f64,
}

impl LocalObb {
    fn new(o: &Obb) -> Self {
        let (sin, cos) = (-o.theta).sin_cos();
        LocalObb {
            center: o.center,
            sin,
            cos,
            half_length: o.half_length + EPS,
            half_width: o.half_width + EPS,
        }
    }

    /// `(p - center).rotated(-theta)`, as [`Obb::contains`] computes it.
    fn local(&self, p: Vec2) -> Vec2 {
        let d = p - self.center;
        Vec2::new(self.cos * d.x - self.sin * d.y, self.sin * d.x + self.cos * d.y)
    }

    fn contains(&self, p: Vec2) -> bool {
        let local = self.local(p);
        local.x.abs() <= self.half_length && local.y.abs() <= self.half_width
    }
}

/// Adds per-pixel noise and dropout to a rendered image, clamping to
/// `[0, 1]`.
fn apply_noise(data: &mut [f32], noise: &NoiseConfig, rng: &mut SmallRng) {
    if noise.image_noise_std > 0.0 {
        let std = noise.image_noise_std as f32;
        for v in data.iter_mut() {
            // sum of three uniforms ≈ gaussian (Irwin–Hall), cheap and
            // bounded
            let g: f32 = (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).sum::<f32>() / 3.0;
            *v = (*v + g * std * 2.0).clamp(0.0, 1.0);
        }
    }
    if noise.pixel_dropout > 0.0 {
        for v in data.iter_mut() {
            if rng.gen_bool(noise.pixel_dropout) {
                *v = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_geom::Pose2;
    use icoil_world::{Difficulty, ScenarioConfig};
    use rand::SeedableRng;

    fn setup() -> (BevRenderer, icoil_world::Scenario) {
        (
            BevRenderer::new(BevConfig::default()),
            ScenarioConfig::new(Difficulty::Easy, 5).build(),
        )
    }

    #[test]
    fn clean_render_is_deterministic() {
        let (r, s) = setup();
        let ego = s.start_state;
        let obs = s.obstacle_footprints(0.0);
        let mut rng1 = SmallRng::seed_from_u64(0);
        let mut rng2 = SmallRng::seed_from_u64(99);
        let a = r.render(&ego, &obs, &s.map, &NoiseConfig::none(), &mut rng1);
        let b = r.render(&ego, &obs, &s.map, &NoiseConfig::none(), &mut rng2);
        assert_eq!(a, b, "clean rendering must not consume randomness");
    }

    #[test]
    fn obstacle_appears_in_front_pixels() {
        let (r, s) = setup();
        // place ego right before the first obstacle, facing it
        let ego = icoil_vehicle::VehicleState::at_rest(Pose2::new(8.0, 6.0, 0.0));
        let obs = s.obstacle_footprints(0.0); // obstacle 0 at (12.5, 6.0)
        let mut rng = SmallRng::seed_from_u64(0);
        let img = r.render(&ego, &obs, &s.map, &NoiseConfig::none(), &mut rng);
        // pixel ahead of the car at ego-frame (4.5, 0): row center, col right of center
        let col = ((4.5 + r.config().range) / r.config().resolution()) as usize;
        let row = img.size / 2;
        assert_eq!(img.at(0, row, col), 1.0, "obstacle must be rendered ahead");
        // pixel just left of the car is free space
        let col_free = ((0.0 + r.config().range) / r.config().resolution()) as usize;
        let row_free = ((r.config().range - 3.0) / r.config().resolution()) as usize;
        assert_eq!(img.at(0, row_free, col_free), 0.0);
    }

    #[test]
    fn walls_render_as_occupied() {
        let (r, s) = setup();
        // ego close to the left wall, facing it: the out-of-bounds region
        // beyond the wall fills the front of the image
        let ego =
            icoil_vehicle::VehicleState::at_rest(Pose2::new(3.0, 10.0, std::f64::consts::PI));
        let mut rng = SmallRng::seed_from_u64(0);
        let img = r.render(&ego, &[], &s.map, &NoiseConfig::none(), &mut rng);
        // front at distance 5 m is outside the lot (x = -2)
        let col = ((5.0 + r.config().range) / r.config().resolution()) as usize;
        assert_eq!(img.at(0, img.size / 2, col), 1.0);
    }

    #[test]
    fn goal_channel_marks_bay() {
        let (r, s) = setup();
        // ego near the bay looking at it
        let ego = icoil_vehicle::VehicleState::at_rest(Pose2::new(20.0, 10.0, 0.0));
        let mut rng = SmallRng::seed_from_u64(0);
        let img = r.render(&ego, &[], &s.map, &NoiseConfig::none(), &mut rng);
        // bay center is ~6.8 m ahead
        let col = ((6.8 + r.config().range) / r.config().resolution()) as usize;
        assert_eq!(img.at(1, img.size / 2, col), 1.0);
        // behind the car there is no bay
        assert_eq!(img.at(1, img.size / 2, 2), 0.0);
    }

    #[test]
    fn rotation_invariance_of_ego_frame() {
        // the same relative geometry viewed at two different world
        // headings must produce the same image
        let (r, s) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let obs1 = vec![Obb::from_pose(Pose2::new(18.0, 10.0, 0.0), 2.0, 2.0)];
        let ego1 = icoil_vehicle::VehicleState::at_rest(Pose2::new(14.0, 10.0, 0.0));
        let img1 = r.render(&ego1, &obs1, &s.map, &NoiseConfig::none(), &mut rng);

        let ego2 = icoil_vehicle::VehicleState::at_rest(Pose2::new(
            15.0,
            8.0,
            std::f64::consts::FRAC_PI_2,
        ));
        let obs2 = vec![Obb::from_pose(
            Pose2::new(15.0, 12.0, std::f64::consts::FRAC_PI_2),
            2.0,
            2.0,
        )];
        let img2 = r.render(&ego2, &obs2, &s.map, &NoiseConfig::none(), &mut rng);
        // compare only the central obstacle-channel columns ahead (goal/bay
        // and walls differ between the two placements)
        let c = img1.size / 2;
        let res = r.config().resolution();
        let col = ((4.0 + r.config().range) / res) as usize;
        assert_eq!(img1.at(0, c, col), img2.at(0, c, col));
        assert_eq!(img1.at(0, c, col), 1.0);
    }

    #[test]
    fn noise_perturbs_pixels_deterministically() {
        let (r, s) = setup();
        let ego = s.start_state;
        let obs = s.obstacle_footprints(0.0);
        let noise = NoiseConfig::hard();
        let a = r.render(&ego, &obs, &s.map, &noise, &mut SmallRng::seed_from_u64(7));
        let b = r.render(&ego, &obs, &s.map, &noise, &mut SmallRng::seed_from_u64(7));
        let c = r.render(&ego, &obs, &s.map, &noise, &mut SmallRng::seed_from_u64(8));
        assert_eq!(a, b, "same seed, same noise");
        assert_ne!(a, c, "different seed, different noise");
        let clean = r.render(&ego, &obs, &s.map, &NoiseConfig::none(), &mut SmallRng::seed_from_u64(7));
        assert_ne!(a, clean);
        // values stay in range
        assert!(a.data.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn density_increases_near_clutter() {
        let (r, s) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let near_wall =
            icoil_vehicle::VehicleState::at_rest(Pose2::new(3.0, 3.0, 0.0));
        let mid_lot = icoil_vehicle::VehicleState::at_rest(Pose2::new(15.0, 10.0, 0.0));
        let img_wall = r.render(&near_wall, &[], &s.map, &NoiseConfig::none(), &mut rng);
        let img_mid = r.render(&mid_lot, &[], &s.map, &NoiseConfig::none(), &mut rng);
        assert!(img_wall.obstacle_density() > img_mid.obstacle_density());
    }

    /// The former rasterizer, kept as the oracle: `to_world` and
    /// `Obb::contains` (each with its own `sin_cos`) per pixel, every
    /// obstacle tested.
    fn render_reference(
        r: &BevRenderer,
        ego: &VehicleState,
        obstacles: &[Obb],
        map: &ParkingMap,
        noise: &NoiseConfig,
        rng: &mut SmallRng,
    ) -> BevImage {
        let s = r.config.size;
        let mut data = vec![0.0f32; BevImage::CHANNELS * s * s];
        let res = r.config.resolution();
        let bay = map.bay();
        let bounds = map.bounds();
        let v_norm = (ego.velocity / 2.5).clamp(-1.0, 1.0) as f32;
        data[2 * s * s..].iter_mut().for_each(|v| *v = v_norm);
        for row in 0..s {
            for col in 0..s {
                let ex = -r.config.range + (col as f64 + 0.5) * res;
                let ey = r.config.range - (row as f64 + 0.5) * res;
                let world = ego.pose.to_world(Vec2::new(ex, ey));
                let occupied =
                    !bounds.contains(world) || obstacles.iter().any(|o| o.contains(world));
                if occupied {
                    data[row * s + col] = 1.0;
                }
                if bay.contains(world) {
                    data[(s + row) * s + col] = 1.0;
                }
            }
        }
        apply_noise(&mut data[..2 * s * s], noise, rng);
        BevImage {
            size: s,
            range: r.config.range,
            data,
        }
    }

    /// The hoisted transforms give the per-call ones' bits: pixel centers
    /// against `Pose2::to_world`, box-local points against
    /// `Obb::contains`'s `(p - center).rotated(-theta)`. (The raster alone
    /// could not show an ulp: a pixel flips only when its center sits
    /// within an ulp of a box edge.)
    #[test]
    fn hoisted_transforms_are_bit_identical() {
        use rand::Rng;
        let mut gen = SmallRng::seed_from_u64(77);
        let bits = |v: Vec2| (v.x.to_bits(), v.y.to_bits());
        for config in [BevConfig::default(), BevConfig { size: 24, range: 5.5 }] {
            let r = BevRenderer::new(config);
            let res = config.resolution();
            for _ in 0..50 {
                let pose = Pose2::new(
                    gen.gen_range(-50.0..50.0),
                    gen.gen_range(-50.0..50.0),
                    gen.gen_range(-10.0..10.0),
                );
                let ego = icoil_vehicle::VehicleState::at_rest(pose);
                let (cols, rows) = r.pixel_products(pose.theta);
                for (row, &rp) in rows.iter().enumerate() {
                    for (col, &cp) in cols.iter().enumerate() {
                        let ex = -config.range + (col as f64 + 0.5) * res;
                        let ey = config.range - (row as f64 + 0.5) * res;
                        let expect = pose.to_world(Vec2::new(ex, ey));
                        assert_eq!(bits(pixel_world(&ego, cp, rp)), bits(expect));
                    }
                }
                let obb = Obb::from_pose(pose, gen.gen_range(0.0..5.0), gen.gen_range(0.0..5.0));
                let local = LocalObb::new(&obb);
                for _ in 0..20 {
                    let (dx, dy) = (gen.gen_range(-6.0..6.0), gen.gen_range(-6.0..6.0));
                    let p = Vec2::new(pose.x + dx, pose.y + dy);
                    assert_eq!(bits(local.local(p)), bits((p - obb.center).rotated(-obb.theta)));
                    assert_eq!(local.contains(p), obb.contains(p));
                }
            }
        }
    }

    #[test]
    fn render_matches_the_reference_rasterizer_bit_for_bit() {
        use rand::RngCore;
        let mut gen = SmallRng::seed_from_u64(2024);
        let scenes = [
            ScenarioConfig::new(Difficulty::Easy, 5).build(),
            ScenarioConfig::new(Difficulty::Hard, 9).build(),
        ];
        let configs = [BevConfig::default(), BevConfig { size: 24, range: 5.5 }];
        for case in 0..300 {
            let scene = &scenes[case % 2];
            let r = BevRenderer::new(configs[case % 3 / 2]);
            let mut ego = icoil_vehicle::VehicleState::at_rest(Pose2::new(
                gen.gen_range(-5.0..35.0),
                gen.gen_range(-5.0..25.0),
                gen.gen_range(-10.0..10.0),
            ));
            ego.velocity = gen.gen_range(-3.0..3.0);
            // scene obstacles plus random boxes: some far outside the
            // window, some straddling its edge, some with huge extents
            let mut obstacles = scene.obstacle_footprints(case as f64 * 0.1);
            for _ in 0..gen.gen_range(0..6) {
                let center = Pose2::new(
                    ego.pose.x + gen.gen_range(-30.0..30.0),
                    ego.pose.y + gen.gen_range(-30.0..30.0),
                    gen.gen_range(-4.0..4.0),
                );
                let scale = if gen.gen_bool(0.1) { 40.0 } else { 3.0 };
                obstacles.push(Obb::from_pose(
                    center,
                    gen.gen_range(0.0..scale),
                    gen.gen_range(0.0..scale),
                ));
            }
            let noise = if case % 4 == 0 { NoiseConfig::hard() } else { scene.noise };
            let seed = gen.next_u64();
            let rng = || SmallRng::seed_from_u64(seed);
            let fast = r.render(&ego, &obstacles, &scene.map, &noise, &mut rng());
            let slow = render_reference(&r, &ego, &obstacles, &scene.map, &noise, &mut rng());
            let bits = |img: &BevImage| img.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn bad_size_panics() {
        let _ = BevRenderer::new(BevConfig { size: 30, range: 10.0 });
    }
}
