//! Planar geometry: points, distances and the square deployment area.
//!
//! The TrimCaching evaluation (Section VII-A) deploys `K` users and `M`
//! edge servers uniformly at random over a 1 km × 1 km square; the
//! exhaustive-search comparison (Section VII-D) shrinks the square to
//! 400 m × 400 m. [`DeploymentArea`] captures that square and provides
//! uniform sampling, while [`Point`] is the shared 2-D position type.

use rand::Rng;

use crate::error::WirelessError;

/// A position in the deployment plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in metres.
    pub x: f64,
    /// Vertical coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates in metres.
    ///
    /// ```
    /// use trimcaching_wireless::geometry::Point;
    /// let p = Point::new(3.0, 4.0);
    /// assert_eq!(p.distance(Point::new(0.0, 0.0)), 5.0);
    /// ```
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point, in metres.
    pub fn distance(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance, useful to avoid the square root when only
    /// comparisons are needed.
    pub fn distance_squared(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Translates the point by `(dx, dy)` metres.
    pub fn translated(self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }
}

/// The square deployment area over which users and edge servers are dropped.
///
/// The paper uses a 1 km² square for the main experiments and a 400 m square
/// for the exhaustive-search comparison; [`DeploymentArea::paper_default`]
/// and [`DeploymentArea::paper_small`] provide those presets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentArea {
    side_m: f64,
}

impl DeploymentArea {
    /// Creates a square deployment area with the given side length in metres.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidArea`] if `side_m` is not a strictly
    /// positive finite number.
    pub fn new(side_m: f64) -> Result<Self, WirelessError> {
        if !(side_m.is_finite() && side_m > 0.0) {
            return Err(WirelessError::InvalidArea { side_m });
        }
        Ok(Self { side_m })
    }

    /// The 1 km × 1 km area used by the main TrimCaching experiments.
    pub fn paper_default() -> Self {
        Self { side_m: 1000.0 }
    }

    /// The 400 m × 400 m area used for the exhaustive-search comparison
    /// (Fig. 6).
    pub fn paper_small() -> Self {
        Self { side_m: 400.0 }
    }

    /// Side length of the square in metres.
    pub fn side_m(&self) -> f64 {
        self.side_m
    }

    /// Area in square metres.
    pub fn area_m2(&self) -> f64 {
        self.side_m * self.side_m
    }

    /// Samples a point uniformly at random inside the square.
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        Point::new(
            rng.gen_range(0.0..self.side_m),
            rng.gen_range(0.0..self.side_m),
        )
    }

    /// Samples `n` points uniformly and independently inside the square.
    pub fn sample_uniform_n<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Point> {
        (0..n).map(|_| self.sample_uniform(rng)).collect()
    }

    /// Returns `true` when the point lies inside (or on the border of) the
    /// square.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= 0.0 && p.y >= 0.0 && p.x <= self.side_m && p.y <= self.side_m
    }

    /// Clamps a point to the square, returning the nearest point inside it.
    ///
    /// Used by the mobility models to keep moving users inside the
    /// deployment area (users reflect off the border).
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(p.x.clamp(0.0, self.side_m), p.y.clamp(0.0, self.side_m))
    }
}

impl Default for DeploymentArea {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 7.5);
        assert_eq!(a.distance(b), b.distance(a));
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn distance_squared_matches_distance() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert!((a.distance_squared(b) - a.distance(b).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn translation_moves_point() {
        let p = Point::new(1.0, 1.0).translated(2.0, -0.5);
        assert_eq!(p, Point::new(3.0, 0.5));
    }

    #[test]
    fn area_rejects_bad_sides() {
        assert!(DeploymentArea::new(0.0).is_err());
        assert!(DeploymentArea::new(-5.0).is_err());
        assert!(DeploymentArea::new(f64::NAN).is_err());
        assert!(DeploymentArea::new(f64::INFINITY).is_err());
        assert!(DeploymentArea::new(250.0).is_ok());
    }

    #[test]
    fn paper_presets_match_section_vii() {
        assert_eq!(DeploymentArea::paper_default().side_m(), 1000.0);
        assert_eq!(DeploymentArea::paper_small().side_m(), 400.0);
        assert_eq!(DeploymentArea::paper_default().area_m2(), 1_000_000.0);
    }

    #[test]
    fn uniform_samples_stay_inside() {
        let area = DeploymentArea::new(250.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let p = area.sample_uniform(&mut rng);
            assert!(area.contains(p), "{p:?} escaped the area");
        }
        let pts = area.sample_uniform_n(64, &mut rng);
        assert_eq!(pts.len(), 64);
        assert!(pts.iter().all(|p| area.contains(*p)));
    }

    #[test]
    fn clamp_projects_outside_points_to_border() {
        let area = DeploymentArea::new(100.0).unwrap();
        let p = area.clamp(Point::new(-10.0, 150.0));
        assert_eq!(p, Point::new(0.0, 100.0));
        let q = Point::new(50.0, 50.0);
        assert_eq!(area.clamp(q), q);
    }

    #[test]
    fn samples_cover_the_area_roughly_uniformly() {
        // Split the square in four quadrants and check each receives a
        // reasonable share of samples (a weak but deterministic uniformity
        // check with a fixed seed).
        let area = DeploymentArea::paper_default();
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 4];
        let n = 4000;
        for _ in 0..n {
            let p = area.sample_uniform(&mut rng);
            let qx = usize::from(p.x > 500.0);
            let qy = usize::from(p.y > 500.0);
            counts[2 * qy + qx] += 1;
        }
        for c in counts {
            assert!(c > n / 8, "quadrant too empty: {counts:?}");
        }
    }
}
