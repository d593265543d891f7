//! User mobility models (Section VII-E).
//!
//! The robustness study of Fig. 7 moves users for two hours with three
//! mobility classes:
//!
//! | class | initial speed (m/s) | accel. per slot (m/s²) | angular velocity (rad/s) |
//! |-------|---------------------|------------------------|--------------------------|
//! | pedestrian | `[0.5, 1.8]` | `[-0.3, 0.3]` | `[-π/4, π/4]` |
//! | bike       | `[2, 8]`     | `[-1, 1]`     | `[-π/3, π/3]` |
//! | vehicle    | `[5.5, 20]`  | `[-3, 3]`     | `[-π/2, π/2]` |
//!
//! Initial orientations are uniform in `[0, π]`; users update their speed
//! and orientation at the start of every 5-second slot and are kept inside
//! the deployment area by reflecting at its border.

use std::f64::consts::PI;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trimcaching_wireless::geometry::{DeploymentArea, Point};

/// The paper's slot length for the mobility study, in seconds.
pub const PAPER_SLOT_SECONDS: f64 = 5.0;

/// Mobility class of a user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MobilityClass {
    /// Walking users.
    Pedestrian,
    /// Cyclists.
    Bike,
    /// Cars and similar vehicles.
    Vehicle,
}

impl MobilityClass {
    /// Inclusive range of initial speeds in m/s.
    pub fn initial_speed_range(self) -> (f64, f64) {
        match self {
            MobilityClass::Pedestrian => (0.5, 1.8),
            MobilityClass::Bike => (2.0, 8.0),
            MobilityClass::Vehicle => (5.5, 20.0),
        }
    }

    /// Inclusive range of per-slot accelerations in m/s².
    pub fn acceleration_range(self) -> (f64, f64) {
        match self {
            MobilityClass::Pedestrian => (-0.3, 0.3),
            MobilityClass::Bike => (-1.0, 1.0),
            MobilityClass::Vehicle => (-3.0, 3.0),
        }
    }

    /// Inclusive range of angular velocities in rad/s.
    pub fn angular_velocity_range(self) -> (f64, f64) {
        match self {
            MobilityClass::Pedestrian => (-PI / 4.0, PI / 4.0),
            MobilityClass::Bike => (-PI / 3.0, PI / 3.0),
            MobilityClass::Vehicle => (-PI / 2.0, PI / 2.0),
        }
    }

    /// All three classes in a fixed order (used to assign classes round
    /// robin as the paper mixes "pedestrians, bikes, and vehicles").
    pub fn all() -> [MobilityClass; 3] {
        [
            MobilityClass::Pedestrian,
            MobilityClass::Bike,
            MobilityClass::Vehicle,
        ]
    }
}

/// The kinematic state of one mobile user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobileUser {
    /// Current position.
    pub position: Point,
    /// Current speed in m/s (non-negative).
    pub speed_mps: f64,
    /// Current heading in radians.
    pub orientation_rad: f64,
    /// Mobility class.
    pub class: MobilityClass,
}

/// A mobility simulation over a set of users inside a deployment area.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityModel {
    area: DeploymentArea,
    slot_seconds: f64,
    users: Vec<MobileUser>,
    elapsed_seconds: f64,
}

impl MobilityModel {
    /// Creates a mobility model with the paper's configuration: users are
    /// assigned to the three classes round-robin, initial speeds and
    /// orientations are drawn from the per-class ranges, and the slot
    /// length is 5 s.
    pub fn paper_mix<R: Rng + ?Sized>(
        initial_positions: &[Point],
        area: DeploymentArea,
        rng: &mut R,
    ) -> Self {
        let classes = MobilityClass::all();
        let users = initial_positions
            .iter()
            .enumerate()
            .map(|(idx, &position)| {
                let class = classes[idx % classes.len()];
                let (lo, hi) = class.initial_speed_range();
                MobileUser {
                    position,
                    speed_mps: rng.gen_range(lo..=hi),
                    orientation_rad: rng.gen_range(0.0..=PI),
                    class,
                }
            })
            .collect();
        Self {
            area,
            slot_seconds: PAPER_SLOT_SECONDS,
            users,
            elapsed_seconds: 0.0,
        }
    }

    /// Creates a mobility model from explicit user states and slot length.
    ///
    /// # Panics
    ///
    /// Panics if `slot_seconds` is not strictly positive and finite.
    pub fn new(users: Vec<MobileUser>, area: DeploymentArea, slot_seconds: f64) -> Self {
        assert!(
            slot_seconds.is_finite() && slot_seconds > 0.0,
            "slot length must be positive"
        );
        Self {
            area,
            slot_seconds,
            users,
            elapsed_seconds: 0.0,
        }
    }

    /// The slot length in seconds.
    pub fn slot_seconds(&self) -> f64 {
        self.slot_seconds
    }

    /// Total simulated time so far in seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed_seconds
    }

    /// Current user states.
    pub fn users(&self) -> &[MobileUser] {
        &self.users
    }

    /// Current user positions, in user order.
    pub fn positions(&self) -> Vec<Point> {
        self.users.iter().map(|u| u.position).collect()
    }

    /// Replaces user `k`'s kinematic state — how a region-sharded run
    /// hands a migrating user's kinematics from its old owner shard to
    /// its new one.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] when `k` is not a user
    /// of this model.
    ///
    /// [`ScenarioError::IndexOutOfRange`]: crate::ScenarioError::IndexOutOfRange
    pub fn set_user(&mut self, k: usize, user: MobileUser) -> Result<(), crate::ScenarioError> {
        match self.users.get_mut(k) {
            Some(slot) => {
                *slot = user;
                Ok(())
            }
            None => Err(crate::ScenarioError::IndexOutOfRange {
                entity: "mobility user",
                index: k,
                len: self.users.len(),
            }),
        }
    }

    /// Advances the simulation by one slot: each user draws a fresh
    /// acceleration and angular velocity, updates speed and heading, then
    /// moves for one slot and reflects off the area border.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let dt = self.slot_seconds;
        let side = self.area.side_m();
        for user in &mut self.users {
            let (alo, ahi) = user.class.acceleration_range();
            let (wlo, whi) = user.class.angular_velocity_range();
            let acceleration = rng.gen_range(alo..=ahi);
            let angular_velocity = rng.gen_range(wlo..=whi);
            user.speed_mps = (user.speed_mps + acceleration * dt).max(0.0);
            user.orientation_rad += angular_velocity * dt;
            let mut x = user.position.x + user.speed_mps * dt * user.orientation_rad.cos();
            let mut y = user.position.y + user.speed_mps * dt * user.orientation_rad.sin();
            // Reflect off the borders (possibly repeatedly for fast users).
            let reflect = |v: f64| -> f64 {
                let period = 2.0 * side;
                let mut w = v.rem_euclid(period);
                if w > side {
                    w = period - w;
                }
                w
            };
            x = reflect(x);
            y = reflect(y);
            user.position = Point::new(x, y);
        }
        self.elapsed_seconds += dt;
    }

    /// Advances the simulation by `n` slots and returns the resulting
    /// positions.
    pub fn run_slots<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> Vec<Point> {
        for _ in 0..n {
            self.step(rng);
        }
        self.positions()
    }
}

/// Directed commuter mobility: every user owns a *home* anchor in the
/// western residential band of the area (`x ∈ [0, 0.4·side]`) and a
/// *work* anchor in the eastern business band (`x ∈ [0.6·side, side]`),
/// both drawn once from the construction seed. Users start at home and
/// alternate commutes: during even half-periods everyone travels toward
/// work, during odd half-periods back toward home, each at a constant
/// per-user speed drawn from their mobility class's initial range and
/// clamped to never overshoot the target. Unlike [`MobilityModel`],
/// stepping consumes **no** randomness — the whole trajectory is a pure
/// function of `(num_users, area, half_period_s, seed)` — which is what
/// lets sweep cells replay commuter scenarios byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct CommuterFlow {
    area: DeploymentArea,
    half_period_s: f64,
    homes: Vec<Point>,
    works: Vec<Point>,
    speeds_mps: Vec<f64>,
    classes: Vec<MobilityClass>,
    positions: Vec<Point>,
    elapsed_seconds: f64,
}

impl CommuterFlow {
    /// Fraction of the area side covered by the residential band.
    const HOME_BAND: f64 = 0.4;
    /// Western edge of the business band, as a fraction of the side.
    const WORK_BAND_START: f64 = 0.6;

    /// Builds a commuter flow of `num_users` users inside `area`,
    /// switching commute direction every `half_period_s` seconds.
    /// Classes are assigned round-robin like [`MobilityModel::paper_mix`];
    /// anchors and speeds are drawn from a [`StdRng`] seeded with a
    /// salted `seed`, so equal arguments give equal flows.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidValue`] when `half_period_s` is
    /// not strictly positive and finite.
    ///
    /// [`ScenarioError::InvalidValue`]: crate::ScenarioError::InvalidValue
    pub fn new(
        num_users: usize,
        area: DeploymentArea,
        half_period_s: f64,
        seed: u64,
    ) -> Result<Self, crate::ScenarioError> {
        if !(half_period_s.is_finite() && half_period_s > 0.0) {
            return Err(crate::ScenarioError::InvalidValue {
                name: "half_period_s",
                value: half_period_s,
            });
        }
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0xA076_1D64_78BD_642F)
                .wrapping_add(0xE703_7ED1_A0B4_28DB),
        );
        let side = area.side_m();
        let classes_cycle = MobilityClass::all();
        let mut homes = Vec::with_capacity(num_users);
        let mut works = Vec::with_capacity(num_users);
        let mut speeds = Vec::with_capacity(num_users);
        let mut classes = Vec::with_capacity(num_users);
        for idx in 0..num_users {
            let class = classes_cycle[idx % classes_cycle.len()];
            homes.push(Point::new(
                rng.gen_range(0.0..=Self::HOME_BAND * side),
                rng.gen_range(0.0..=side),
            ));
            works.push(Point::new(
                rng.gen_range(Self::WORK_BAND_START * side..=side),
                rng.gen_range(0.0..=side),
            ));
            let (lo, hi) = class.initial_speed_range();
            speeds.push(rng.gen_range(lo..=hi));
            classes.push(class);
        }
        Ok(Self {
            area,
            half_period_s,
            positions: homes.clone(),
            homes,
            works,
            speeds_mps: speeds,
            classes,
            elapsed_seconds: 0.0,
        })
    }

    /// Home anchors, in user order (also the initial positions).
    pub fn homes(&self) -> &[Point] {
        &self.homes
    }

    /// Work anchors, in user order.
    pub fn works(&self) -> &[Point] {
        &self.works
    }

    /// Mobility classes, in user order.
    pub fn classes(&self) -> &[MobilityClass] {
        &self.classes
    }

    /// Current positions, in user order.
    pub fn positions(&self) -> Vec<Point> {
        self.positions.clone()
    }

    /// Total simulated time so far in seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed_seconds
    }

    /// The half-period in seconds (one one-way commute window).
    pub fn half_period_s(&self) -> f64 {
        self.half_period_s
    }

    /// `0` while the flow heads for work, `1` while it heads home.
    pub fn phase(&self) -> usize {
        (self.elapsed_seconds / self.half_period_s) as usize % 2
    }

    /// Advances every user by `dt` seconds toward their current target
    /// (work during even half-periods, home during odd ones), clamped so
    /// nobody overshoots. Deterministic: no randomness is consumed.
    pub fn step(&mut self, dt: f64) {
        let toward_work = self.phase() == 0;
        for (k, position) in self.positions.iter_mut().enumerate() {
            let target = if toward_work {
                self.works[k]
            } else {
                self.homes[k]
            };
            let dx = target.x - position.x;
            let dy = target.y - position.y;
            let dist = (dx * dx + dy * dy).sqrt();
            let reach = self.speeds_mps[k] * dt;
            if dist <= reach || dist == 0.0 {
                *position = target;
            } else {
                let scale = reach / dist;
                *position = Point::new(position.x + dx * scale, position.y + dy * scale);
            }
        }
        self.elapsed_seconds += dt;
    }

    /// Advances by `n` steps of `dt` seconds and returns the positions.
    pub fn run_steps(&mut self, n: usize, dt: f64) -> Vec<Point> {
        for _ in 0..n {
            self.step(dt);
        }
        self.positions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn start_positions(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(100.0 + 10.0 * i as f64, 200.0))
            .collect()
    }

    #[test]
    fn class_parameter_ranges_match_the_paper() {
        assert_eq!(MobilityClass::Pedestrian.initial_speed_range(), (0.5, 1.8));
        assert_eq!(MobilityClass::Bike.initial_speed_range(), (2.0, 8.0));
        assert_eq!(MobilityClass::Vehicle.initial_speed_range(), (5.5, 20.0));
        assert_eq!(MobilityClass::Pedestrian.acceleration_range(), (-0.3, 0.3));
        assert_eq!(MobilityClass::Vehicle.acceleration_range(), (-3.0, 3.0));
        let (lo, hi) = MobilityClass::Bike.angular_velocity_range();
        assert!((lo + PI / 3.0).abs() < 1e-12 && (hi - PI / 3.0).abs() < 1e-12);
        assert_eq!(MobilityClass::all().len(), 3);
        assert_eq!(PAPER_SLOT_SECONDS, 5.0);
    }

    #[test]
    fn paper_mix_assigns_classes_round_robin() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = MobilityModel::paper_mix(
            &start_positions(7),
            DeploymentArea::paper_default(),
            &mut rng,
        );
        let classes: Vec<_> = model.users().iter().map(|u| u.class).collect();
        assert_eq!(classes[0], MobilityClass::Pedestrian);
        assert_eq!(classes[1], MobilityClass::Bike);
        assert_eq!(classes[2], MobilityClass::Vehicle);
        assert_eq!(classes[3], MobilityClass::Pedestrian);
        for u in model.users() {
            let (lo, hi) = u.class.initial_speed_range();
            assert!(u.speed_mps >= lo && u.speed_mps <= hi);
            assert!(u.orientation_rad >= 0.0 && u.orientation_rad <= PI);
        }
        assert_eq!(model.slot_seconds(), 5.0);
        assert_eq!(model.elapsed_seconds(), 0.0);
    }

    #[test]
    fn users_stay_inside_the_area_for_two_hours() {
        let area = DeploymentArea::paper_default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = MobilityModel::paper_mix(&start_positions(12), area, &mut rng);
        // Two hours of 5-second slots, as in Fig. 7.
        let slots = (2.0 * 3600.0 / PAPER_SLOT_SECONDS) as usize;
        for _ in 0..slots {
            model.step(&mut rng);
            for u in model.users() {
                assert!(area.contains(u.position), "user escaped: {:?}", u.position);
                assert!(u.speed_mps >= 0.0);
            }
        }
        assert!((model.elapsed_seconds() - 7200.0).abs() < 1e-9);
    }

    #[test]
    fn positions_actually_change_over_time() {
        let area = DeploymentArea::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        let start = start_positions(6);
        let mut model = MobilityModel::paper_mix(&start, area, &mut rng);
        let after = model.run_slots(24, &mut rng); // two minutes
        let moved = start
            .iter()
            .zip(&after)
            .filter(|(a, b)| a.distance(**b) > 1.0)
            .count();
        assert!(moved >= 5, "only {moved} users moved");
    }

    #[test]
    fn vehicles_move_farther_than_pedestrians_on_average() {
        let area = DeploymentArea::paper_default();
        let mut rng = StdRng::seed_from_u64(11);
        let start = start_positions(30);
        let mut model = MobilityModel::paper_mix(&start, area, &mut rng);
        // A handful of slots, short enough that border reflections are rare.
        model.run_slots(6, &mut rng);
        let mut ped = Vec::new();
        let mut veh = Vec::new();
        for (u, s) in model.users().iter().zip(&start) {
            let d = u.position.distance(*s);
            match u.class {
                MobilityClass::Pedestrian => ped.push(d),
                MobilityClass::Vehicle => veh.push(d),
                MobilityClass::Bike => {}
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&veh) > avg(&ped),
            "vehicles ({}) should outrun pedestrians ({})",
            avg(&veh),
            avg(&ped)
        );
    }

    #[test]
    fn explicit_construction_and_reflection() {
        let area = DeploymentArea::new(100.0).unwrap();
        // A fast user heading straight for the border.
        let user = MobileUser {
            position: Point::new(95.0, 50.0),
            speed_mps: 10.0,
            orientation_rad: 0.0,
            class: MobilityClass::Vehicle,
        };
        let mut model = MobilityModel::new(vec![user], area, 5.0);
        let mut rng = StdRng::seed_from_u64(0);
        model.step(&mut rng);
        let p = model.positions()[0];
        assert!(area.contains(p));
    }

    #[test]
    #[should_panic(expected = "slot length")]
    fn zero_slot_length_panics() {
        let _ = MobilityModel::new(vec![], DeploymentArea::paper_default(), 0.0);
    }

    #[test]
    fn commuter_anchors_live_in_their_bands_and_seed_deterministically() {
        let area = DeploymentArea::paper_default();
        let side = area.side_m();
        let flow = CommuterFlow::new(30, area, 600.0, 42).unwrap();
        for (home, work) in flow.homes().iter().zip(flow.works()) {
            assert!(home.x <= 0.4 * side, "home outside band: {home:?}");
            assert!(work.x >= 0.6 * side, "work outside band: {work:?}");
            assert!(area.contains(*home) && area.contains(*work));
        }
        assert_eq!(flow.positions(), flow.homes().to_vec(), "starts at home");
        assert_eq!(flow.classes()[0], MobilityClass::Pedestrian);
        assert_eq!(flow.classes()[1], MobilityClass::Bike);
        assert_eq!(flow.classes()[2], MobilityClass::Vehicle);
        let again = CommuterFlow::new(30, area, 600.0, 42).unwrap();
        assert_eq!(flow, again, "same seed, same flow");
        let other = CommuterFlow::new(30, area, 600.0, 43).unwrap();
        assert_ne!(flow.homes(), other.homes(), "different seeds differ");
        assert!(CommuterFlow::new(3, area, 0.0, 1).is_err());
        assert!(CommuterFlow::new(3, area, f64::NAN, 1).is_err());
    }

    #[test]
    fn commuters_reach_work_then_return_home() {
        let area = DeploymentArea::paper_default();
        // Half-period long enough for the slowest pedestrian to cross:
        // diagonal ≈ 1414 m at ≥ 0.5 m/s needs < 2 900 s.
        let half = 3_000.0;
        let mut flow = CommuterFlow::new(9, area, half, 7).unwrap();
        assert_eq!(flow.phase(), 0, "morning commute first");
        // Walk the full morning in 10 s steps.
        flow.run_steps(300, 10.0);
        assert_eq!(flow.positions(), flow.works().to_vec(), "everyone at work");
        assert_eq!(flow.phase(), 1, "evening commute next");
        flow.run_steps(300, 10.0);
        assert_eq!(flow.positions(), flow.homes().to_vec(), "everyone home");
        assert!((flow.elapsed_seconds() - 2.0 * half).abs() < 1e-9);
        assert_eq!(flow.phase(), 0, "the cycle repeats");
    }

    #[test]
    fn commuter_steps_are_deterministic_and_never_overshoot() {
        let area = DeploymentArea::paper_default();
        let mut a = CommuterFlow::new(12, area, 500.0, 3).unwrap();
        let mut b = a.clone();
        // Different step granularities share waypoints at common times.
        let coarse = a.run_steps(5, 20.0);
        let fine = b.run_steps(100, 1.0);
        for (p, q) in coarse.iter().zip(&fine) {
            assert!(p.distance(*q) < 1e-9, "{p:?} vs {q:?}");
        }
        // Nobody leaves the area: straight-line travel between interior
        // anchors stays interior.
        for p in &coarse {
            assert!(area.contains(*p));
        }
    }
}
