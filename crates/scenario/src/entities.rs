//! Physical entities of a scenario: edge servers and users.

use trimcaching_wireless::geometry::Point;

use crate::error::ScenarioError;

/// Identifier of an edge server within a scenario (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ServerId(pub usize);

impl ServerId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server#{}", self.0)
    }
}

/// Identifier of a user within a scenario (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UserId(pub usize);

impl UserId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "user#{}", self.0)
    }
}

/// A wireless edge server (base station) with model storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeServer {
    id: ServerId,
    position: Point,
    /// Storage capacity `Q_m` in bytes.
    capacity_bytes: u64,
}

impl EdgeServer {
    /// Creates an edge server.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidValue`] if the capacity is zero.
    pub fn new(id: ServerId, position: Point, capacity_bytes: u64) -> Result<Self, ScenarioError> {
        if capacity_bytes == 0 {
            return Err(ScenarioError::InvalidValue {
                name: "capacity_bytes",
                value: 0.0,
            });
        }
        Ok(Self {
            id,
            position,
            capacity_bytes,
        })
    }

    /// The server identifier.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Position of the server in the deployment plane.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Storage capacity `Q_m` in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Returns a copy of the server with a different capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidValue`] if the capacity is zero.
    pub fn with_capacity(&self, capacity_bytes: u64) -> Result<Self, ScenarioError> {
        Self::new(self.id, self.position, capacity_bytes)
    }
}

/// A mobile user requesting AI models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct User {
    id: UserId,
    position: Point,
}

impl User {
    /// Creates a user at the given position.
    pub fn new(id: UserId, position: Point) -> Self {
        Self { id, position }
    }

    /// The user identifier.
    pub fn id(&self) -> UserId {
        self.id
    }

    /// Current position of the user.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Returns a copy of the user moved to `position`.
    pub fn at(&self, position: Point) -> Self {
        Self {
            id: self.id,
            position,
        }
    }
}

/// Gigabytes to bytes, using the paper's decimal convention (1 GB = 10⁹ B).
///
/// ```
/// use trimcaching_scenario::entities::gigabytes;
/// assert_eq!(gigabytes(1.0), 1_000_000_000);
/// assert_eq!(gigabytes(0.5), 500_000_000);
/// ```
pub fn gigabytes(gb: f64) -> u64 {
    (gb * 1e9).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_and_index() {
        assert_eq!(ServerId(3).index(), 3);
        assert_eq!(ServerId(3).to_string(), "server#3");
        assert_eq!(UserId(5).index(), 5);
        assert_eq!(UserId(5).to_string(), "user#5");
    }

    #[test]
    fn edge_server_accessors_and_validation() {
        let s = EdgeServer::new(ServerId(0), Point::new(1.0, 2.0), 1_000).unwrap();
        assert_eq!(s.id(), ServerId(0));
        assert_eq!(s.position(), Point::new(1.0, 2.0));
        assert_eq!(s.capacity_bytes(), 1_000);
        assert!(EdgeServer::new(ServerId(0), Point::new(0.0, 0.0), 0).is_err());
        let bigger = s.with_capacity(2_000).unwrap();
        assert_eq!(bigger.capacity_bytes(), 2_000);
        assert_eq!(bigger.id(), s.id());
        assert!(s.with_capacity(0).is_err());
    }

    #[test]
    fn user_moves_preserve_identity() {
        let u = User::new(UserId(2), Point::new(0.0, 0.0));
        let moved = u.at(Point::new(5.0, 5.0));
        assert_eq!(moved.id(), UserId(2));
        assert_eq!(moved.position(), Point::new(5.0, 5.0));
        assert_eq!(u.position(), Point::new(0.0, 0.0));
    }

    #[test]
    fn gigabyte_helper_uses_decimal_convention() {
        assert_eq!(gigabytes(1.5), 1_500_000_000);
        assert_eq!(gigabytes(0.1), 100_000_000);
    }
}
