//! Typed node identifiers and records.

use crate::geometry::Point;
use std::fmt;

/// Identifier of a femto base station, `0..N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FbsId(pub usize);

impl fmt::Display for FbsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fbs{}", self.0)
    }
}

/// Identifier of a CR user, `0..K`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub usize);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user{}", self.0)
    }
}

/// A femto base station: position and coverage radius.
///
/// # Examples
///
/// ```
/// use fcr_net::node::Fbs;
/// use fcr_net::geometry::Point;
///
/// let fbs = Fbs::new(Point::new(0.0, 0.0), 30.0);
/// assert!(fbs.covers(Point::new(20.0, 0.0)));
/// assert!(!fbs.covers(Point::new(40.0, 0.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fbs {
    position: Point,
    coverage_radius: f64,
}

impl Fbs {
    /// Creates an FBS at `position` with the given coverage radius in
    /// metres.
    ///
    /// # Panics
    ///
    /// Panics if `coverage_radius` is not strictly positive.
    pub fn new(position: Point, coverage_radius: f64) -> Self {
        assert!(
            coverage_radius > 0.0 && coverage_radius.is_finite(),
            "coverage radius must be positive, got {coverage_radius}"
        );
        Self {
            position,
            coverage_radius,
        }
    }

    /// The FBS position.
    pub fn position(&self) -> Point {
        self.position
    }

    /// The coverage radius in metres.
    pub fn coverage_radius(&self) -> f64 {
        self.coverage_radius
    }

    /// Returns `true` if `p` lies within coverage.
    pub fn covers(&self, p: Point) -> bool {
        self.position.distance(p) <= self.coverage_radius
    }

    /// Returns `true` if this FBS's coverage disk overlaps `other`'s —
    /// the condition that puts an edge between them in the interference
    /// graph.
    pub fn overlaps(&self, other: &Fbs) -> bool {
        self.position.distance(other.position) < self.coverage_radius + other.coverage_radius
    }
}

/// A CR user: a position in the plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrUser {
    position: Point,
}

impl CrUser {
    /// Creates a user at `position`.
    pub fn new(position: Point) -> Self {
        Self { position }
    }

    /// The user position.
    pub fn position(&self) -> Point {
        self.position
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(format!("{}", FbsId(2)), "fbs2");
        assert_eq!(format!("{}", UserId(5)), "user5");
    }

    #[test]
    fn coverage_test_is_inclusive_at_boundary() {
        let fbs = Fbs::new(Point::ORIGIN, 10.0);
        assert!(fbs.covers(Point::new(10.0, 0.0)));
        assert!(!fbs.covers(Point::new(10.0001, 0.0)));
        assert_eq!(fbs.coverage_radius(), 10.0);
        assert_eq!(fbs.position(), Point::ORIGIN);
    }

    #[test]
    fn overlap_is_strict_at_tangency() {
        let a = Fbs::new(Point::ORIGIN, 10.0);
        let b = Fbs::new(Point::new(20.0, 0.0), 10.0);
        // Exactly tangent disks do not overlap (no shared interior).
        assert!(!a.overlaps(&b));
        let c = Fbs::new(Point::new(19.9, 0.0), 10.0);
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&a), "overlap is symmetric");
    }

    #[test]
    #[should_panic(expected = "coverage radius")]
    fn zero_radius_panics() {
        let _ = Fbs::new(Point::ORIGIN, 0.0);
    }

    #[test]
    fn user_accessors() {
        let u = CrUser::new(Point::new(1.0, 2.0));
        assert_eq!(u.position(), Point::new(1.0, 2.0));
    }
}
