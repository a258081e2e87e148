//! Hyperrectangular 6-D volumes.

use crate::angle::{PHI_MAX, THETA_PERIOD};
use crate::dimension::Dimension;
use crate::interval::{AngularRange, Interval};
use crate::point::Point6;
use std::fmt;

/// A hyperrectangular volume in TLF space — the product of six closed
/// intervals, one per dimension.
///
/// LightDB requires TLF volumes and partitions to be hyperrectangles.
/// Spatiotemporal extents may be unbounded; angular extents are always
/// within the angular domains (`θ ∈ [0, 2π]`, `φ ∈ [0, π]` as interval
/// endpoints; the right-open domain semantics are applied when testing
/// point membership).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Volume {
    dims: [Interval; 6],
}

/// Whether angular interval `iv` lies within `[0, max]`, up to
/// [`crate::EPSILON`].
fn within(iv: Interval, max: f64) -> bool {
    iv.lo() >= -crate::EPSILON && iv.hi() <= max + crate::EPSILON
}

impl Volume {
    /// Builds a volume from six intervals in canonical `(x, y, z, t,
    /// θ, φ)` order. Angular intervals are validated against their
    /// domains.
    pub fn new(
        x: Interval,
        y: Interval,
        z: Interval,
        t: Interval,
        theta: Interval,
        phi: Interval,
    ) -> Self {
        assert!(within(theta, THETA_PERIOD), "theta interval {theta} outside [0, 2π]");
        assert!(within(phi, PHI_MAX), "phi interval {phi} outside [0, π]");
        Volume { dims: [x, y, z, t, theta, phi] }
    }

    /// [`Volume::new`], or `None` where it would panic: an angular
    /// interval outside its domain.
    pub fn try_new(
        x: Interval,
        y: Interval,
        z: Interval,
        t: Interval,
        theta: Interval,
        phi: Interval,
    ) -> Option<Self> {
        (within(theta, THETA_PERIOD) && within(phi, PHI_MAX))
            .then_some(Volume { dims: [x, y, z, t, theta, phi] })
    }

    /// The volume with unbounded spatiotemporal extent and full
    /// angular extent — the domain of the distinguished TLF `Ω`.
    pub fn everywhere() -> Self {
        Volume {
            dims: [
                Interval::unbounded(),
                Interval::unbounded(),
                Interval::unbounded(),
                Interval::unbounded(),
                Interval::new(0.0, THETA_PERIOD),
                Interval::new(0.0, PHI_MAX),
            ],
        }
    }

    /// A spherical panorama at a fixed spatial point: all angles, the
    /// given time extent, position pinned to `(x, y, z)`.
    pub fn sphere_at(x: f64, y: f64, z: f64, t: Interval) -> Self {
        Volume::new(
            Interval::point(x),
            Interval::point(y),
            Interval::point(z),
            t,
            Interval::new(0.0, THETA_PERIOD),
            Interval::new(0.0, PHI_MAX),
        )
    }

    /// The extent along `dim`.
    #[inline]
    pub fn get(&self, dim: Dimension) -> Interval {
        self.dims[dim.index()]
    }

    /// Returns a copy with the extent along `dim` replaced.
    pub fn with(&self, dim: Dimension, iv: Interval) -> Volume {
        let mut v = *self;
        v.dims[dim.index()] = iv;
        v
    }

    /// Convenience accessors.
    #[inline]
    pub fn x(&self) -> Interval {
        self.dims[0]
    }
    #[inline]
    pub fn y(&self) -> Interval {
        self.dims[1]
    }
    #[inline]
    pub fn z(&self) -> Interval {
        self.dims[2]
    }
    #[inline]
    pub fn t(&self) -> Interval {
        self.dims[3]
    }
    #[inline]
    pub fn theta(&self) -> Interval {
        self.dims[4]
    }
    #[inline]
    pub fn phi(&self) -> Interval {
        self.dims[5]
    }

    /// The θ extent as a wraparound-aware angular range.
    pub fn theta_range(&self) -> AngularRange {
        AngularRange::from_endpoints(self.theta().lo(), self.theta().hi())
    }

    /// True when the spatial extent is a single point.
    pub fn is_spatial_point(&self) -> bool {
        self.x().is_point() && self.y().is_point() && self.z().is_point()
    }

    /// True when the volume covers the full angular domain.
    pub fn has_full_angular_extent(&self) -> bool {
        crate::approx_eq(self.theta().lo(), 0.0)
            && crate::approx_eq(self.theta().hi(), THETA_PERIOD)
            && crate::approx_eq(self.phi().lo(), 0.0)
            && crate::approx_eq(self.phi().hi(), PHI_MAX)
    }

    /// Point membership (tolerant at boundaries).
    pub fn contains(&self, p: &Point6) -> bool {
        Dimension::ALL.iter().all(|&d| self.get(d).contains(p.coordinate(d)))
    }

    /// True when `other ⊆ self`.
    pub fn contains_volume(&self, other: &Volume) -> bool {
        Dimension::ALL.iter().all(|&d| self.get(d).contains_interval(&other.get(d)))
    }

    /// The intersection, or `None` when the volumes are disjoint in
    /// any dimension.
    pub fn intersect(&self, other: &Volume) -> Option<Volume> {
        let mut dims = [Interval::point(0.0); 6];
        for d in Dimension::ALL {
            dims[d.index()] = self.get(d).intersect(&other.get(d))?;
        }
        Some(Volume { dims })
    }

    /// The smallest hyperrectangle containing both volumes.
    pub fn hull(&self, other: &Volume) -> Volume {
        let mut dims = [Interval::point(0.0); 6];
        for d in Dimension::ALL {
            dims[d.index()] = self.get(d).hull(&other.get(d));
        }
        Volume { dims }
    }

    /// Translates the spatiotemporal extent by `(dx, dy, dz, dt)` —
    /// the semantics of the `TRANSLATE` operator. Angular extents are
    /// unchanged.
    pub fn translate(&self, dx: f64, dy: f64, dz: f64, dt: f64) -> Volume {
        let mut v = *self;
        v.dims[0] = v.dims[0].translate(dx);
        v.dims[1] = v.dims[1].translate(dy);
        v.dims[2] = v.dims[2].translate(dz);
        v.dims[3] = v.dims[3].translate(dt);
        v
    }

    /// Cuts the volume into equal-sized non-overlapping blocks of
    /// width `delta` along `dim` — the `PARTITION` operator. The
    /// resulting blocks are returned in ascending order along `dim`.
    pub fn partition(&self, dim: Dimension, delta: f64) -> Vec<Volume> {
        self.get(dim).partition(delta).into_iter().map(|iv| self.with(dim, iv)).collect()
    }

    /// Partitions along several dimensions at once, producing the
    /// cross product of the per-dimension blocks (row-major in the
    /// order given).
    pub fn partition_multi(&self, specs: &[(Dimension, f64)]) -> Vec<Volume> {
        let mut acc = vec![*self];
        for &(dim, delta) in specs {
            let mut next = Vec::with_capacity(acc.len() * 2);
            for v in &acc {
                next.extend(v.partition(dim, delta));
            }
            acc = next;
        }
        acc
    }

    /// The product of the *bounded* extents' lengths — used as a
    /// heuristic measure; unbounded or degenerate dims are skipped.
    pub fn measure(&self) -> f64 {
        self.dims
            .iter()
            .filter(|iv| iv.is_bounded() && !iv.is_point())
            .map(|iv| iv.length())
            .product()
    }

    /// True when any extent is degenerate *and* the volume has no
    /// angular coverage — such a volume can hold no visible light and
    /// physical representations drop it.
    pub fn is_visually_empty(&self) -> bool {
        self.theta().is_point() || self.phi().is_point() || self.t().length() < 0.0
    }
}

impl fmt::Display for Volume {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "V(x={}, y={}, z={}, t={}, θ={}, φ={})",
            self.x(),
            self.y(),
            self.z(),
            self.t(),
            self.theta(),
            self.phi()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    fn unit_sphere_volume() -> Volume {
        Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(0.0, 10.0))
    }

    #[test]
    fn sphere_volume_shape() {
        let v = unit_sphere_volume();
        assert!(v.is_spatial_point());
        assert!(v.has_full_angular_extent());
        assert_eq!(v.t(), Interval::new(0.0, 10.0));
    }

    #[test]
    fn contains_point() {
        let v = unit_sphere_volume();
        let inside = Point6::new(0.0, 0.0, 0.0, 5.0, PI, PI / 2.0);
        let outside_time = Point6::new(0.0, 0.0, 0.0, 11.0, PI, PI / 2.0);
        let outside_space = Point6::new(1.0, 0.0, 0.0, 5.0, PI, PI / 2.0);
        assert!(v.contains(&inside));
        assert!(!v.contains(&outside_time));
        assert!(!v.contains(&outside_space));
    }

    #[test]
    fn everywhere_contains_all() {
        let v = Volume::everywhere();
        assert!(v.contains(&Point6::new(1e9, -1e9, 0.0, 1e12, 1.0, 1.0)));
    }

    #[test]
    fn intersect_disjoint_times() {
        let a = Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(0.0, 1.0));
        let b = Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(2.0, 3.0));
        assert_eq!(a.intersect(&b), None);
    }

    #[test]
    fn translate_moves_time_only_dims_requested() {
        let v = unit_sphere_volume().translate(1.0, 0.0, 0.0, 5.0);
        assert_eq!(v.x(), Interval::point(1.0));
        assert_eq!(v.t(), Interval::new(5.0, 15.0));
        assert!(v.has_full_angular_extent());
    }

    #[test]
    fn partition_time_into_seconds() {
        // A ten-second TLF partitioned into ten one-second partitions
        // (paper's PARTITION example).
        let parts = unit_sphere_volume().partition(Dimension::T, 1.0);
        assert_eq!(parts.len(), 10);
        for (i, p) in parts.iter().enumerate() {
            assert!(crate::approx_eq(p.t().lo(), i as f64));
            assert!(crate::approx_eq(p.t().length(), 1.0));
        }
    }

    #[test]
    fn partition_multi_is_cross_product() {
        // The predictive-tiling partitioning: Δt=1, Δθ=π/2, Δφ=π/4
        // cuts a one-second sphere into 4×4 = 16 tiles.
        let v = Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(0.0, 1.0));
        let tiles = v.partition_multi(&[
            (Dimension::T, 1.0),
            (Dimension::Theta, PI / 2.0),
            (Dimension::Phi, PI / 4.0),
        ]);
        assert_eq!(tiles.len(), 16);
        // Tiles are pairwise angularly disjoint (interiors).
        for (i, a) in tiles.iter().enumerate() {
            for b in &tiles[i + 1..] {
                if let Some(ix) = a.intersect(b) {
                    assert!(ix.theta().is_point() || ix.phi().is_point());
                }
            }
        }
    }

    #[test]
    fn hull_contains_inputs() {
        let a = Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(0.0, 1.0));
        let b = Volume::sphere_at(2.0, 0.0, 0.0, Interval::new(5.0, 6.0));
        let h = a.hull(&b);
        assert!(h.contains_volume(&a));
        assert!(h.contains_volume(&b));
    }

    #[test]
    #[should_panic(expected = "theta interval")]
    fn oversized_theta_rejected() {
        Volume::new(
            Interval::point(0.0),
            Interval::point(0.0),
            Interval::point(0.0),
            Interval::new(0.0, 1.0),
            Interval::new(0.0, 7.0),
            Interval::new(0.0, 1.0),
        );
    }

    proptest! {
        #[test]
        fn intersection_contained_in_both(
            t1 in 0.0f64..50.0, l1 in 0.0f64..20.0,
            t2 in 0.0f64..50.0, l2 in 0.0f64..20.0,
            th1 in 0.0f64..3.0, thl in 0.0f64..3.0,
        ) {
            let a = Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(t1, t1 + l1))
                .with(Dimension::Theta, Interval::new(th1, (th1 + thl).min(THETA_PERIOD)));
            let b = Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(t2, t2 + l2));
            if let Some(i) = a.intersect(&b) {
                prop_assert!(a.contains_volume(&i));
                prop_assert!(b.contains_volume(&i));
            }
        }

        #[test]
        fn partition_blocks_tile_volume(len in 0.5f64..30.0, delta in 0.1f64..5.0) {
            let v = Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(0.0, len));
            let parts = v.partition(Dimension::T, delta);
            // Every block is contained in the parent and they abut.
            for p in &parts {
                prop_assert!(v.contains_volume(p));
            }
            prop_assert!(crate::approx_eq(parts.last().unwrap().t().hi(), len));
        }
    }
}
