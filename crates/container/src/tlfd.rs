//! The custom `tlfd` atom: LightDB's physical TLF descriptor.
//!
//! For a `360TLF` it records the spatial points at which spheres are
//! defined and their track assignments (including optional depth-map
//! and right-eye tracks). For a `SlabTLF` it records each light
//! slab's plane geometry and sampling granularity. A `CompositeTLF`
//! recursively contains child descriptors. Common to all three are
//! the bounding volume, streaming flag, partitioning metadata, and —
//! for partially materialised continuous TLFs — an opaque serialised
//! *view subgraph* (the logical operators still to be applied, owned
//! by the query layer).

use crate::{ContainerError, Result};
use lightdb_codec::bitio::{read_varint, write_varint};
use lightdb_geom::{Dimension, Interval, Point3, Volume};

/// A 360° sphere definition: a spatial point plus its tracks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpherePoint {
    pub position: Point3,
    /// Index into the metadata file's track list.
    pub video_track: u32,
    /// Optional depth-map stream for the sphere.
    pub depth_track: Option<u32>,
    /// Optional second (right-eye) stream for explicit stereo.
    pub right_eye_track: Option<u32>,
}

/// Light-slab geometry: the `uv` and `st` plane rectangles (axis-
/// aligned, given by min/max corners) and sampling granularity, after
/// Levoy & Hanrahan's two-plane parameterisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlabGeometry {
    pub uv_min: Point3,
    pub uv_max: Point3,
    pub st_min: Point3,
    pub st_max: Point3,
    /// Samples along (u, v): the outer array-of-arrays dimensions.
    pub uv_samples: (u32, u32),
    /// Samples along (s, t): the nested array dimensions.
    pub st_samples: (u32, u32),
    /// Index into the metadata file's track list.
    pub track: u32,
}

/// Variant-specific body of a TLF descriptor.
#[derive(Debug, Clone, PartialEq)]
pub enum TlfBody {
    /// One or more 360° videos at spatially distinct points.
    Sphere360 { points: Vec<SpherePoint> },
    /// One or more light slabs.
    Slab { slabs: Vec<SlabGeometry> },
    /// Recursive union of child TLFs.
    Composite { children: Vec<TlfDescriptor> },
}

/// The full payload of a `tlfd` atom.
#[derive(Debug, Clone, PartialEq)]
pub struct TlfDescriptor {
    pub volume: Volume,
    /// True when the TLF's ending time monotonically increases (live
    /// ingest); LightDB advances `volume.t().hi()` as data arrives.
    pub streaming: bool,
    /// Partitioning metadata: `(dimension, block width)` pairs.
    pub partition_spec: Vec<(Dimension, f64)>,
    /// Serialised logical-operator subgraph for continuous TLFs
    /// (opaque to the container layer), or `None` for discrete TLFs.
    pub view_subgraph: Option<Vec<u8>>,
    pub body: TlfBody,
}

impl TlfDescriptor {
    /// A discrete 360TLF at a single point with one video track.
    pub fn single_sphere(position: Point3, t: Interval, video_track: u32) -> TlfDescriptor {
        TlfDescriptor {
            volume: Volume::sphere_at(position.x, position.y, position.z, t),
            streaming: false,
            partition_spec: Vec::new(),
            view_subgraph: None,
            body: TlfBody::Sphere360 {
                points: vec![SpherePoint {
                    position,
                    video_track,
                    depth_track: None,
                    right_eye_track: None,
                }],
            },
        }
    }

    /// All track indices referenced anywhere in the descriptor tree.
    pub fn referenced_tracks(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.collect_tracks(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_tracks(&self, out: &mut Vec<u32>) {
        match &self.body {
            TlfBody::Sphere360 { points } => {
                for p in points {
                    out.push(p.video_track);
                    out.extend(p.depth_track);
                    out.extend(p.right_eye_track);
                }
            }
            TlfBody::Slab { slabs } => out.extend(slabs.iter().map(|s| s.track)),
            TlfBody::Composite { children } => {
                for c in children {
                    c.collect_tracks(out);
                }
            }
        }
    }

    /// Serialises to `tlfd` payload bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut Vec<u8>) {
        write_volume(out, &self.volume);
        out.push(self.streaming as u8);
        write_varint(out, self.partition_spec.len() as u64);
        for (dim, delta) in &self.partition_spec {
            out.push(dim.index() as u8);
            out.extend_from_slice(&delta.to_be_bytes());
        }
        match &self.view_subgraph {
            None => out.push(0),
            Some(bytes) => {
                out.push(1);
                write_varint(out, bytes.len() as u64);
                out.extend_from_slice(bytes);
            }
        }
        match &self.body {
            TlfBody::Sphere360 { points } => {
                out.push(0);
                write_varint(out, points.len() as u64);
                for p in points {
                    write_point(out, &p.position);
                    write_varint(out, p.video_track as u64);
                    write_opt_track(out, p.depth_track);
                    write_opt_track(out, p.right_eye_track);
                }
            }
            TlfBody::Slab { slabs } => {
                out.push(1);
                write_varint(out, slabs.len() as u64);
                for s in slabs {
                    write_point(out, &s.uv_min);
                    write_point(out, &s.uv_max);
                    write_point(out, &s.st_min);
                    write_point(out, &s.st_max);
                    write_varint(out, s.uv_samples.0 as u64);
                    write_varint(out, s.uv_samples.1 as u64);
                    write_varint(out, s.st_samples.0 as u64);
                    write_varint(out, s.st_samples.1 as u64);
                    write_varint(out, s.track as u64);
                }
            }
            TlfBody::Composite { children } => {
                out.push(2);
                write_varint(out, children.len() as u64);
                for c in children {
                    c.write(out);
                }
            }
        }
    }

    /// Parses `tlfd` payload bytes. Hostile bytes are `Malformed`: no
    /// length overflows, no count reserves more elements than the bytes
    /// left could encode, and composites nest at most 64
    /// levels below the root.
    pub fn from_bytes(buf: &[u8]) -> Result<TlfDescriptor> {
        let mut pos = 0;
        let d = Self::read(buf, &mut pos, 0)?;
        if pos != buf.len() {
            return Err(ContainerError::Malformed("trailing bytes in tlfd"));
        }
        Ok(d)
    }

    fn read(buf: &[u8], pos: &mut usize, depth: usize) -> Result<TlfDescriptor> {
        let volume = read_volume(buf, pos)?;
        let streaming = read_u8(buf, pos)? != 0;
        let nspec = rv(buf, pos)? as usize;
        if nspec > 64 {
            return Err(ContainerError::Malformed("implausible partition spec"));
        }
        let mut partition_spec = Vec::with_capacity(nspec);
        for _ in 0..nspec {
            let dim = Dimension::from_index(read_u8(buf, pos)? as usize)
                .ok_or(ContainerError::Malformed("bad dimension"))?;
            partition_spec.push((dim, read_f64(buf, pos)?));
        }
        let view_subgraph = match read_u8(buf, pos)? {
            0 => None,
            1 => {
                let len = rv(buf, pos)?;
                let bytes = usize::try_from(len)
                    .ok()
                    .and_then(|len| buf.get(*pos..pos.checked_add(len)?))
                    .ok_or(ContainerError::Malformed("view subgraph truncated"))?;
                *pos += bytes.len();
                Some(bytes.to_vec())
            }
            _ => return Err(ContainerError::Malformed("bad view subgraph tag")),
        };
        let body = match read_u8(buf, pos)? {
            0 => {
                let n = rv(buf, pos)? as usize;
                if n > 1 << 24 {
                    return Err(ContainerError::Malformed("implausible point count"));
                }
                let mut points = Vec::with_capacity(bounded(n, buf, *pos, MIN_POINT_BYTES));
                for _ in 0..n {
                    points.push(SpherePoint {
                        position: read_point(buf, pos)?,
                        video_track: rv(buf, pos)? as u32,
                        depth_track: read_opt_track(buf, pos)?,
                        right_eye_track: read_opt_track(buf, pos)?,
                    });
                }
                TlfBody::Sphere360 { points }
            }
            1 => {
                let n = rv(buf, pos)? as usize;
                if n > 1 << 16 {
                    return Err(ContainerError::Malformed("implausible slab count"));
                }
                let mut slabs = Vec::with_capacity(bounded(n, buf, *pos, MIN_SLAB_BYTES));
                for _ in 0..n {
                    slabs.push(SlabGeometry {
                        uv_min: read_point(buf, pos)?,
                        uv_max: read_point(buf, pos)?,
                        st_min: read_point(buf, pos)?,
                        st_max: read_point(buf, pos)?,
                        uv_samples: (rv(buf, pos)? as u32, rv(buf, pos)? as u32),
                        st_samples: (rv(buf, pos)? as u32, rv(buf, pos)? as u32),
                        track: rv(buf, pos)? as u32,
                    });
                }
                TlfBody::Slab { slabs }
            }
            2 => {
                let n = rv(buf, pos)? as usize;
                if n > 4096 {
                    return Err(ContainerError::Malformed("implausible child count"));
                }
                if depth == MAX_DEPTH {
                    return Err(ContainerError::Malformed("composite nested too deep"));
                }
                let mut children = Vec::with_capacity(bounded(n, buf, *pos, MIN_DESCRIPTOR_BYTES));
                for _ in 0..n {
                    children.push(Self::read(buf, pos, depth + 1)?);
                }
                TlfBody::Composite { children }
            }
            _ => return Err(ContainerError::Malformed("unknown tlfd body tag")),
        };
        Ok(TlfDescriptor { volume, streaming, partition_spec, view_subgraph, body })
    }
}

/// Composite levels allowed below the root descriptor.
const MAX_DEPTH: usize = 64;

/// Fewest bytes a sphere point encodes to: three `f64`s, a one-byte
/// track varint and two one-byte absent-track tags.
const MIN_POINT_BYTES: usize = 3 * 8 + 3;
/// Fewest bytes a slab encodes to: four points and five one-byte
/// varints.
const MIN_SLAB_BYTES: usize = 4 * 3 * 8 + 5;
/// Fewest bytes a child descriptor encodes to: the volume's twelve
/// `f64`s, the streaming flag, an empty partition spec, the subgraph
/// tag, the body tag and an empty body's count.
const MIN_DESCRIPTOR_BYTES: usize = 12 * 8 + 5;

/// A reservation for `n` claimed elements of at least `min_bytes` each:
/// no more than the bytes left after `pos` could hold.
fn bounded(n: usize, buf: &[u8], pos: usize, min_bytes: usize) -> usize {
    n.min(buf.len().saturating_sub(pos) / min_bytes)
}

fn rv(buf: &[u8], pos: &mut usize) -> Result<u64> {
    read_varint(buf, pos).map_err(|_| ContainerError::Malformed("varint"))
}

fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf.get(*pos).ok_or(ContainerError::Malformed("unexpected end"))?;
    *pos += 1;
    Ok(b)
}

fn read_f64(buf: &[u8], pos: &mut usize) -> Result<f64> {
    if *pos + 8 > buf.len() {
        return Err(ContainerError::Malformed("f64 truncated"));
    }
    let v = f64::from_be_bytes(
        buf[*pos..*pos + 8]
            .try_into()
            .map_err(|_| ContainerError::Malformed("f64 truncated"))?,
    );
    *pos += 8;
    Ok(v)
}

fn write_point(out: &mut Vec<u8>, p: &Point3) {
    out.extend_from_slice(&p.x.to_be_bytes());
    out.extend_from_slice(&p.y.to_be_bytes());
    out.extend_from_slice(&p.z.to_be_bytes());
}

fn read_point(buf: &[u8], pos: &mut usize) -> Result<Point3> {
    Ok(Point3::new(read_f64(buf, pos)?, read_f64(buf, pos)?, read_f64(buf, pos)?))
}

fn write_opt_track(out: &mut Vec<u8>, t: Option<u32>) {
    match t {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            write_varint(out, v as u64);
        }
    }
}

fn read_opt_track(buf: &[u8], pos: &mut usize) -> Result<Option<u32>> {
    match read_u8(buf, pos)? {
        0 => Ok(None),
        1 => Ok(Some(rv(buf, pos)? as u32)),
        _ => Err(ContainerError::Malformed("bad option tag")),
    }
}

fn write_volume(out: &mut Vec<u8>, v: &Volume) {
    for d in Dimension::ALL {
        let iv = v.get(d);
        out.extend_from_slice(&iv.lo().to_be_bytes());
        out.extend_from_slice(&iv.hi().to_be_bytes());
    }
}

fn read_volume(buf: &[u8], pos: &mut usize) -> Result<Volume> {
    let mut ivs = [Interval::point(0.0); 6];
    for iv in ivs.iter_mut() {
        let lo = read_f64(buf, pos)?;
        let hi = read_f64(buf, pos)?;
        if lo.is_nan() || hi.is_nan() || lo > hi {
            return Err(ContainerError::Malformed("bad interval"));
        }
        *iv = Interval::new(lo, hi);
    }
    Volume::try_new(ivs[0], ivs[1], ivs[2], ivs[3], ivs[4], ivs[5])
        .ok_or(ContainerError::Malformed("volume out of angular domain"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere_desc() -> TlfDescriptor {
        let mut d = TlfDescriptor::single_sphere(
            Point3::new(0.5, 0.0, -1.0),
            Interval::new(0.0, 90.0),
            0,
        );
        d.partition_spec = vec![(Dimension::T, 1.0), (Dimension::Theta, std::f64::consts::PI / 2.0)];
        d
    }

    fn slab_desc() -> TlfDescriptor {
        TlfDescriptor {
            volume: Volume::everywhere(),
            streaming: false,
            partition_spec: vec![],
            view_subgraph: Some(vec![1, 2, 3, 4]),
            body: TlfBody::Slab {
                slabs: vec![SlabGeometry {
                    uv_min: Point3::new(0.0, 0.0, 0.0),
                    uv_max: Point3::new(1.0, 1.0, 0.0),
                    st_min: Point3::new(0.0, 0.0, 1.0),
                    st_max: Point3::new(1.0, 1.0, 1.0),
                    uv_samples: (8, 8),
                    st_samples: (512, 384),
                    track: 2,
                }],
            },
        }
    }

    #[test]
    fn sphere_roundtrip() {
        let d = sphere_desc();
        assert_eq!(TlfDescriptor::from_bytes(&d.to_bytes()).unwrap(), d);
    }

    #[test]
    fn slab_roundtrip_with_view_subgraph() {
        let d = slab_desc();
        let parsed = TlfDescriptor::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(parsed, d);
        assert_eq!(parsed.view_subgraph.as_deref(), Some(&[1u8, 2, 3, 4][..]));
    }

    #[test]
    fn composite_roundtrip_recursive() {
        let d = TlfDescriptor {
            volume: Volume::everywhere(),
            streaming: true,
            partition_spec: vec![],
            view_subgraph: None,
            body: TlfBody::Composite {
                children: vec![
                    sphere_desc(),
                    TlfDescriptor {
                        body: TlfBody::Composite { children: vec![slab_desc()] },
                        ..sphere_desc()
                    },
                ],
            },
        };
        assert_eq!(TlfDescriptor::from_bytes(&d.to_bytes()).unwrap(), d);
    }

    #[test]
    fn unbounded_volume_roundtrips() {
        let d = TlfDescriptor { volume: Volume::everywhere(), ..sphere_desc() };
        let parsed = TlfDescriptor::from_bytes(&d.to_bytes()).unwrap();
        assert!(parsed.volume.x().lo().is_infinite());
    }

    #[test]
    fn referenced_tracks_deduped_and_sorted() {
        let mut d = sphere_desc();
        if let TlfBody::Sphere360 { points } = &mut d.body {
            points.push(SpherePoint {
                position: Point3::ORIGIN,
                video_track: 2,
                depth_track: Some(1),
                right_eye_track: Some(2),
            });
        }
        assert_eq!(d.referenced_tracks(), vec![0, 1, 2]);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sphere_desc().to_bytes();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(TlfDescriptor::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// A composite whose second child is itself a composite holding a
    /// slab with a view subgraph: every body kind, two levels deep.
    fn two_level_composite() -> TlfDescriptor {
        TlfDescriptor {
            volume: Volume::everywhere(),
            streaming: true,
            partition_spec: vec![(Dimension::X, 2.0)],
            view_subgraph: Some(vec![9, 8, 7]),
            body: TlfBody::Composite {
                children: vec![
                    sphere_desc(),
                    TlfDescriptor {
                        body: TlfBody::Composite { children: vec![slab_desc()] },
                        ..sphere_desc()
                    },
                ],
            },
        }
    }

    fn ok_or_malformed(bytes: &[u8], what: &str) {
        match TlfDescriptor::from_bytes(bytes) {
            Ok(_) | Err(ContainerError::Malformed(_)) => {}
            Err(e) => panic!("{what}: {e:?}"),
        }
    }

    /// Every truncation and every single-bit flip of descriptors with a
    /// view subgraph, a slab body and a two-level composite parses or
    /// is `Malformed`; none panics.
    #[test]
    fn every_truncation_and_bit_flip_is_ok_or_malformed() {
        for d in [slab_desc(), two_level_composite()] {
            let bytes = d.to_bytes();
            for cut in 0..bytes.len() {
                assert!(TlfDescriptor::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            let mut flipped = bytes.clone();
            for bit in 0..bytes.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                ok_or_malformed(&flipped, &format!("bit {bit}"));
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn a_u64_max_subgraph_length_is_malformed() {
        let mut bytes = Vec::new();
        write_volume(&mut bytes, &Volume::everywhere());
        bytes.extend([0, 0, 1]); // not streaming, no partition spec, a subgraph
        write_varint(&mut bytes, u64::MAX);
        bytes.extend([0; 16]);
        assert!(matches!(
            TlfDescriptor::from_bytes(&bytes),
            Err(ContainerError::Malformed("view subgraph truncated"))
        ));
    }

    /// A claimed count reserves no more elements than the bytes left
    /// could hold.
    #[test]
    fn claimed_counts_are_bounded_by_the_bytes_left() {
        assert_eq!(bounded(1 << 24, &[0; 270], 0, MIN_POINT_BYTES), 10);
        assert_eq!(bounded(3, &[0; 270], 0, MIN_POINT_BYTES), 3);
        assert_eq!(bounded(4096, &[0; 100], 200, MIN_DESCRIPTOR_BYTES), 0);
        // Each minimum is what the smallest element really encodes to.
        let mut point = Vec::new();
        write_point(&mut point, &Point3::ORIGIN);
        write_varint(&mut point, 0);
        write_opt_track(&mut point, None);
        write_opt_track(&mut point, None);
        assert_eq!(point.len(), MIN_POINT_BYTES);
        let TlfBody::Slab { slabs } = slab_desc().body else { unreachable!() };
        let slab = SlabGeometry { uv_samples: (0, 0), st_samples: (0, 0), track: 0, ..slabs[0] };
        let one = TlfDescriptor { body: TlfBody::Slab { slabs: vec![slab] }, view_subgraph: None, ..slab_desc() };
        let none = TlfDescriptor { body: TlfBody::Slab { slabs: vec![] }, ..one.clone() };
        assert_eq!(one.to_bytes().len() - none.to_bytes().len(), MIN_SLAB_BYTES);
        assert_eq!(none.to_bytes().len(), MIN_DESCRIPTOR_BYTES);
    }

    /// Composites nest up to [`MAX_DEPTH`] levels below the root, and one
    /// level more is `Malformed` rather than a deeper recursion.
    #[test]
    fn composite_depth_is_capped() {
        let nested = |levels: usize| {
            let mut d = sphere_desc();
            for _ in 0..levels {
                d = TlfDescriptor { body: TlfBody::Composite { children: vec![d] }, ..sphere_desc() };
            }
            d
        };
        let deepest = nested(MAX_DEPTH);
        assert_eq!(TlfDescriptor::from_bytes(&deepest.to_bytes()).unwrap(), deepest);
        assert!(matches!(
            TlfDescriptor::from_bytes(&nested(MAX_DEPTH + 1).to_bytes()),
            Err(ContainerError::Malformed("composite nested too deep"))
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sphere_desc().to_bytes();
        bytes.push(0xff);
        assert!(TlfDescriptor::from_bytes(&bytes).is_err());
    }
}
