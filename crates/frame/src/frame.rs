//! Planar YUV 4:2:0 frames.

use crate::color::Yuv;

/// Identifies one of the three planes of a 4:2:0 frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneKind {
    Luma,
    Cb,
    Cr,
}

/// A planar YUV 4:2:0 video frame.
///
/// The luma plane is `width × height`; each chroma plane is
/// `(width/2) × (height/2)`. Width and height must be even — the
/// codec's block structure and chroma subsampling both require it.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    width: usize,
    height: usize,
    y: Vec<u8>,
    u: Vec<u8>,
    v: Vec<u8>,
}

impl Frame {
    /// Creates a frame filled with mid-grey.
    pub fn new(width: usize, height: usize) -> Self {
        Frame::filled(width, height, Yuv::GREY)
    }

    /// A zero-sized placeholder that owns no heap memory. Used for
    /// scratch slots that are [`Frame::reshape`]d before first use;
    /// most other methods would panic or misbehave on it.
    pub fn empty() -> Self {
        Frame {
            width: 0,
            height: 0,
            y: Vec::new(),
            u: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Resizes this frame in place to `width × height`, reusing the
    /// plane allocations. Sample values are unspecified afterwards
    /// (mid-grey where planes grow, stale data elsewhere): callers are
    /// expected to overwrite every sample before reading any. Once the
    /// frame has reached its steady-state dimensions this performs no
    /// heap allocation.
    pub fn reshape(&mut self, width: usize, height: usize) {
        assert!(width > 0 && height > 0, "frame dimensions must be positive");
        assert!(
            width.is_multiple_of(2) && height.is_multiple_of(2),
            "frame dimensions must be even (4:2:0)"
        );
        self.width = width;
        self.height = height;
        self.y.resize(width * height, Yuv::GREY.y);
        self.u.resize((width / 2) * (height / 2), Yuv::GREY.u);
        self.v.resize((width / 2) * (height / 2), Yuv::GREY.v);
    }

    /// Creates a frame filled with a solid colour.
    pub fn filled(width: usize, height: usize, color: Yuv) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be positive");
        assert!(
            width.is_multiple_of(2) && height.is_multiple_of(2),
            "frame dimensions must be even (4:2:0)"
        );
        Frame {
            width,
            height,
            y: vec![color.y; width * height],
            u: vec![color.u; (width / 2) * (height / 2)],
            v: vec![color.v; (width / 2) * (height / 2)],
        }
    }

    /// Reassembles a frame from raw planes (sizes are validated).
    pub fn from_planes(width: usize, height: usize, y: Vec<u8>, u: Vec<u8>, v: Vec<u8>) -> Self {
        assert_eq!(y.len(), width * height, "luma plane size mismatch");
        assert_eq!(
            u.len(),
            (width / 2) * (height / 2),
            "Cb plane size mismatch"
        );
        assert_eq!(
            v.len(),
            (width / 2) * (height / 2),
            "Cr plane size mismatch"
        );
        assert!(
            width.is_multiple_of(2) && height.is_multiple_of(2),
            "frame dimensions must be even (4:2:0)"
        );
        Frame {
            width,
            height,
            y,
            u,
            v,
        }
    }

    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total sample count across the three planes.
    #[inline]
    pub fn sample_count(&self) -> usize {
        self.y.len() + self.u.len() + self.v.len()
    }

    #[inline]
    pub fn plane(&self, kind: PlaneKind) -> &[u8] {
        match kind {
            PlaneKind::Luma => &self.y,
            PlaneKind::Cb => &self.u,
            PlaneKind::Cr => &self.v,
        }
    }

    #[inline]
    pub fn plane_mut(&mut self, kind: PlaneKind) -> &mut [u8] {
        match kind {
            PlaneKind::Luma => &mut self.y,
            PlaneKind::Cb => &mut self.u,
            PlaneKind::Cr => &mut self.v,
        }
    }

    /// Luma, Cb and Cr at once, for kernels that write a pixel's luma
    /// and its block's chroma together.
    #[inline]
    pub fn planes_mut(&mut self) -> (&mut [u8], &mut [u8], &mut [u8]) {
        (&mut self.y, &mut self.u, &mut self.v)
    }

    /// Plane dimensions for `kind` (chroma planes are half-size).
    pub fn plane_dims(&self, kind: PlaneKind) -> (usize, usize) {
        match kind {
            PlaneKind::Luma => (self.width, self.height),
            PlaneKind::Cb | PlaneKind::Cr => (self.width / 2, self.height / 2),
        }
    }

    /// Reads the full colour at pixel `(x, y)` (chroma is subsampled).
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Yuv {
        debug_assert!(x < self.width && y < self.height);
        let ci = (y / 2) * (self.width / 2) + x / 2;
        Yuv {
            y: self.y[y * self.width + x],
            u: self.u[ci],
            v: self.v[ci],
        }
    }

    /// Writes a colour at pixel `(x, y)`. The chroma sample shared by
    /// the 2×2 neighbourhood is overwritten.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, c: Yuv) {
        debug_assert!(x < self.width && y < self.height);
        self.y[y * self.width + x] = c.y;
        let ci = (y / 2) * (self.width / 2) + x / 2;
        self.u[ci] = c.u;
        self.v[ci] = c.v;
    }

    /// Luma value at `(x, y)` without touching chroma.
    #[inline]
    pub fn luma_at(&self, x: usize, y: usize) -> u8 {
        self.y[y * self.width + x]
    }

    /// Copies `src` into this frame with its top-left corner at
    /// `(dst_x, dst_y)`, clipping at the borders.
    pub fn blit(&mut self, src: &Frame, dst_x: usize, dst_y: usize) {
        let w = src.width.min(self.width.saturating_sub(dst_x));
        let h = src.height.min(self.height.saturating_sub(dst_y));
        for row in 0..h {
            let s = row * src.width;
            let d = (dst_y + row) * self.width + dst_x;
            self.y[d..d + w].copy_from_slice(&src.y[s..s + w]);
        }
        let (cw, ch) = (w / 2, h / 2);
        let (scw, dcw) = (src.width / 2, self.width / 2);
        for row in 0..ch {
            let s = row * scw;
            let d = (dst_y / 2 + row) * dcw + dst_x / 2;
            self.u[d..d + cw].copy_from_slice(&src.u[s..s + cw]);
            self.v[d..d + cw].copy_from_slice(&src.v[s..s + cw]);
        }
    }

    /// Extracts the `w × h` sub-frame whose top-left corner is at
    /// `(x0, y0)`. All four values must be even and in bounds.
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> Frame {
        let mut out = Frame::empty();
        self.crop_into(x0, y0, w, h, &mut out);
        out
    }

    /// Allocation-reusing form of [`Frame::crop`]: writes the sub-frame
    /// into `out`, reshaping it as needed. Every sample of `out` is
    /// overwritten.
    pub fn crop_into(&self, x0: usize, y0: usize, w: usize, h: usize, out: &mut Frame) {
        assert!(
            x0.is_multiple_of(2)
                && y0.is_multiple_of(2)
                && w.is_multiple_of(2)
                && h.is_multiple_of(2),
            "crop must be 2-aligned"
        );
        assert!(
            x0 + w <= self.width && y0 + h <= self.height,
            "crop out of bounds"
        );
        out.reshape(w, h);
        for row in 0..h {
            let s = (y0 + row) * self.width + x0;
            let d = row * w;
            out.y[d..d + w].copy_from_slice(&self.y[s..s + w]);
        }
        let (cw, ch) = (w / 2, h / 2);
        let scw = self.width / 2;
        for row in 0..ch {
            let s = (y0 / 2 + row) * scw + x0 / 2;
            let d = row * cw;
            out.u[d..d + cw].copy_from_slice(&self.u[s..s + cw]);
            out.v[d..d + cw].copy_from_slice(&self.v[s..s + cw]);
        }
    }

    /// Nearest-neighbour rescale to `new_w × new_h` (both even).
    ///
    /// Used by `DISCRETIZE` when resampling a TLF's angular resolution
    /// (e.g. down to the 480×480 input of a detector UDF).
    pub fn resize(&self, new_w: usize, new_h: usize) -> Frame {
        assert!(
            new_w.is_multiple_of(2) && new_h.is_multiple_of(2),
            "resize target must be even"
        );
        let mut out = Frame::new(new_w, new_h);
        let luma = (self.width, self.height);
        resample(&self.y, luma, &mut out.y, (new_w, new_h), &column_map(self.width, new_w));
        let (from, to) = ((self.width / 2, self.height / 2), (new_w / 2, new_h / 2));
        let cols = column_map(from.0, to.0);
        resample(&self.u, from, &mut out.u, to, &cols);
        resample(&self.v, from, &mut out.v, to, &cols);
        out
    }

    /// Serialises the three planes into one contiguous I420 buffer.
    pub fn to_i420_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.sample_count());
        out.extend_from_slice(&self.y);
        out.extend_from_slice(&self.u);
        out.extend_from_slice(&self.v);
        out
    }

    /// Inverse of [`Frame::to_i420_bytes`].
    pub fn from_i420_bytes(width: usize, height: usize, bytes: &[u8]) -> Frame {
        let ysz = width * height;
        let csz = (width / 2) * (height / 2);
        assert_eq!(bytes.len(), ysz + 2 * csz, "I420 buffer size mismatch");
        Frame::from_planes(
            width,
            height,
            bytes[..ysz].to_vec(),
            bytes[ysz..ysz + csz].to_vec(),
            bytes[ysz + csz..].to_vec(),
        )
    }
}

/// The source column of each of `to` output columns of a
/// nearest-neighbour rescale from `from` columns.
fn column_map(from: usize, to: usize) -> Vec<usize> {
    (0..to).map(|ox| ox * from / to).collect()
}

/// Nearest-neighbour rescale of one plane: one division per output
/// row, none per sample.
fn resample(
    src: &[u8],
    (sw, sh): (usize, usize),
    dst: &mut [u8],
    (dw, dh): (usize, usize),
    cols: &[usize],
) {
    for (oy, out) in dst.chunks_exact_mut(dw).enumerate() {
        let row = &src[(oy * sh / dh) * sw..][..sw];
        for (d, &sx) in out.iter_mut().zip(cols) {
            *d = row[sx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Rgb;

    #[test]
    fn new_frame_is_grey() {
        let f = Frame::new(16, 8);
        assert_eq!(f.get(0, 0), Yuv::GREY);
        assert_eq!(f.get(15, 7), Yuv::GREY);
        assert_eq!(f.sample_count(), 16 * 8 + 2 * 8 * 4);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_dimensions_rejected() {
        Frame::new(15, 8);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut f = Frame::new(8, 8);
        let red = Rgb::RED.to_yuv();
        f.set(3, 5, red);
        assert_eq!(f.get(3, 5), red);
        // Chroma is shared within the 2×2 block.
        assert_eq!(f.get(2, 4).u, red.u);
    }

    #[test]
    fn blit_copies_region() {
        let mut dst = Frame::filled(16, 16, Yuv::BLACK);
        let src = Frame::filled(4, 4, Yuv::WHITE);
        dst.blit(&src, 8, 8);
        assert_eq!(dst.get(8, 8), Yuv::WHITE);
        assert_eq!(dst.get(11, 11), Yuv::WHITE);
        assert_eq!(dst.get(7, 7), Yuv::BLACK);
        assert_eq!(dst.get(12, 12), Yuv::BLACK);
    }

    #[test]
    fn blit_clips_at_border() {
        let mut dst = Frame::filled(8, 8, Yuv::BLACK);
        let src = Frame::filled(8, 8, Yuv::WHITE);
        dst.blit(&src, 6, 6);
        assert_eq!(dst.get(7, 7), Yuv::WHITE);
        assert_eq!(dst.get(5, 5), Yuv::BLACK);
    }

    #[test]
    fn crop_then_blit_roundtrips() {
        let mut f = Frame::new(16, 16);
        f.set(5, 5, Yuv::WHITE);
        let c = f.crop(4, 4, 8, 8);
        assert_eq!(c.get(1, 1), Yuv::WHITE);
        let mut g = Frame::new(16, 16);
        g.blit(&c, 4, 4);
        assert_eq!(g.get(5, 5), Yuv::WHITE);
    }

    #[test]
    fn resize_preserves_solid_color() {
        let f = Frame::filled(32, 16, Yuv::new(200, 90, 30));
        let r = f.resize(8, 4);
        assert_eq!(r.width(), 8);
        assert_eq!(r.get(3, 2), Yuv::new(200, 90, 30));
    }

    /// `resize` as it was: two divisions per output sample.
    fn resize_per_sample(f: &Frame, new_w: usize, new_h: usize) -> Frame {
        let mut out = Frame::new(new_w, new_h);
        for oy in 0..new_h {
            let sy = oy * f.height / new_h;
            for ox in 0..new_w {
                let sx = ox * f.width / new_w;
                out.y[oy * new_w + ox] = f.y[sy * f.width + sx];
            }
        }
        let (ncw, nch) = (new_w / 2, new_h / 2);
        let (scw, sch) = (f.width / 2, f.height / 2);
        for oy in 0..nch {
            let sy = oy * sch / nch;
            for ox in 0..ncw {
                let sx = ox * scw / ncw;
                out.u[oy * ncw + ox] = f.u[sy * scw + sx];
                out.v[oy * ncw + ox] = f.v[sy * scw + sx];
            }
        }
        out
    }

    #[test]
    fn resize_matches_the_per_sample_form_over_a_sweep_of_sizes() {
        let sizes = [(2, 2), (6, 2), (10, 14), (16, 8), (34, 18), (64, 32)];
        for (w, h) in sizes {
            let mut f = Frame::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    f.set(x, y, Yuv::new((x * 31 + y * 17) as u8, (x * 5) as u8, (y * 9) as u8));
                }
            }
            for (nw, nh) in sizes.into_iter().chain([(512, 256), (2, 64)]) {
                assert_eq!(
                    f.resize(nw, nh),
                    resize_per_sample(&f, nw, nh),
                    "{w}x{h} -> {nw}x{nh}"
                );
            }
        }
    }

    #[test]
    fn i420_roundtrip() {
        let mut f = Frame::new(8, 8);
        f.set(1, 1, Yuv::new(10, 20, 30));
        let bytes = f.to_i420_bytes();
        let g = Frame::from_i420_bytes(8, 8, &bytes);
        assert_eq!(f, g);
    }

    #[test]
    fn crop_out_of_bounds_panics() {
        let f = Frame::new(8, 8);
        assert!(std::panic::catch_unwind(|| f.crop(4, 4, 8, 8)).is_err());
    }

    #[test]
    fn crop_into_matches_crop_across_reuse() {
        let mut f = Frame::new(32, 16);
        for y in 0..16 {
            for x in 0..32 {
                f.set(x, y, Yuv::new((x * 7 + y * 3) as u8, x as u8, y as u8));
            }
        }
        let mut scratch = Frame::empty();
        // Reuse the same scratch across differently-sized crops; each
        // must equal the allocating path exactly.
        for (x0, y0, w, h) in [(0, 0, 8, 8), (4, 2, 16, 12), (2, 0, 4, 4), (0, 0, 32, 16)] {
            f.crop_into(x0, y0, w, h, &mut scratch);
            assert_eq!(scratch, f.crop(x0, y0, w, h), "crop {x0},{y0} {w}x{h}");
        }
    }

    #[test]
    fn reshape_reuses_capacity() {
        let mut f = Frame::new(64, 32);
        let cap = f.y.capacity();
        f.reshape(16, 8);
        assert_eq!((f.width(), f.height()), (16, 8));
        assert_eq!(f.y.len(), 16 * 8);
        f.reshape(64, 32);
        assert_eq!(
            f.y.capacity(),
            cap,
            "reshape back to max size must not reallocate"
        );
    }
}
