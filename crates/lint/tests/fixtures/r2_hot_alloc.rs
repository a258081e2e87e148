// R2 fixture: allocation tokens inside a hot-loop fence must fire;
// the identical tokens outside the fence must not.
pub fn cold() -> Vec<u8> {
    Vec::new() // outside any fence: fine
}

pub fn hot(n: usize) -> u32 {
    let mut acc = 0u32;
    // lint: hot-loop — fixture fence
    for i in 0..n {
        let v = vec![0u8; 4]; // line 11: vec! allocates
        let s = format!("{i}"); // line 12: format! allocates
        let b = Box::new(i); // line 13: Box::new allocates
        acc += v.len() as u32 + s.len() as u32 + *b as u32;
    }
    // lint: end-hot-loop
    acc
}

// A sliding-window sum table is rebuilt once per reference frame from
// inside the per-tile encode, so its loops are fenced too: the column
// buffer must come from the scratch arena, not be made per row.
pub fn block_sums(plane: &[u8], w: usize, h: usize, sums: &mut [u16]) {
    // lint: hot-loop — fixture fence
    for y in 0..h - 15 {
        let mut column = vec![0u16; w]; // line 26: vec! allocates
        for row in plane[y * w..(y + 16) * w].chunks_exact(w) {
            for (c, &p) in column.iter_mut().zip(row) {
                *c += p as u16;
            }
        }
        let windows: Vec<u16> = column.windows(16).map(|c| c.iter().sum()).collect(); // line 32
        sums[y * (w - 15)..][..w - 15].copy_from_slice(&windows);
    }
    // lint: end-hot-loop
}

// A keyed 2×2 block blit runs per frame under UNION: the rows it walks
// are slices of the planes, and a block's four samples live in arrays,
// never in a per-block buffer.
pub fn blit_blocks(dst: &mut [u8], src: &[u8], w: usize, key: u8) {
    // lint: hot-loop — fixture fence
    for (d, s) in dst.chunks_exact_mut(2 * w).zip(src.chunks_exact(2 * w)) {
        for bx in 0..w / 2 {
            let block = vec![s[2 * bx], s[2 * bx + 1], s[w + 2 * bx], s[w + 2 * bx + 1]]; // line 45
            let kept: Vec<bool> = block.iter().map(|&p| p != key).collect(); // line 46
            for (i, &keep) in kept.iter().enumerate() {
                if keep {
                    d[(i / 2) * w + 2 * bx + i % 2] = block[i];
                }
            }
        }
    }
    // lint: end-hot-loop
}
