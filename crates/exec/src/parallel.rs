//! The parallel execution layer.
//!
//! LightDB's evaluation attributes nearly all query time to
//! ENCODE/DECODE over *independent* work units — GOPs, tiles, and
//! partition parts (PAPER.md §5, Figure 11). This module fans those
//! units out across cores with scoped threads (`std::thread::scope`;
//! the workspace builds offline, so no runtime dependency) while
//! keeping results in deterministic chunk order: a parallel pipeline
//! produces a `QueryOutput` byte-identical to the serial one.
//!
//! Chunk streams are pull-based `Box<dyn Iterator>`s and deliberately
//! not `Send`, so [`par_flat_map_chunks_ctx`] pulls a batch on the caller's
//! thread, scatters the batch across workers, and replays the results
//! in input order. An `Err` item ends its batch and is emitted in
//! position, exactly as the serial path would.

use crate::chunk::Chunk;
use crate::query_ctx::QueryCtx;
use crate::{ChunkStream, Result};

/// How many worker threads chunk-parallel operators may use.
///
/// `1` means strictly serial (no threads are spawned). The executor
/// default comes from [`Parallelism::from_env`]: the
/// `LIGHTDB_THREADS` variable when set, the machine's available
/// parallelism otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// Strictly serial execution; spawns no threads.
    pub const SERIAL: Parallelism = Parallelism { threads: 1 };

    /// A fixed thread count (clamped to at least 1).
    pub fn new(threads: usize) -> Parallelism {
        Parallelism { threads: threads.max(1) }
    }

    /// One thread per available core.
    pub fn auto() -> Parallelism {
        Parallelism::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// `LIGHTDB_THREADS` when set and well-formed, [`auto`] otherwise.
    /// `LIGHTDB_THREADS=1` forces the serial path. A malformed value
    /// warns loudly (once per process, via [`lightdb_core::envknob`])
    /// and falls back to [`auto`] instead of being silently ignored.
    ///
    /// [`auto`]: Parallelism::auto
    pub fn from_env() -> Parallelism {
        match lightdb_core::envknob::read_usize("LIGHTDB_THREADS") {
            Some(n) if n >= 1 => Parallelism::new(n),
            _ => Parallelism::auto(),
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }
}

impl Default for Parallelism {
    fn default() -> Parallelism {
        Parallelism::from_env()
    }
}

/// Runs `f(index, item)` over `items` on up to `threads` scoped
/// workers, preserving input order in the output. With one thread (or
/// one item) it degenerates to a plain in-place map — the serial and
/// parallel paths run the same closure on the same items, so results
/// are identical by construction.
pub fn scatter<T: Send, U: Send>(
    items: Vec<T>,
    threads: usize,
    f: impl Fn(usize, T) -> U + Sync,
) -> Vec<U> {
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let n = items.len();
    let mut jobs: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    jobs.reverse(); // pop() hands out jobs in input order
    let queue = parking_lot::Mutex::new(jobs);
    let results = parking_lot::Mutex::new(Vec::<(usize, U)>::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(lightdb_storage::faults::inherit(|| loop {
                let job = queue.lock().pop();
                match job {
                    Some((i, t)) => {
                        let out = f(i, t);
                        results.lock().push((i, out));
                    }
                    None => break,
                }
            }));
        }
    });
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (i, u) in results.into_inner() {
        slots[i] = Some(u);
    }
    slots.into_iter().flatten().collect()
}

/// The one operator driver: the executor runs every operator that
/// takes one chunk at a time through it, serial ones at
/// [`Parallelism::SERIAL`]. `f(chunk, budget)` turns one chunk into
/// zero or more chunks (a one-to-one operator returns `Some`), and the
/// outputs of chunk *i* are emitted contiguously, before chunk
/// *i + 1*'s — the order a serial `flat_map` gives.
///
/// Batches of up to `threads × 2` chunks are pulled from `input` on
/// the calling thread (the stream itself is not `Send`), transformed
/// concurrently with [`scatter`], and replayed in input order. When
/// the stream yields an `Err`, the batch ends there and the error is
/// emitted after the chunks that preceded it; an `Err` from `f` takes
/// the place of its item's outputs — either way the consumer sees the
/// same well-ordered prefix a serial run would.
///
/// Cancellation and deadline are checked on the caller thread before
/// each batch refill and on every worker before each item, so an abort
/// is observed within one item's worth of work. Items already
/// transformed when the abort lands are replayed first, then the abort
/// error is emitted and the stream ends.
///
/// `budget` is the parallelism `f` may use for nested work: the whole
/// of `par` when its item is alone in the batch (nothing else competes
/// for the workers), [`Parallelism::SERIAL`] when the batch fans out
/// (the fan-out already owns the thread budget). DECODE and MAP spend
/// it on one chunk's frames and `SUBQUERY` bodies run under it; the
/// other operators ignore it.
pub fn par_flat_map_chunks_ctx<I>(
    input: ChunkStream,
    par: Parallelism,
    ctx: QueryCtx,
    f: impl Fn(Chunk, Parallelism) -> Result<I> + Sync + 'static,
) -> ChunkStream
where
    I: IntoIterator<Item = Chunk> + Send + 'static,
{
    if par.is_serial() {
        // A flat-map written out: `Iterator::flat_map` with each
        // item's error chained after its outputs moves every chunk
        // through several adaptors of a few hundred bytes, about 0.3 µs
        // a chunk on a 2-core Xeon host — a tenth of a ten-GOP
        // `GOPSELECT` query.
        let mut input = input.fuse();
        let mut pending: Option<I::IntoIter> = None;
        return Box::new(std::iter::from_fn(move || loop {
            if let Some(c) = pending.as_mut().and_then(Iterator::next) {
                return Some(Ok(c));
            }
            let c = input.next()?;
            if let Err(e) = ctx.check() {
                return Some(Err(e));
            }
            let c = match c {
                Ok(c) => c,
                Err(e) => return Some(Err(e)),
            };
            match f(c, Parallelism::SERIAL) {
                Ok(produced) => pending = Some(produced.into_iter()),
                Err(e) => return Some(Err(e)),
            }
        }));
    }
    let threads = par.threads();
    let batch_size = threads * 2;
    let mut input = input;
    let mut outbox: std::collections::VecDeque<Result<Chunk>> = std::collections::VecDeque::new();
    let mut done = false;
    Box::new(std::iter::from_fn(move || loop {
        if let Some(r) = outbox.pop_front() {
            return Some(r);
        }
        if done {
            return None;
        }
        if let Err(e) = ctx.check() {
            done = true;
            return Some(Err(e));
        }
        // Refill: pull a batch, stopping at stream end or an error.
        let mut batch: Vec<Chunk> = Vec::with_capacity(batch_size);
        let mut tail_err: Option<crate::ExecError> = None;
        while batch.len() < batch_size {
            match input.next() {
                None => {
                    done = true;
                    break;
                }
                Some(Err(e)) => {
                    tail_err = Some(e);
                    break;
                }
                Some(Ok(c)) => batch.push(c),
            }
        }
        if batch.is_empty() && tail_err.is_none() && done {
            return None;
        }
        let budget = if batch.len() > 1 { Parallelism::SERIAL } else { par };
        let ctx_ref = &ctx;
        for r in scatter(batch, threads, |_, c| {
            // Workers re-check before each item: a cancel that lands
            // mid-batch stops the remaining items, not just the next
            // batch.
            ctx_ref.check()?;
            f(c, budget)
        }) {
            match r {
                Ok(produced) => outbox.extend(produced.into_iter().map(Ok)),
                Err(e) => outbox.push_back(Err(e)),
            }
        }
        // Reassembly failpoint: fires once per replayed batch.
        if let Err(e) = lightdb_storage::faults::fail_point(
            lightdb_storage::faults::sites::EXEC_REASSEMBLE,
        ) {
            outbox.push_back(Err(e.into()));
            done = true;
            return outbox.pop_front();
        }
        if let Some(e) = tail_err {
            outbox.push_back(Err(e));
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ChunkPayload, StreamInfo};
    use crate::device::Device;
    use crate::ExecError;
    use lightdb_frame::Frame;
    use lightdb_geom::{Interval, Volume};

    fn chunk(t: usize) -> Chunk {
        Chunk {
            t_index: t,
            part: 0,
            volume: Volume::sphere_at(0.0, 0.0, 0.0, Interval::new(t as f64, t as f64 + 1.0)),
            info: StreamInfo::origin(1),
            payload: ChunkPayload::Decoded {
                frames: vec![Frame::new(16, 16)],
                device: Device::Cpu,
            },
        }
    }

    #[test]
    fn parallelism_knob_clamps_and_reports() {
        assert!(Parallelism::SERIAL.is_serial());
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::new(8).threads(), 8);
        assert!(!Parallelism::new(8).is_serial());
        assert!(Parallelism::auto().threads() >= 1);
    }

    #[test]
    fn scatter_preserves_order() {
        for threads in [1, 2, 8] {
            let out = scatter((0..100).collect::<Vec<i32>>(), threads, |i, v| {
                assert_eq!(i as i32, v);
                v * 3
            });
            assert_eq!(out, (0..100).map(|v| v * 3).collect::<Vec<i32>>());
        }
    }

    #[test]
    fn scatter_empty_and_single() {
        assert!(scatter(Vec::<u8>::new(), 4, |_, v| v).is_empty());
        assert_eq!(scatter(vec![9], 4, |_, v| v + 1), vec![10]);
    }

    #[test]
    fn par_map_matches_serial_order() {
        let chunks: Vec<Chunk> = (0..37).map(chunk).collect();
        let serial: Vec<usize> = par_flat_map_chunks_ctx(
            Box::new(chunks.clone().into_iter().map(Ok)),
            Parallelism::SERIAL,
            QueryCtx::unbounded(),
            |c, _| Ok(Some(c)),
        )
        .map(|r| r.unwrap().t_index)
        .collect();
        let parallel: Vec<usize> = par_flat_map_chunks_ctx(
            Box::new(chunks.into_iter().map(Ok)),
            Parallelism::new(8),
            QueryCtx::unbounded(),
            |c, _| {
                // Vary per-chunk latency to shuffle completion order.
                std::thread::sleep(std::time::Duration::from_micros(
                    ((c.t_index * 13) % 7) as u64 * 50,
                ));
                Ok(Some(c))
            },
        )
        .map(|r| r.unwrap().t_index)
        .collect();
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..37).collect::<Vec<usize>>());
    }

    #[test]
    fn par_map_emits_error_in_position() {
        // chunks 0..5, then an error, then 6..9: consumers must see
        // exactly five Ok items before the error, like the serial path.
        let items: Vec<crate::Result<Chunk>> = (0..5)
            .map(|t| Ok(chunk(t)))
            .chain(std::iter::once(Err(ExecError::Other("boom".into()))))
            .chain((6..10).map(|t| Ok(chunk(t))))
            .collect();
        let (par, ctx) = (Parallelism::new(4), QueryCtx::unbounded());
        let out: Vec<_> =
            par_flat_map_chunks_ctx(Box::new(items.into_iter()), par, ctx, |c, _| Ok(Some(c)))
                .collect();
        assert_eq!(out.len(), 10);
        assert!(out[..5].iter().all(|r| r.is_ok()));
        assert!(out[5].is_err());
        assert!(out[6..].iter().all(|r| r.is_ok()));
    }

    #[test]
    fn par_map_propagates_transform_errors_in_order() {
        let out: Vec<_> = par_flat_map_chunks_ctx(
            Box::new((0..8).map(chunk).map(Ok)),
            Parallelism::new(4),
            QueryCtx::unbounded(),
            |c, _| {
                if c.t_index == 3 {
                    Err(ExecError::Other("bad chunk".into()))
                } else {
                    Ok(Some(c))
                }
            },
        )
        .collect();
        assert_eq!(out.len(), 8);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.is_err(), i == 3, "slot {i}");
        }
    }

    /// Chunk `t` fans out to `t % 3` copies tagged by `part`.
    fn fan_out(c: Chunk) -> Vec<Chunk> {
        (0..c.t_index % 3).map(|part| Chunk { part, ..c.clone() }).collect()
    }

    fn tags(stream: ChunkStream) -> Vec<std::result::Result<(usize, usize), String>> {
        stream.map(|r| r.map(|c| (c.t_index, c.part)).map_err(|e| e.to_string())).collect()
    }

    #[test]
    fn par_flat_map_matches_the_serial_flat_map() {
        // 0, 1 and 2 outputs per item, and a failing item mid-stream:
        // each item's outputs stay contiguous and in input order, and
        // the error stands where its item's outputs would have.
        let run = |threads| {
            tags(par_flat_map_chunks_ctx(
                Box::new((0..23).map(chunk).map(Ok)),
                Parallelism::new(threads),
                QueryCtx::unbounded(),
                |c, _| match c.t_index {
                    7 => Err(ExecError::Other("bad chunk".into())),
                    _ => Ok(fan_out(c)),
                },
            ))
        };
        let serial = run(1);
        let expected: Vec<_> = (0..23)
            .flat_map(|t| match t {
                7 => vec![Err("bad chunk".to_string())],
                _ => (0..t % 3).map(|part| Ok((t, part))).collect(),
            })
            .collect();
        assert_eq!(serial, expected);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn nested_budget_is_serial_inside_a_batch_and_whole_when_alone() {
        let budgets = |chunks: usize, threads: usize| -> Vec<usize> {
            let seen = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
            let sink = seen.clone();
            let n = par_flat_map_chunks_ctx(
                Box::new((0..chunks).map(chunk).map(Ok)),
                Parallelism::new(threads),
                QueryCtx::unbounded(),
                move |c, budget| {
                    sink.lock().push((c.t_index, budget.threads()));
                    Ok(Some(c))
                },
            )
            .count();
            assert_eq!(n, chunks);
            let mut seen = seen.lock().clone();
            seen.sort_unstable();
            seen.into_iter().map(|(_, b)| b).collect()
        };
        assert_eq!(budgets(1, 4), [4], "a lone chunk keeps the whole budget");
        assert_eq!(budgets(5, 4), [1; 5], "a fanned-out batch owns the workers");
        // Batches hold threads × 2 chunks: eight fan out, the ninth is alone.
        assert_eq!(budgets(9, 4), [1, 1, 1, 1, 1, 1, 1, 1, 4]);
        assert_eq!(budgets(3, 1), [1; 3]);
    }

    #[test]
    fn from_env_parses_thread_count() {
        // Not touching the process env (other tests run concurrently);
        // just exercise the parse paths through new().
        assert_eq!(Parallelism::new(3).threads(), 3);
        assert_eq!(Parallelism::default().threads(), Parallelism::from_env().threads());
    }
}
