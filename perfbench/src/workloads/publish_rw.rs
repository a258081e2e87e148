//! `publish_rw` — reads beside writes on `storage::{catalog, wal,
//! durable, media}`: one reader runs `GOPSELECT` queries against the
//! newest versions of a rotating set of TLFs while one writer publishes
//! pre-encoded one-second clips as new versions of those same TLFs and
//! checkpoints the catalog every few hundred publishes.
//!
//! The clips are encoded in set-up, so no codec runs on the timed path:
//! read cost, write cost and space trade against each other here and
//! all three are printed together. Durability is the engine's default
//! (`Durability::Wal`, no group window) on both sides of any comparison.
//! After the run the root is reopened and every acknowledged version
//! must be readable with every GOP CRC intact.
//!
//! The writer is **paced** (an open loop: live feeds publish on a
//! schedule, whoever is reading), and the gated operation is the
//! reader's query. A closed-loop writer is bound by `fsync`, and on this
//! sandbox's virtio disk the same binary publishes 640 to 1120 clips a
//! second from one run to the next; nothing that noisy may gate. Publish
//! latency (from the moment each publish was due, so a checkpoint stall
//! counts against every publish queued behind it) is reported, ungated.

use super::{engine_counters, video_track, Replay};
use crate::harness::{is_replay, timed, Args, Counters, Done, Verified, Workload};
use crate::inputs::{self, Digest, Rng};
use crate::json::J;
use crate::trace::{Breakdown, Tracer, ROOT_REPLAY};
use lightdb::codec::{EncodedGop, TileGrid, VideoStream};
use lightdb::container::MetadataFile;
use lightdb::prelude::*;
use lightdb::storage::wal::{encode_record, Wal, WalOp, WalOptions};
use lightdb::storage::{Durability, MediaStore};
use lightdb_datasets::Dataset;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// TLFs the writer rotates over (and the reader reads).
const TLFS: usize = 8;
/// Distinct pre-encoded clips the writer cycles through. Sixty-four, so
/// that set-up is mostly encoding and `setup_s` is not just eight
/// `fsync`s.
const CLIPS: usize = 64;
const FPS: u32 = 4;
/// The writer's schedule: one publish every eight milliseconds, about
/// an eighth of what the disk sustains.
const PUBLISH_EVERY: Duration = Duration::from_millis(8);
/// The writer checkpoints the catalog after this many publishes (every
/// two seconds). Left to itself the log checkpoints at 4 MiB, which at
/// ~270 B a record is one multi-second stall every ~15 000 publishes: a
/// run would see none or one, by luck. This way every run crosses the
/// same few.
const CHECKPOINT_EVERY: u64 = 250;
/// TLF that replayed publishes go to, out of the reader's way.
const REPLAY_TLF: &str = "replayed";
const READER: usize = 0;

fn tlf(slot: usize) -> String {
    format!("feed{slot}")
}

#[derive(Debug)]
pub(crate) struct PublishRw {
    db: LightDb,
    root: PathBuf,
    session: Session,
    clips: Vec<VideoStream>,
    clip_bytes: Vec<u64>,
    /// Which clip and which TLF each publish uses.
    writes: Vec<(usize, usize)>,
    /// Which TLF each read asks for.
    reads: Vec<usize>,
    /// When the writer's publish 0 of the current segment was due.
    schedule: Mutex<Instant>,
    acked: Mutex<Vec<(String, u64)>>,
    /// Per TLF, the newest version whose publish has been acknowledged.
    latest: Vec<AtomicU64>,
    user_bytes: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_ns: AtomicU64,
    /// How far behind schedule the writer started a publish, at worst.
    max_late_ns: AtomicU64,
    /// The log's size just before the latest checkpoint truncated it.
    wal_peak_bytes: AtomicU64,
    /// A log of its own for timing `Wal::commit` alone.
    scratch_wal: Wal,
    scratch_media: MediaStore,
    scratch_seq: AtomicU64,
}

impl PublishRw {
    /// Publishes clip `c` as a new version of TLF `slot`; returns the
    /// time the `store_stream` call alone took.
    fn publish(&self, slot: usize, c: usize, i: u64, tr: &Tracer) -> Result<Duration, String> {
        let name = tlf(slot);
        let stream = self.clips[c].clone();
        let (version, elapsed) = timed(tr, i, "op:ingest.store_stream", || {
            inputs::store(&self.db, &name, stream)
        });
        let version = version?;
        self.acked
            .lock()
            .expect("ack list poisoned")
            .push((name, version));
        self.latest[slot].fetch_max(version, Ordering::Release);
        self.user_bytes
            .fetch_add(self.clip_bytes[c], Ordering::Relaxed);
        Ok(elapsed)
    }

    /// The reader asks for the newest *acknowledged* version by number.
    /// (An unversioned `SCAN` resolves "latest" from the version list,
    /// which a publish extends a moment before the version becomes
    /// readable: beside a busy writer about one such read in 40 000
    /// fails with `NotFound`. The benchmark may not have failing
    /// operations, so it reads what it was told exists; the defect is
    /// recorded in CHANGES.md.)
    fn read_query(&self, slot: usize) -> VrqlExpr {
        scan_version(tlf(slot), self.latest[slot].load(Ordering::Acquire))
            >> Select::along(Dimension::T, 0.0, 1.0)
    }

    fn read(&self, slot: usize, i: u64, tr: &Tracer) -> Result<(Done, VideoStream), String> {
        let q = self.read_query(slot);
        let (out, elapsed) = timed(tr, i, "op:session.execute", || self.session.execute(&q));
        match out {
            Ok(QueryOutput::Encoded(mut s))
                if s.len() == 1 && s[0].frame_count() == FPS as usize =>
            {
                Ok((Done { elapsed, units: 1 }, s.remove(0)))
            }
            Ok(other) => Err(format!(
                "read feed{slot}: expected one {FPS}-frame stream, got {} frames",
                other.frame_count()
            )),
            Err(e) => Err(format!("read feed{slot}: {e}")),
        }
    }

    /// The writer's `i`-th operation: wait until it is due, publish, and
    /// every `CHECKPOINT_EVERY`-th time checkpoint. Latency runs from
    /// the due time, so queueing behind a stall is counted.
    fn scheduled_publish(&self, i: u64, tr: &Tracer) -> Result<Done, String> {
        let (c, slot) = self.writes[(i % self.writes.len() as u64) as usize];
        if is_replay(i) {
            return self.publish(slot, c, i, tr).map(|elapsed| Done {
                elapsed,
                units: self.clip_bytes[c],
            });
        }
        let due = {
            let mut start = self.schedule.lock().expect("schedule poisoned");
            if i == 0 {
                *start = Instant::now();
            }
            *start + PUBLISH_EVERY * i as u32
        };
        match due.checked_duration_since(Instant::now()) {
            Some(early) => std::thread::sleep(early),
            None => {
                self.max_late_ns
                    .fetch_max(due.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
        self.publish(slot, c, i, tr)?;
        let done = Done {
            elapsed: due.elapsed(),
            units: self.clip_bytes[c],
        };
        if (i + 1).is_multiple_of(CHECKPOINT_EVERY) {
            self.wal_peak_bytes.store(
                inputs::dir_bytes(&self.root.join(".wal")),
                Ordering::Relaxed,
            );
            let start = Instant::now();
            self.db
                .checkpoint()
                .map_err(|e| format!("checkpoint: {e}"))?;
            self.checkpoint_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        Ok(done)
    }

    /// Everything under the root (log segments included, the
    /// benchmark's own scratch files and replay TLF excluded) over the
    /// media bytes handed in.
    fn space(&self) -> (f64, u64) {
        let own = inputs::dir_bytes(&self.root.join(".perfbench-scratch"))
            + inputs::dir_bytes(&self.root.join(REPLAY_TLF));
        let stored = inputs::dir_bytes(&self.root) - own;
        (
            stored as f64 / self.user_bytes.load(Ordering::Relaxed).max(1) as f64,
            stored,
        )
    }
}

impl Workload for PublishRw {
    type Inputs = (Vec<Vec<Frame>>, u64);

    fn generate(args: &Args) -> Self::Inputs {
        let mut rng = Rng::new(args.seed, 0x9b11);
        let clips = if args.quick { TLFS } else { CLIPS };
        let starts: Vec<usize> = (0..clips).map(|_| rng.below(3000) as usize).collect();
        (
            inputs::par_map(&starts, |&s| {
                inputs::scene_frames(Dataset::Venice, 256, 128, FPS, s, FPS as usize)
            }),
            args.seed,
        )
    }

    /// Encodes the clips and publishes version 1 of every TLF, so the
    /// reader never finds one missing.
    fn setup((frames, seed): &Self::Inputs, root: &Path) -> Result<PublishRw, String> {
        let db = LightDb::open(root).map_err(|e| format!("open: {e}"))?;
        let clips = inputs::par_map(frames, |f| {
            inputs::encode(f, FPS, FPS as usize, 22, TileGrid::SINGLE)
        });
        let clip_bytes: Vec<u64> = clips.iter().map(|c| c.to_bytes().len() as u64).collect();
        let mut user_bytes = 0;
        let mut latest = Vec::with_capacity(TLFS);
        for slot in 0..TLFS {
            latest.push(AtomicU64::new(inputs::store(
                &db,
                &tlf(slot),
                clips[slot].clone(),
            )?));
            user_bytes += clip_bytes[slot];
        }
        let mut rng = Rng::new(*seed, 0x9b12);
        let writes = (0..4096)
            .map(|i| (rng.below(clips.len() as u64) as usize, i % TLFS))
            .collect();
        let reads = (0..4096).map(|_| rng.below(TLFS as u64) as usize).collect();
        let scratch = root.join(".perfbench-scratch");
        let (scratch_wal, _) = Wal::open(&scratch.join("wal"), WalOptions::default())
            .map_err(|e| format!("scratch wal: {e}"))?;
        Ok(PublishRw {
            session: db.session(),
            root: root.to_path_buf(),
            clip_bytes,
            clips,
            writes,
            reads,
            schedule: Mutex::new(Instant::now()),
            acked: Mutex::new(Vec::new()),
            latest,
            user_bytes: AtomicU64::new(user_bytes),
            checkpoints: AtomicU64::new(0),
            checkpoint_ns: AtomicU64::new(0),
            max_late_ns: AtomicU64::new(0),
            wal_peak_bytes: AtomicU64::new(0),
            scratch_wal,
            scratch_media: MediaStore::new(scratch.join("media")),
            scratch_seq: AtomicU64::new(0),
            db,
        })
    }

    fn lanes(&self) -> Vec<&'static str> {
        vec!["query", "publish"]
    }

    fn unit(&self) -> &'static str {
        "gops"
    }

    fn op(&self, lane: usize, i: u64, tr: &Tracer) -> Result<Done, String> {
        if lane == READER {
            let slot = self.reads[(i % self.reads.len() as u64) as usize];
            return self.read(slot, i, tr).map(|(done, _)| done);
        }
        self.scheduled_publish(i, tr)
    }

    /// One publish per TLF followed by a read of it: the read must
    /// return exactly the bytes just acknowledged.
    fn verify(&self) -> Verified {
        let mut v = Verified::default();
        let mut digest = Digest::new();
        let off = Tracer::off();
        for slot in 0..TLFS {
            let (c, i) = ((slot * 3 + 1) % self.clips.len(), slot as u64);
            let read = self
                .publish(slot, c, i, &off)
                .and_then(|_| self.read(slot, i, &off));
            match read {
                Err(e) => v.check(false, || e),
                Ok((_, stream)) => {
                    let bytes = stream.to_bytes();
                    v.check(bytes == self.clips[c].to_bytes(), || {
                        format!("feed{slot}: read differs from what was published")
                    });
                    digest.add(&bytes);
                }
            }
        }
        v.digest = digest.hex();
        v
    }

    /// The reader's replay decomposes a read. The writer's decomposes a
    /// publish (media write, metadata write, log commit — on scratch
    /// files so the reader's TLFs are untouched) and probes
    /// `Catalog::store` whole.
    fn replay(&self, lane: usize, i: u64, tr: &Tracer) -> Result<(), String> {
        if lane == READER {
            let slot = self.reads[(i % self.reads.len() as u64) as usize];
            return tr.span(None, i, ROOT_REPLAY, |root| {
                let st = Replay {
                    tr,
                    parent: root,
                    op: i,
                };
                let result = (|| -> Result<(), String> {
                    st.plan(&self.db, &self.read_query(slot))?;
                    let stored = st.catalog_read(&self.db, &tlf(slot))?;
                    let track = video_track(&stored)?;
                    let picked = st.call("hops.gop_select", || {
                        track.gops_for_frames(0, u64::from(FPS) - 1)
                    });
                    for entry in picked {
                        st.read_gop(&self.db, &stored, track, entry)?;
                    }
                    Ok(())
                })();
                (result, 1)
            });
        }
        let (c, slot) = self.writes[(i % self.writes.len() as u64) as usize];
        let stream = &self.clips[c];
        // A representative metadata file: the newest version of a feed.
        let stored = self
            .db
            .catalog()
            .read(&tlf(slot), None)
            .map_err(|e| format!("replay read: {e}"))?;
        let seq = self.scratch_seq.fetch_add(1, Ordering::Relaxed);
        tr.span(None, i, ROOT_REPLAY, |root| {
            let st = Replay {
                tr,
                parent: root,
                op: i,
            };
            let result = (|| -> Result<(), String> {
                st.call("storage.media_write", || {
                    self.scratch_media
                        .write_stream(&format!("s{}.lvc", seq % 64), stream)
                })
                .map_err(|e| format!("replay media write: {e}"))?;
                let meta = st.call("container.metadata_write", || stored.metadata.to_bytes());
                let record = WalOp::Publish {
                    name: stored.name.clone(),
                    version: seq + 1,
                    meta,
                };
                st.call("storage.wal_commit", || self.scratch_wal.commit(&record))
                    .map_err(|e| format!("replay wal commit: {e}"))?;
                Ok(())
            })();
            (result, 1)
        })?;
        // Probes, outside the replay sums: the whole `Catalog::store`
        // path on a TLF of its own, and a metadata parse.
        let stream = stream.clone();
        tr.call(None, i, "storage.catalog_store", || {
            inputs::store(&self.db, REPLAY_TLF, stream)
        })?;
        let meta = stored.metadata.to_bytes();
        tr.call(None, i, "container.metadata_parse", || {
            MetadataFile::from_bytes(&meta)
        })
        .map_err(|e| format!("replay metadata parse: {e}"))?;
        Ok(())
    }

    fn counters(&self) -> Counters {
        engine_counters(&self.db, &[self.session.metrics()])
    }

    fn layer_extras(&self, _b: &Breakdown) -> Vec<(&'static str, f64)> {
        let sample = self
            .db
            .catalog()
            .read(&tlf(0), None)
            .map(|s| WalOp::Publish {
                name: s.name.clone(),
                version: s.version,
                meta: s.metadata.to_bytes(),
            });
        vec![
            (
                "wal_bytes_per_publish",
                sample.map_or(0.0, |op| encode_record(1, &op).len() as f64),
            ),
            (
                "checkpoints_crossed",
                self.checkpoints.load(Ordering::Relaxed) as f64,
            ),
            ("stored_bytes_per_user_byte", self.space().0),
        ]
    }

    fn sizes(&self) -> J {
        let (checkpoint_bytes, durability) = match Durability::wal_defaults() {
            Durability::Wal {
                checkpoint_bytes,
                group_window,
                ..
            } => (
                checkpoint_bytes,
                format!("Durability::Wal, group window {group_window:?}"),
            ),
            Durability::PerPublish => (0, "Durability::PerPublish".to_string()),
        };
        let (ratio, stored) = self.space();
        let checkpoints = self.checkpoints.load(Ordering::Relaxed);
        J::obj([
            ("tlfs", J::Int(TLFS as u64)),
            ("clips", J::Int(self.clips.len() as u64)),
            (
                "clip_bytes_mean",
                J::Int(self.clip_bytes.iter().sum::<u64>() / self.clip_bytes.len() as u64),
            ),
            ("flush_policy", J::str(durability)),
            (
                "publish_schedule_per_s",
                J::Num(1.0 / PUBLISH_EVERY.as_secs_f64()),
            ),
            (
                "publish_max_late_ms",
                J::Num(self.max_late_ns.load(Ordering::Relaxed) as f64 / 1e6),
            ),
            ("wal_auto_checkpoint_bytes", J::Int(checkpoint_bytes)),
            ("checkpoint_every_publishes", J::Int(CHECKPOINT_EVERY)),
            ("checkpoints_crossed", J::Int(checkpoints)),
            (
                "checkpoint_ms_mean",
                J::Num(
                    self.checkpoint_ns.load(Ordering::Relaxed) as f64
                        / 1e6
                        / checkpoints.max(1) as f64,
                ),
            ),
            (
                "wal_bytes_before_checkpoint",
                J::Int(self.wal_peak_bytes.load(Ordering::Relaxed)),
            ),
            (
                "acked_versions",
                J::Int(self.acked.lock().expect("ack list poisoned").len() as u64),
            ),
            (
                "user_bytes",
                J::Int(self.user_bytes.load(Ordering::Relaxed)),
            ),
            ("stored_bytes", J::Int(stored)),
            ("stored_bytes_per_user_byte", J::Num(ratio)),
            ("buffer_pool", J::str("fits: every clip is a few KB")),
        ])
    }

    /// Reopens the root and reads back every acknowledged version, every
    /// GOP through its CRC.
    fn finish(self) -> Result<J, String> {
        let PublishRw {
            db,
            session,
            scratch_wal,
            root,
            acked,
            clips,
            ..
        } = self;
        drop((session, scratch_wal, db));
        let acked = acked.into_inner().expect("ack list poisoned");
        let db = LightDb::open(&root).map_err(|e| format!("reopen: {e}"))?;
        let mut gops = 0u64;
        for (name, version) in &acked {
            let stored = db
                .catalog()
                .read(name, Some(*version))
                .map_err(|e| format!("acked {name} v{version}: {e}"))?;
            let track = video_track(&stored)?;
            let media = stored.media();
            for entry in &track.gop_index {
                let bytes = media
                    .read_gop_bytes(&track.media_path, entry)
                    .map_err(|e| {
                        format!("acked {name} v{version} gop {}: {e}", entry.start_frame)
                    })?;
                EncodedGop::from_bytes(&bytes)
                    .map_err(|e| format!("acked {name} v{version}: {e}"))?;
                gops += 1;
            }
            if track.frame_count() != clips[0].frame_count() as u64 {
                return Err(format!(
                    "acked {name} v{version}: {} frames",
                    track.frame_count()
                ));
            }
        }
        Ok(J::obj([
            ("reopened", J::Bool(true)),
            ("acked_versions_read_back", J::Int(acked.len() as u64)),
            ("gops_crc_checked", J::Int(gops)),
        ]))
    }
}
