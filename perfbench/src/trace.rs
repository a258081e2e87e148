//! Benchmark-side tracing: spans recorded around the calls into each
//! layer, kept in memory and written out when the run ends.
//!
//! Spans inside the program are a later change (ROADMAP item 2); here
//! every span is opened by the benchmark, around a public function of
//! the layer it is named after.

use crate::json::J;
use std::sync::Mutex;
use std::time::Instant;

/// Prefix of the root span around the real end-to-end call of an
/// operation; the rest of the name says which call (`op:session.execute`).
pub(crate) const ROOT_OP: &str = "op:";
/// Root span around the stage-by-stage replay of the same operation.
pub(crate) const ROOT_REPLAY: &str = "replay";

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Span {
    pub(crate) id: u32,
    pub(crate) parent: Option<u32>,
    /// Spans of one operation share this identifier.
    pub(crate) op_id: u64,
    pub(crate) name: &'static str,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    /// How many units of the layer's work the span covers (frames,
    /// GOPs, bytes…); per-unit metrics divide by it.
    pub(crate) units: u64,
}

impl Span {
    pub(crate) fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled and costs one branch when not, so the
/// same workload code serves the untraced and the traced run.
#[derive(Debug)]
pub(crate) struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub(crate) fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its
    /// own children on, and returns its result plus the units covered.
    pub(crate) fn span<T>(
        &self,
        parent: Option<u32>,
        op_id: u64,
        name: &'static str,
        f: impl FnOnce(Option<u32>) -> (T, u64),
    ) -> T {
        if !self.enabled {
            return f(None).0;
        }
        let id = {
            let mut spans = self.spans.lock().expect("span buffer poisoned");
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                parent,
                op_id,
                name,
                start_ns: 0,
                end_ns: 0,
                units: 0,
            });
            id
        };
        let start = self.now();
        let (out, units) = f(Some(id));
        let end = self.now();
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        let s = &mut spans[id as usize];
        (s.start_ns, s.end_ns, s.units) = (start, end, units);
        out
    }

    /// A childless span around one call covering one unit.
    pub(crate) fn call<T>(
        &self,
        parent: Option<u32>,
        op_id: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        self.span(parent, op_id, name, |_| (f(), 1))
    }

    pub(crate) fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its children cover. Children are clipped to the parent and
/// overlapping children (parallel parts) are counted once.
pub(crate) fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// One row of the per-layer table: where the replayed time went.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LayerRow {
    pub(crate) name: &'static str,
    pub(crate) spans: u64,
    pub(crate) units: u64,
    pub(crate) self_ns: u64,
    /// Median self time per unit over this name's spans.
    pub(crate) per_unit_ns: f64,
    /// Share of the replayed total (0 for spans outside any replay).
    pub(crate) share: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Breakdown {
    pub(crate) rows: Vec<LayerRow>,
    /// Σ self time of every span under a replay root, glue included.
    pub(crate) replayed_ns: u64,
    /// Median over sampled operations of (real − replayed), in ns, and
    /// the same as a share of the real operation.
    pub(crate) residual_ns: f64,
    pub(crate) residual_share: f64,
    pub(crate) sampled_ops: u64,
}

fn under_replay(spans: &[Span]) -> Vec<bool> {
    // Parents are always recorded before their children.
    let mut under = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        under[i] = match s.parent {
            None => s.name == ROOT_REPLAY,
            Some(p) => under[p as usize],
        };
    }
    under
}

pub(crate) fn breakdown(spans: &[Span]) -> Breakdown {
    let selfs = self_times(spans);
    let under = under_replay(spans);
    let replayed_ns: u64 = spans
        .iter()
        .zip(&selfs)
        .zip(&under)
        .filter(|(_, &u)| u)
        .map(|((_, &t), _)| t)
        .sum();
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let rows = names
        .into_iter()
        .map(|name| {
            let mut per_unit: Vec<f64> = Vec::new();
            let (mut n, mut units, mut self_ns, mut replay_self) = (0u64, 0u64, 0u64, 0u64);
            for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
                n += 1;
                units += s.units;
                self_ns += selfs[i];
                if under[i] {
                    replay_self += selfs[i];
                }
                per_unit.push(selfs[i] as f64 / s.units.max(1) as f64);
            }
            LayerRow {
                name,
                spans: n,
                units,
                self_ns,
                per_unit_ns: crate::stats::median(&mut per_unit).unwrap_or(0.0),
                share: if replayed_ns == 0 {
                    0.0
                } else {
                    replay_self as f64 / replayed_ns as f64
                },
            }
        })
        .collect();
    // Residual: for every op that has both roots, real minus the time
    // its replay's stages cover.
    let real_ops: std::collections::HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with(ROOT_OP))
        .map(|s| (s.op_id, s))
        .collect();
    let mut residuals: Vec<f64> = Vec::new();
    let mut shares: Vec<f64> = Vec::new();
    for (i, replay) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.name == ROOT_REPLAY)
    {
        if let Some(real) = real_ops.get(&replay.op_id) {
            let staged = replay.dur() - selfs[i];
            residuals.push(real.dur() as f64 - staged as f64);
            shares.push((real.dur() as f64 - staged as f64) / real.dur().max(1) as f64);
        }
    }
    Breakdown {
        rows,
        replayed_ns,
        sampled_ops: residuals.len() as u64,
        residual_ns: crate::stats::median(&mut residuals).unwrap_or(0.0),
        residual_share: crate::stats::median(&mut shares).unwrap_or(0.0),
    }
}

impl Breakdown {
    pub(crate) fn row(&self, name: &str) -> Option<&LayerRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Per-unit median self time of `name` in `scale` ns units (0 when
    /// the workload never calls that layer).
    pub(crate) fn per_unit(&self, name: &str, scale: f64) -> f64 {
        self.row(name).map_or(0.0, |r| r.per_unit_ns / scale)
    }

    /// Summed replay share of every span name starting with `prefix`.
    pub(crate) fn share_of(&self, prefix: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.name.starts_with(prefix))
            .map(|r| r.share)
            .sum()
    }

    pub(crate) fn to_json(&self) -> J {
        J::obj([
            ("replayed_ms", J::Num(self.replayed_ns as f64 / 1e6)),
            ("sampled_ops", J::Int(self.sampled_ops)),
            ("residual_ms", J::Num(self.residual_ns / 1e6)),
            ("residual_share", J::Num(self.residual_share)),
            (
                "layers",
                J::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            J::obj([
                                ("span", J::str(r.name)),
                                ("spans", J::Int(r.spans)),
                                ("units", J::Int(r.units)),
                                ("self_ms", J::Num(r.self_ns as f64 / 1e6)),
                                ("self_us_per_unit_p50", J::Num(r.per_unit_ns / 1e3)),
                                ("share_of_replay", J::Num(r.share)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

pub(crate) fn spans_json(workload: &str, spans: &[Span]) -> J {
    J::Arr(
        spans
            .iter()
            .map(|s| {
                J::obj([
                    ("id", J::Int(u64::from(s.id))),
                    ("parent", s.parent.map_or(J::Null, |p| J::Int(u64::from(p)))),
                    ("op_id", J::Int(s.op_id)),
                    ("workload", J::str(workload)),
                    ("name", J::str(s.name)),
                    ("start_ns", J::Int(s.start_ns)),
                    ("end_ns", J::Int(s.end_ns)),
                    ("units", J::Int(s.units)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        op_id: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            op_id,
            name,
            start_ns,
            end_ns,
            units: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root 0..100; children 10..30, 20..50 (overlap), 60..70, and
        // one that sticks out past the parent (90..120, clipped to 100).
        let spans = vec![
            span(0, None, 1, ROOT_REPLAY, 0, 100),
            span(1, Some(0), 1, "a", 10, 30),
            span(2, Some(0), 1, "b", 20, 50),
            span(3, Some(0), 1, "c", 60, 70),
            span(4, Some(0), 1, "d", 90, 120),
            // grandchild of the root, child of "b": 25..45
            span(5, Some(2), 1, "e", 25, 45),
        ];
        let selfs = self_times(&spans);
        // covered = [10,50) ∪ [60,70) ∪ [90,100) = 40 + 10 + 10
        assert_eq!(selfs[0], 100 - 60);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 30 - 20);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 30);
        assert_eq!(selfs[5], 20);
    }

    #[test]
    fn breakdown_shares_and_residual() {
        let spans = vec![
            span(0, None, 7, ROOT_OP, 0, 1000),
            span(1, None, 7, ROOT_REPLAY, 2000, 2900),
            span(2, Some(1), 7, "decode", 2000, 2300),
            span(3, Some(1), 7, "encode", 2300, 2900),
            // A probe outside any replay: measured, but no share.
            span(4, None, 8, "probe", 5000, 5050),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.replayed_ns, 900);
        assert!((b.row("decode").unwrap().share - 300.0 / 900.0).abs() < 1e-12);
        assert!((b.share_of("enc") - 600.0 / 900.0).abs() < 1e-12);
        assert_eq!(b.row("probe").unwrap().share, 0.0);
        assert_eq!(b.per_unit("probe", 1.0), 50.0);
        assert_eq!(b.per_unit("absent", 1.0), 0.0);
        assert_eq!(b.sampled_ops, 1);
        assert_eq!(b.residual_ns, 100.0);
        assert!((b.residual_share - 0.1).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let t = Tracer::on();
        let v = t.span(None, 3, ROOT_REPLAY, |root| {
            let inner = t.call(root, 3, "stage", || 41);
            (inner + 1, 5)
        });
        assert_eq!(v, 42);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].units, 5);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::off();
        assert!(off.span(None, 1, ROOT_OP, |id| (id.is_none(), 1)));
        assert!(off.take().is_empty());
    }
}
