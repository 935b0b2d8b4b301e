//! The one order of Algorithm 1's work (lines 3–12), derived once from
//! the view-pairs in serial order (DESIGN.md §8). A pair's cross-view
//! iteration touches only its common nodes' rows, so pair `q` runs one
//! *level* after every earlier pair that shares a view with it and whose
//! common nodes intersect its own: the pairs of one level write disjoint
//! rows and train together. A view's *release point* is its last level;
//! its next single-view iteration starts on its own thread once that level
//! is done. Every conflicting pair of operations keeps its serial order,
//! so the result is the serial loop's bits at every thread count.
//!
//! The schedule also splits `cfg.parallelism.threads` evenly across the
//! views it trains ([`sgns_workers`]), at least one SGNS worker each.
//! Cross-view levels use all `threads`.

use crate::config::TransNConfig;
use crate::cross_view::{CrossPair, EmbSlot};
use crate::single_view::SingleView;
use crate::trainer::TrainStats;
use std::ops::Range;
use std::sync::Mutex;
use std::thread::{Scope, ScopedJoinHandle};
use transn_graph::par::run_shards_build;
use transn_graph::{Parallelism, ViewPair};

/// Levels and release points of one set of view-pairs.
pub(crate) struct Schedule {
    /// `(i, j)` view indices of each pair, in serial order.
    ends: Vec<(usize, usize)>,
    /// `level[q]`: the level pair `q` runs at.
    level: Vec<usize>,
    /// `release[v]`: the last level touching view `v`, if any pair does.
    release: Vec<Option<usize>>,
}

impl Schedule {
    /// Derive the schedule of `pairs`, given in serial order.
    pub(crate) fn new(pairs: &[ViewPair<'_>], num_views: usize) -> Schedule {
        let (mut ends, mut level, mut release) = (Vec::new(), Vec::new(), vec![None; num_views]);
        for (q, p) in pairs.iter().enumerate() {
            let (i, j) = (p.vi.etype().index(), p.vj.etype().index());
            let l = (0..q)
                .filter(|&r| {
                    let (a, b) = ends[r];
                    let common = pairs[r].common_nodes();
                    (a == i || a == j || b == i || b == j) && common.iter().any(|&g| p.is_common(g))
                })
                .map(|r| level[r] + 1)
                .max()
                .unwrap_or(0);
            ends.push((i, j));
            level.push(l);
            for v in [i, j] {
                release[v] = release[v].max(Some(l));
            }
        }
        Schedule {
            ends,
            level,
            release,
        }
    }

    /// Run `cfg.iterations` iterations of Algorithm 1 lines 3–12: a
    /// single-view iteration for every view with `train[v]`, and one
    /// cross-view iteration per pair, level by level.
    pub(crate) fn run(
        &self,
        views: &mut [SingleView],
        pairs: &mut [CrossPair],
        train: &[bool],
        cfg: &TransNConfig,
    ) -> TrainStats {
        let iterations = cfg.iterations;
        let mut stats = TrainStats {
            single_losses: vec![vec![0.0; views.len()]; iterations],
            cross_losses: vec![vec![0.0; pairs.len()]; iterations],
            cross_segments: vec![vec![[0; 2]; pairs.len()]; iterations],
            peak_corpus_bytes: 0,
        };
        let mut levels: Vec<Vec<(usize, Mutex<&mut CrossPair>)>> = Vec::new();
        for (q, pair) in pairs.iter_mut().enumerate() {
            levels.resize_with(levels.len().max(self.level[q] + 1), Vec::new);
            levels[self.level[q]].push((q, Mutex::new(pair)));
        }
        let trains: Vec<bool> = (0..views.len())
            .map(|v| train.get(v) == Some(&true))
            .collect();
        let view_cfgs: Vec<TransNConfig> = sgns_workers(&trains, cfg.parallelism.threads)
            .into_iter()
            .map(|threads| TransNConfig {
                parallelism: Parallelism {
                    threads,
                    ..cfg.parallelism
                },
                ..*cfg
            })
            .collect();
        std::thread::scope(|scope| {
            let mut lanes: Vec<Lane<'_, '_>> = views
                .iter_mut()
                .map(|sv| Lane {
                    idle: Some(sv),
                    busy: None,
                })
                .collect();
            for (v, lane) in lanes.iter_mut().enumerate() {
                if trains[v] {
                    let end = self.release[v].map_or(iterations, |_| 1).min(iterations);
                    lane.start(scope, 0..end, &view_cfgs[v]);
                }
            }
            for iter in 0..iterations {
                for (l, level) in levels.iter().enumerate() {
                    self.run_level(level, &mut lanes, &mut stats, cfg, iter);
                    for (v, lane) in lanes.iter_mut().enumerate() {
                        if self.release[v] == Some(l) && trains[v] && iter + 1 < iterations {
                            lane.start(scope, iter + 1..iter + 2, &view_cfgs[v]);
                        }
                    }
                }
            }
            for (v, lane) in lanes.iter_mut().enumerate() {
                lane.idle(&mut stats.single_losses, v);
            }
        });
        stats
    }

    /// One level of iteration `iter`: wait for its views, then train its pairs.
    fn run_level(
        &self,
        level: &[(usize, Mutex<&mut CrossPair>)],
        lanes: &mut [Lane<'_, '_>],
        stats: &mut TrainStats,
        cfg: &TransNConfig,
        iter: usize,
    ) {
        let mut slots: Vec<Option<EmbSlot<'_>>> = lanes.iter().map(|_| None).collect();
        for (v, lane) in lanes.iter_mut().enumerate() {
            if level
                .iter()
                .any(|&(q, _)| self.ends[q].0 == v || self.ends[q].1 == v)
            {
                let sv = lane.idle(&mut stats.single_losses, v);
                slots[v] = Some(EmbSlot::new(sv.model.input_table_mut(), cfg.dim));
            }
        }
        let slot = |v: usize| slots[v].as_ref().expect("a level's views are idle");
        let out = run_shards_build(level.len(), cfg.parallelism, |k| {
            let mut pair = level[k].1.lock().expect("view-pair lock poisoned");
            let (i, j) = (pair.i, pair.j);
            let loss = pair.train_iteration_slots(slot(i), slot(j), cfg, iter);
            (loss, pair.last_segments())
        });
        for (&(q, _), (loss, segments)) in level.iter().zip(out) {
            stats.cross_losses[iter][q] = loss;
            stats.cross_segments[iter][q] = segments;
        }
    }
}

/// SGNS workers per view (DESIGN.md §7): `threads` split evenly across
/// the views with `trains[v]`, `max(1, threads / active)` each, and the
/// remainder one apiece to the lowest-indexed of them. So at
/// `threads ≤ active` every training view runs on the sequential in-place
/// path, and the training views' workers sum to `max(threads, active)`. A
/// view that does not train gets 1 and runs no SGNS.
pub(crate) fn sgns_workers(trains: &[bool], threads: usize) -> Vec<usize> {
    let active = trains.iter().filter(|&&t| t).count().max(1);
    let (share, mut extra) = (threads / active, threads % active);
    (trains.iter())
        .map(|&t| {
            if !t || share == 0 {
                return 1;
            }
            let one = usize::from(extra > 0);
            extra -= one;
            share + one
        })
        .collect()
}

/// One view: idle on the scheduling thread, or busy on its own thread
/// running a range of single-view iterations.
struct Lane<'s, 'v: 's> {
    idle: Option<&'v mut SingleView>,
    busy: Option<Job<'s, 'v>>,
}

/// A view's thread: it hands back the view, its iterations and their losses.
type Job<'s, 'v> = ScopedJoinHandle<'s, (&'v mut SingleView, Range<usize>, Vec<f32>)>;

impl<'s, 'v: 's> Lane<'s, 'v> {
    fn start(&mut self, scope: &'s Scope<'s, '_>, iters: Range<usize>, cfg: &'s TransNConfig) {
        let sv = self.idle.take().expect("a view starts only when idle");
        self.busy = Some(scope.spawn(move || {
            let losses = iters
                .clone()
                .map(|it| sv.train_iteration(cfg, it))
                .collect();
            (sv, iters, losses)
        }));
    }

    /// Wait for the running iterations (recording their losses) and hand
    /// out the view.
    fn idle(&mut self, losses: &mut [Vec<f32>], v: usize) -> &mut SingleView {
        if let Some(job) = self.busy.take() {
            let (sv, iters, run) = job.join().expect("single-view worker panicked");
            for (it, loss) in iters.zip(run) {
                losses[it][v] = loss;
            }
            self.idle = Some(sv);
        }
        self.idle.as_deref_mut().expect("lane holds its view")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transn_graph::{EdgeTypeId, HetNet};
    use transn_synth::{
        aminer_like, blog_like, commerce_like, edge_stream, AminerConfig, BlogConfig,
        CommerceConfig, StreamConfig,
    };

    /// The schedule of `net`'s view-pairs: its levels as
    /// `"[X–Y, …] […]"` over edge-type names, and its release points as
    /// `"X l, …"`.
    fn rendered(net: &HetNet) -> (String, String) {
        let views = net.views();
        let s = Schedule::new(&net.view_pairs(&views), views.len());
        let name = |v: usize| net.schema().edge_type_name(EdgeTypeId(v as u32));
        let mut levels = vec![Vec::new(); s.level.iter().max().map_or(0, |&l| l + 1)];
        for (&(i, j), &l) in s.ends.iter().zip(&s.level) {
            levels[l].push(format!("{}–{}", name(i), name(j)));
        }
        let levels: Vec<String> = levels
            .iter()
            .map(|lv| format!("[{}]", lv.join(", ")))
            .collect();
        let release: Vec<String> = (s.release.iter().enumerate())
            .map(|(v, r)| format!("{} {}", name(v), r.map_or("-".into(), |l| l.to_string())))
            .collect();
        (levels.join(" "), release.join(", "))
    }

    #[test]
    fn aminer_runs_author_and_paper_pairs_together() {
        let (levels, release) = rendered(&aminer_like(&AminerConfig::tiny(), 3).net);
        assert_eq!(levels, "[AA–AP, AP–PP] [AP–PV] [PP–PV]");
        assert_eq!(release, "AA 0, AP 1, PP 2, PV 2");
    }

    #[test]
    fn commerce_is_a_star_through_items() {
        let (levels, release) = rendered(&commerce_like(&CommerceConfig::tiny(), 3).net);
        assert_eq!(levels, "[UI–II] [UI–IC] [UI–IB, II–IC] [II–IB] [IC–IB]");
        assert_eq!(release, "UI 2, II 3, IC 4, IB 4");
    }

    #[test]
    fn blog_pairs_share_a_view_but_no_row() {
        for net in [
            blog_like(&BlogConfig::tiny(), 3).net,
            edge_stream(&StreamConfig::tiny(), 3).base,
        ] {
            let (levels, release) = rendered(&net);
            assert_eq!(levels, "[UU–UK, UK–KK]");
            assert_eq!(release, "UU 0, UK 0, KK 0");
        }
    }

    #[test]
    fn views_without_pairs_have_no_release_point() {
        let net = blog_like(&BlogConfig::tiny(), 3).net;
        let s = Schedule::new(&[], net.views().len());
        assert!(s.level.is_empty());
        assert_eq!(s.release, vec![None; 3]);
    }

    #[test]
    fn sgns_workers_split_threads_evenly() {
        for (trains, threads, want) in [
            (&[true; 4][..], 1, &[1, 1, 1, 1][..]),
            (&[true; 4], 2, &[1, 1, 1, 1]),
            (&[true; 4], 4, &[1, 1, 1, 1]),
            (&[true; 4], 8, &[2, 2, 2, 2]),
            (&[true; 4], 11, &[3, 3, 3, 2]),
            // Views that do not train get 1 and take no share.
            (&[false, true, false, true], 1, &[1, 1, 1, 1]),
            (&[false, true, false, true], 8, &[1, 4, 1, 4]),
            (&[false, true, false, true], 9, &[1, 5, 1, 4]),
            (&[false, false], 8, &[1, 1]),
        ] {
            let w = sgns_workers(trains, threads);
            assert_eq!(w, want, "{trains:?} at {threads} threads");
            let active = trains.iter().filter(|&&t| t).count();
            let used: usize = (w.iter().zip(trains))
                .filter(|&(_, &t)| t)
                .map(|(&k, _)| k)
                .sum();
            if active > 0 {
                assert_eq!(used, threads.max(active), "{trains:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn scheduled_run_matches_the_serial_loop() {
        use transn_sgns::Parallelism;
        let net = aminer_like(&AminerConfig::tiny(), 5).net;
        let mut cfg = TransNConfig::for_tests();
        cfg.walk.length = 12;
        // Serial reference: every view, then every pair in pair order.
        let (mut views, mut pairs, _) = crate::trainer::setup(&net, &cfg, |_, _| true);
        let mut serial = TrainStats::default();
        for iter in 0..cfg.iterations {
            serial.single_losses.push(
                views
                    .iter_mut()
                    .map(|sv| sv.train_iteration(&cfg, iter))
                    .collect(),
            );
            let mut losses = Vec::new();
            for pair in &mut pairs {
                let (lo, hi) = views.split_at_mut(pair.j);
                losses.push(pair.train_iteration(&mut lo[pair.i], &mut hi[0], &cfg, iter));
            }
            serial.cross_losses.push(losses);
        }
        let bits = |views: &[SingleView]| -> Vec<u32> {
            views
                .iter()
                .flat_map(|sv| sv.model.input_table().iter().map(|x| x.to_bits()))
                .collect()
        };
        for par in [
            Parallelism::strict(1),
            Parallelism::strict(4),
            Parallelism::hogwild(1),
            // One SGNS worker per view: each trains in place.
            Parallelism::hogwild(4),
        ] {
            cfg.parallelism = par;
            let (mut v, mut p, schedule) = crate::trainer::setup(&net, &cfg, |_, _| true);
            let stats = schedule.run(&mut v, &mut p, &[true; 4], &cfg);
            assert_eq!(bits(&v), bits(&views), "{par:?}");
            assert_eq!(stats.single_losses, serial.single_losses, "{par:?}");
            assert_eq!(stats.cross_losses, serial.cross_losses, "{par:?}");
            assert!(stats
                .cross_segments
                .iter()
                .flatten()
                .any(|s| s[0] + s[1] > 0));
        }
    }
}
