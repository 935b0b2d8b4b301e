//! Self-timing million-node-scale snapshot: measures ISSUE 8's three
//! acceptance numbers and writes `BENCH_scale.json` so the trajectory is
//! recorded in-repo.
//!
//! Plain `std::time::Instant` timing and hand-assembled JSON.
//! `scripts/bench_snapshot.sh` is the entry point; pass `--dev` for a
//! ~100×-smaller sanity run.
//!
//! ## Phase processes
//!
//! Every row is measured in a **child process** (the binary re-spawns
//! itself with `--phase <name>`), so each phase's `VmHWM` — the kernel's
//! per-process peak-resident high-water mark — is clean rather than
//! polluted by whichever earlier phase allocated most. Children report
//! `key=value` lines on stdout; the parent assembles the JSON.
//!
//! * `setup-40k` / `setup-400k` / `setup-4m` — end-to-end preprocessing
//!   (CSR build + per-node alias batch + noise-table init) on the 43k-node
//!   commerce `dev` tier, the 400k-user BLOG pipeline graph, and the
//!   4M-node commerce `xl` tier. Each is measured three ways over the
//!   *same* extracted arc array: the pre-ISSUE-8 serial implementations
//!   (global comparison sort, fresh per-node `AliasTable::new`, serial
//!   3/4-power fill — reproduced inline below, verbatim from git history),
//!   and the sharded builders at 1 and 8 configured threads.
//! * `logreg` — d = 128 logistic-regression evaluation and training:
//!   textbook scalar per-row/per-class loops vs the batched GEMM path,
//!   on identical weights and rows.
//! * `pipeline-40k` / `pipeline-1m` — the full generate → TransN-train →
//!   classify pipeline on the commerce `dev` (43k nodes) and `million`
//!   (1.0M nodes) tiers.
//! * `pipeline-400k` — the PR 7 reference workload (one episodic
//!   double-buffered training epoch over the 400k-user BLOG UK view,
//!   under the one stream schedule: an exact-frequency generation
//!   pre-pass, then a second generation pass that feeds the episodes);
//!   its `VmHWM` is the peak-RSS envelope the million-node pipeline is
//!   held to.
//!
//! Acceptance (recorded in the JSON): setup speedup ≥ 4× on the 400k
//! graph, GEMM eval ≥ 3× over scalar, and million-node pipeline peak RSS
//! ≤ 2× the PR 7 envelope. `cpus` is recorded so thread-axis numbers can
//! be read in context: on a single-core host the speedups come from the
//! algorithmic changes (linear counting/radix CSR placement instead of a
//! global comparison sort, scratch-reused alias builds instead of
//! per-node allocation), not from concurrency.

use std::process::Command;
use std::time::Instant;
use transn::{TransN, TransNConfig};
use transn_eval::{classification_scores, ClassifyProtocol, LogisticRegression};
use transn_graph::{build_batch_with, Csr, Parallelism};
use transn_nn::kernels;
use transn_rng::Rng;
use transn_sgns::{train_epoch_episodic, EpisodicState, NoiseTable, SgnsConfig, SgnsModel};
use transn_synth::{blog_like, commerce_like, BlogConfig, CommerceConfig, Dataset};
use transn_walks::{CorrelatedWalker, EpisodeConfig, WalkConfig};

const SEED: u64 = 11;
const DEV_REPS: usize = 3;

fn vm_hwm_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: usize = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn fastest(reps: usize, mut run: impl FnMut() -> f64) -> f64 {
    (0..reps)
        .map(|_| run())
        .min_by(f64::total_cmp)
        .expect("reps >= 1")
}

fn emit(key: &str, value: impl std::fmt::Display) {
    println!("{key}={value}");
}

// ───────────────────────── serial baselines ──────────────────────────
//
// The pre-ISSUE-8 preprocessing path, reproduced verbatim (modulo struct
// plumbing) from git history so the speedup rows compare against what the
// repo actually shipped: one global comparison sort for the CSR, a fresh
// allocating `AliasTable::new` per node, and a serial 3/4-power fill.

/// Pre-ISSUE-8 `Csr::from_directed_pairs`: global `sort_unstable_by_key`
/// over all arcs, then offsets, fill, and per-node weight prefix sums.
fn csr_serial_baseline(n: usize, mut arcs: Vec<(u32, u32, f32)>) -> (Vec<u32>, Vec<f32>) {
    arcs.sort_unstable_by_key(|a| (a.0, a.1));
    let mut offsets = vec![0u32; n + 1];
    for &(src, _, _) in &arcs {
        offsets[src as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut neighbors = Vec::with_capacity(arcs.len());
    let mut weights = Vec::with_capacity(arcs.len());
    for &(_, dst, w) in &arcs {
        neighbors.push(dst);
        weights.push(w);
    }
    let mut weight_prefix = Vec::with_capacity(weights.len());
    for i in 0..n {
        let (s, e) = (offsets[i] as usize, offsets[i + 1] as usize);
        let mut acc = 0.0f32;
        for &w in &weights[s..e] {
            acc += w;
            weight_prefix.push(acc);
        }
    }
    std::hint::black_box(&neighbors);
    (offsets, weight_prefix)
}

/// Pre-ISSUE-8 `AliasTable::new`, reproduced verbatim: fresh scratch and
/// output buffers every call, per-element `f64` divide in the scaling
/// pass (the current `rebuild` hoists the divide and reuses scratch).
fn alias_serial_baseline(weights: &[f32]) -> (Vec<f32>, Vec<u32>) {
    assert!(!weights.is_empty(), "alias table over empty support");
    let mut total = 0.0f64;
    for &w in weights {
        assert!(w.is_finite() && w >= 0.0, "bad alias weight {w}");
        total += w as f64;
    }
    assert!(total > 0.0, "alias weights sum to zero");
    let n = weights.len();
    let mut scaled: Vec<f64> = weights
        .iter()
        .map(|&w| w as f64 * n as f64 / total)
        .collect();
    let mut prob = vec![0.0f32; n];
    let mut alias = vec![0u32; n];
    let mut small: Vec<u32> = Vec::new();
    let mut large: Vec<u32> = Vec::new();
    for (i, &s) in scaled.iter().enumerate() {
        if s < 1.0 {
            small.push(i as u32);
        } else {
            large.push(i as u32);
        }
    }
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        prob[s as usize] = scaled[s as usize] as f32;
        alias[s as usize] = l;
        scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
        if scaled[l as usize] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    for &l in large.iter() {
        prob[l as usize] = 1.0;
    }
    for &s in small.iter() {
        prob[s as usize] = 1.0;
    }
    (prob, alias)
}

/// Pre-ISSUE-8 `NoiseTable::from_frequencies`: serial 3/4-power fill over
/// the pre-ISSUE-8 alias construction.
fn noise_serial_baseline(freqs: &[u64]) -> (Vec<f32>, Vec<u32>) {
    let weights: Vec<f32> = freqs.iter().map(|&f| (f as f32).powf(0.75)).collect();
    alias_serial_baseline(&weights)
}

// ───────────────────────── setup phases ──────────────────────────────

/// The directed arc array in *pipeline order*: each generation-order
/// undirected edge expanded to `(u,v)` then `(v,u)`, exactly as
/// `Csr::from_undirected_with` feeds the builder. Reading arcs back out
/// of the built CSR instead would hand both paths input already sorted
/// by `(src, dst)`, letting the baseline's pattern-defeating sort take
/// its O(n) sorted-run shortcut and understating real setup cost.
fn pipeline_arcs(net: &transn_graph::HetNet) -> Vec<(u32, u32, f32)> {
    let edges = net.edges();
    let mut arcs = Vec::with_capacity(edges.len() * 2);
    for e in edges {
        arcs.push((e.u.0, e.v.0, e.weight));
        arcs.push((e.v.0, e.u.0, e.weight));
    }
    arcs
}

/// One end-to-end setup measurement: CSR build + per-node alias batch +
/// noise init, returning wall nanoseconds.
fn time_setup_new(n: usize, arcs: &[(u32, u32, f32)], freqs: &[u64], par: Parallelism) -> f64 {
    // Both paths take the arc array by value; the clone that hands each
    // rep its own copy is not part of either implementation, so it stays
    // outside the timed region.
    let arcs_owned = arcs.to_vec();
    let t = Instant::now();
    let csr = Csr::from_directed_pairs_with(n, arcs_owned, par);
    let csr_ns = t.elapsed().as_nanos() as f64;
    // Alias tables only exist for nodes a walk can leave (degree > 0),
    // mirroring the walk engines.
    let active: Vec<u32> = (0..n as u32)
        .filter(|&i| csr.degree(i as usize) > 0)
        .collect();
    let tables = build_batch_with(active.len(), |k| csr.weights(active[k] as usize), par);
    let alias_ns = t.elapsed().as_nanos() as f64 - csr_ns;
    let noise = NoiseTable::from_frequencies_with(freqs, par);
    let ns = t.elapsed().as_nanos() as f64;
    eprintln!(
        "[setup]   new({} threads): csr {:.3}s, alias {:.3}s, noise {:.3}s",
        par.threads,
        csr_ns / 1e9,
        alias_ns / 1e9,
        (ns - csr_ns - alias_ns) / 1e9
    );
    std::hint::black_box((tables.len(), noise.len()));
    ns
}

fn time_setup_serial(n: usize, arcs: &[(u32, u32, f32)], freqs: &[u64]) -> f64 {
    // The baseline needs its own CSR to read per-node weight slices from;
    // build it untimed first so the timed region is exactly (CSR sort +
    // per-node alias + noise), the same three components as the new path.
    let ref_csr = Csr::from_directed_pairs(n, arcs.to_vec());
    let arcs_owned = arcs.to_vec();
    let t = Instant::now();
    let (offsets, _prefix) = csr_serial_baseline(n, arcs_owned);
    let csr_ns = t.elapsed().as_nanos() as f64;
    let mut tables = Vec::new();
    for i in 0..n {
        let (s, e) = (offsets[i] as usize, offsets[i + 1] as usize);
        debug_assert_eq!(e - s, ref_csr.degree(i));
        if e > s {
            tables.push(alias_serial_baseline(ref_csr.weights(i)));
        }
    }
    let alias_ns = t.elapsed().as_nanos() as f64 - csr_ns;
    let noise = noise_serial_baseline(freqs);
    let ns = t.elapsed().as_nanos() as f64;
    eprintln!(
        "[setup]   serial: csr {:.3}s, alias {:.3}s, noise {:.3}s",
        csr_ns / 1e9,
        alias_ns / 1e9,
        (ns - csr_ns - alias_ns) / 1e9
    );
    std::hint::black_box((tables.len(), noise.0.len()));
    ns
}

fn run_setup_phase(ds: &Dataset, reps: usize) {
    let csr = ds.net.global_adj();
    let n = csr.num_nodes();
    let arcs = pipeline_arcs(&ds.net);
    let freqs: Vec<u64> = (0..n).map(|i| csr.degree(i) as u64 + 1).collect();
    eprintln!("[setup] {} nodes, {} arcs", n, arcs.len());

    let serial_ns = fastest(reps, || time_setup_serial(n, &arcs, &freqs));
    let new_t1_ns = fastest(reps, || {
        time_setup_new(n, &arcs, &freqs, Parallelism::strict(1))
    });
    let new_t4_ns = fastest(reps, || {
        time_setup_new(n, &arcs, &freqs, Parallelism::strict(4))
    });
    let new_t8_ns = fastest(reps, || {
        time_setup_new(n, &arcs, &freqs, Parallelism::strict(8))
    });
    eprintln!(
        "[setup] serial {:.2}s, new t1 {:.2}s, t4 {:.2}s, t8 {:.2}s (speedup t8 {:.2}x)",
        serial_ns / 1e9,
        new_t1_ns / 1e9,
        new_t4_ns / 1e9,
        new_t8_ns / 1e9,
        serial_ns / new_t8_ns
    );
    emit("nodes", n);
    emit("arcs", arcs.len());
    emit("serial_ns", format!("{serial_ns:.0}"));
    emit("new_t1_ns", format!("{new_t1_ns:.0}"));
    emit("new_t4_ns", format!("{new_t4_ns:.0}"));
    emit("new_t8_ns", format!("{new_t8_ns:.0}"));
}

// ───────────────────────── logreg phase ──────────────────────────────

/// The pre-ISSUE-8 shipped eval path, reproduced verbatim: one
/// `predict` per row — a fresh `Vec` per call, one [`kernels::dot`]
/// per class, full row-max softmax, then argmax over the probabilities.
/// This is exactly what `ClassifyProtocol` ran over the test side
/// before the batched rewrite.
fn logreg_eval_scalar(x: &[f32], w: &[f32], b: &[f32], dim: usize, preds: &mut [u32]) {
    let classes = b.len();
    for (r, row) in x.chunks_exact(dim).enumerate() {
        let mut probs = vec![0.0f32; classes];
        let mut mx = f32::NEG_INFINITY;
        for c in 0..classes {
            let z = b[c] + kernels::dot(&w[c * dim..(c + 1) * dim], row);
            probs[c] = z;
            mx = mx.max(z);
        }
        let mut sum = 0.0f32;
        for p in probs.iter_mut() {
            *p = (*p - mx).exp();
            sum += *p;
        }
        let inv = 1.0 / sum;
        for p in probs.iter_mut() {
            *p *= inv;
        }
        preds[r] = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i as u32)
            .unwrap();
    }
}

fn run_logreg_phase(dev: bool) {
    let (rows, eval_reps, fit_iters) = if dev { (1_024, 3, 5) } else { (16_384, 5, 60) };
    const DIM: usize = 128;
    const CLASSES: usize = 8;
    let mut rng = Rng::seed_from_u64(SEED);
    let x: Vec<f32> = (0..rows * DIM)
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    let y: Vec<u32> = (0..rows)
        .map(|_| rng.random_range(0..CLASSES as u32))
        .collect();
    let refs: Vec<&[f32]> = x.chunks_exact(DIM).collect();

    // Train once (GEMM path) to get a realistic W/b for the eval rows.
    let cfg = transn_eval::LogRegConfig {
        iterations: fit_iters,
        seed: SEED,
        ..Default::default()
    };
    let model = LogisticRegression::fit(&refs, &y, CLASSES, &cfg);
    let (w, b) = (model.weights().to_vec(), model.biases().to_vec());

    let mut scalar_preds = vec![0u32; rows];
    let scalar_ns = fastest(eval_reps, || {
        let t = Instant::now();
        logreg_eval_scalar(&x, &w, &b, DIM, &mut scalar_preds);
        t.elapsed().as_nanos() as f64
    });
    let mut gemm_preds = Vec::new();
    let gemm_ns = fastest(eval_reps, || {
        let t = Instant::now();
        gemm_preds = model.predict_batch(&refs);
        t.elapsed().as_nanos() as f64
    });
    // Same argmax: the batched path skips the softmax, which is strictly
    // increasing and cannot change the winning class. (Tolerance of one
    // row in 10k covers exp rounding collapsing a near-tie at the top.)
    let disagree = scalar_preds
        .iter()
        .zip(&gemm_preds)
        .filter(|(a, b)| a != b)
        .count();
    assert!(
        disagree * 10_000 <= rows,
        "scalar and batched eval disagree on {disagree}/{rows} rows"
    );

    // Fit comparison: the pre-ISSUE-8 per-sample loop vs the minibatched
    // GEMM path, same data and hyper-parameters.
    let fit_scalar_ns = fastest(1, || {
        let t = Instant::now();
        std::hint::black_box(LogisticRegression::fit_scalar(&refs, &y, CLASSES, &cfg));
        t.elapsed().as_nanos() as f64
    });
    let fit_gemm_ns = fastest(1, || {
        let t = Instant::now();
        std::hint::black_box(LogisticRegression::fit(&refs, &y, CLASSES, &cfg));
        t.elapsed().as_nanos() as f64
    });

    eprintln!(
        "[logreg] eval scalar {:.1}ms, gemm {:.1}ms ({:.2}x); fit scalar {:.2}s, gemm {:.2}s ({:.2}x)",
        scalar_ns / 1e6,
        gemm_ns / 1e6,
        scalar_ns / gemm_ns,
        fit_scalar_ns / 1e9,
        fit_gemm_ns / 1e9,
        fit_scalar_ns / fit_gemm_ns,
    );
    emit("rows", rows);
    emit("dim", DIM);
    emit("classes", CLASSES);
    emit("eval_scalar_ns", format!("{scalar_ns:.0}"));
    emit("eval_gemm_ns", format!("{gemm_ns:.0}"));
    emit("fit_scalar_ns", format!("{fit_scalar_ns:.0}"));
    emit("fit_gemm_ns", format!("{fit_gemm_ns:.0}"));
}

// ───────────────────────── pipeline phases ───────────────────────────

/// Full generate → train → eval pipeline on a commerce tier.
fn run_commerce_pipeline(cfg: &CommerceConfig) {
    let t = Instant::now();
    let ds = commerce_like(cfg, SEED);
    let generate_ns = t.elapsed().as_nanos() as f64;
    eprintln!(
        "[pipeline] generated {} nodes / {} edges in {:.1}s",
        ds.net.num_nodes(),
        ds.net.num_edges(),
        generate_ns / 1e9
    );

    let par = Parallelism::strict(8);
    let tcfg = TransNConfig {
        dim: 32,
        iterations: 1,
        walk: WalkConfig {
            length: 8,
            min_walks_per_node: 1,
            max_walks_per_node: 2,
            seed: SEED,
            threads: 8,
        },
        cross_len: 4,
        cross_paths: 50,
        encoders: 1,
        parallelism: par,
        episode: EpisodeConfig {
            episode_walks: 32_768,
            episodes_in_flight: 2,
        },
        ..TransNConfig::default()
    };
    let t = Instant::now();
    let emb = TransN::new(&ds.net, tcfg).train();
    let train_ns = t.elapsed().as_nanos() as f64;
    eprintln!("[pipeline] trained in {:.1}s", train_ns / 1e9);

    let mut protocol = ClassifyProtocol {
        repeats: 1,
        ..ClassifyProtocol::default()
    };
    protocol.logreg.par = par;
    protocol.logreg.iterations = 200;
    let t = Instant::now();
    let f = classification_scores(&emb, &ds.labels, &protocol);
    let eval_ns = t.elapsed().as_nanos() as f64;
    eprintln!(
        "[pipeline] eval macro-F1 {:.4} micro-F1 {:.4} in {:.1}s",
        f.macro_f1,
        f.micro_f1,
        eval_ns / 1e9
    );
    assert!(
        f.macro_f1.is_finite() && f.micro_f1 > 0.0,
        "degenerate eval"
    );
    emit("nodes", ds.net.num_nodes());
    emit("edges", ds.net.num_edges());
    emit("generate_ns", format!("{generate_ns:.0}"));
    emit("train_ns", format!("{train_ns:.0}"));
    emit("eval_ns", format!("{eval_ns:.0}"));
    emit("macro_f1", format!("{:.4}", f.macro_f1));
    emit("micro_f1", format!("{:.4}", f.micro_f1));
}

/// The PR 7 reference workload: one episodic double-buffered training
/// epoch over the BLOG UK view. The schedule's exact-frequency pre-pass
/// keeps one episode arena resident beside the two in flight, and
/// generates every walk twice. Its peak RSS is the envelope the
/// million-node pipeline is held to.
fn run_blog_reference(blog: &BlogConfig, episode_walks: usize) {
    let t = Instant::now();
    let ds = blog_like(blog, 5);
    let views = ds.net.views();
    let uk = &views[1];
    let generate_ns = t.elapsed().as_nanos() as f64;
    eprintln!(
        "[pr7ref] generated {} nodes ({} UK) in {:.1}s",
        ds.net.num_nodes(),
        uk.num_nodes(),
        generate_ns / 1e9
    );

    let walk_cfg = WalkConfig {
        length: 40,
        min_walks_per_node: 2,
        max_walks_per_node: 4,
        seed: 17,
        threads: 1,
    };
    let walker = CorrelatedWalker::new(uk, walk_cfg);
    let tasks = walker.degree_tasks();
    let num_nodes = uk.num_nodes();
    let mut rng = Rng::seed_from_u64(3);
    let mut model = SgnsModel::new(num_nodes, 32, &mut rng);
    let cfg = SgnsConfig {
        dim: 32,
        negatives: 2,
        lr0: 0.025,
        min_lr_frac: 1e-3,
        window: 2,
        seed: 29,
        parallelism: Parallelism::single(),
        episode: EpisodeConfig {
            episode_walks,
            episodes_in_flight: 2,
        },
    };
    let mut state = EpisodicState::new(2);
    let t = Instant::now();
    let loss = train_epoch_episodic(
        &mut model,
        num_nodes,
        tasks.len(),
        |i| tasks[i].1,
        |range, arena| walker.generate_task_range_into(&tasks, range, arena),
        &cfg,
        &mut state,
    );
    let train_ns = t.elapsed().as_nanos() as f64;
    assert!(loss.is_finite(), "non-finite training loss");
    eprintln!(
        "[pr7ref] trained in {:.1}s (loss {loss:.4})",
        train_ns / 1e9
    );
    emit("nodes", ds.net.num_nodes());
    emit("generate_ns", format!("{generate_ns:.0}"));
    emit("train_ns", format!("{train_ns:.0}"));
}

// ───────────────────────── orchestration ─────────────────────────────

fn run_phase(phase: &str, dev: bool) {
    let reps = if dev { DEV_REPS } else { 1 };
    match phase {
        "setup-40k" => {
            let cfg = if dev {
                CommerceConfig {
                    users: 3_000,
                    items: 1_200,
                    categories: 40,
                    brands: 80,
                    ..CommerceConfig::dev()
                }
            } else {
                CommerceConfig::dev()
            };
            run_setup_phase(&commerce_like(&cfg, SEED), reps.max(3));
        }
        "setup-400k" => {
            let blog = if dev {
                BlogConfig {
                    users: 4_000,
                    keywords: 400,
                    keywords_per_user: 8.0,
                    uk_max_uses: 8,
                    ..BlogConfig::tiny()
                }
            } else {
                BlogConfig::pipeline_scale()
            };
            run_setup_phase(&blog_like(&blog, 5), reps.max(2));
        }
        "setup-4m" => {
            let cfg = if dev {
                CommerceConfig::dev()
            } else {
                CommerceConfig::xl()
            };
            run_setup_phase(&commerce_like(&cfg, SEED), reps);
        }
        "logreg" => run_logreg_phase(dev),
        "pipeline-40k" => {
            let cfg = if dev {
                CommerceConfig::tiny()
            } else {
                CommerceConfig::dev()
            };
            run_commerce_pipeline(&cfg);
        }
        "pipeline-400k" => {
            if dev {
                run_blog_reference(
                    &BlogConfig {
                        users: 4_000,
                        keywords: 400,
                        keywords_per_user: 8.0,
                        uk_max_uses: 8,
                        ..BlogConfig::tiny()
                    },
                    1_024,
                );
            } else {
                run_blog_reference(&BlogConfig::pipeline_scale(), 32_768);
            }
        }
        "pipeline-1m" => {
            let cfg = if dev {
                CommerceConfig::dev()
            } else {
                CommerceConfig::million()
            };
            run_commerce_pipeline(&cfg);
        }
        other => {
            eprintln!("unknown phase {other:?}");
            std::process::exit(2);
        }
    }
    emit("vm_hwm_bytes", vm_hwm_bytes());
}

/// Spawn `--phase name` as a child and parse its `key=value` stdout.
fn spawn_phase(name: &str, dev: bool) -> Vec<(String, String)> {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.arg("--phase").arg(name);
    if dev {
        cmd.arg("--dev");
    }
    let t = Instant::now();
    eprintln!("── phase {name} ──");
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("spawn phase {name}: {e}"));
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "phase {name} failed: {}", out.status);
    eprintln!("── phase {name} done in {:.1?} ──", t.elapsed());
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| {
            l.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

fn get<'a>(kv: &'a [(String, String)], key: &str) -> &'a str {
    kv.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("phase output missing {key:?}"))
}

fn getf(kv: &[(String, String)], key: &str) -> f64 {
    get(kv, key)
        .parse()
        .unwrap_or_else(|_| panic!("bad {key:?}"))
}

fn setup_json(kv: &[(String, String)]) -> String {
    let serial = getf(kv, "serial_ns");
    let t4 = getf(kv, "new_t4_ns");
    let t8 = getf(kv, "new_t8_ns");
    format!(
        "{{\"nodes\": {}, \"arcs\": {}, \"serial_ns\": {}, \"new_t1_ns\": {}, \
         \"new_t4_ns\": {}, \"new_t8_ns\": {}, \"speedup_t4\": {:.3}, \
         \"speedup_t8\": {:.3}, \"peak_rss_bytes\": {}}}",
        get(kv, "nodes"),
        get(kv, "arcs"),
        get(kv, "serial_ns"),
        get(kv, "new_t1_ns"),
        get(kv, "new_t4_ns"),
        get(kv, "new_t8_ns"),
        serial / t4,
        serial / t8,
        get(kv, "vm_hwm_bytes"),
    )
}

fn pipeline_json(kv: &[(String, String)]) -> String {
    format!(
        "{{\"nodes\": {}, \"edges\": {}, \"generate_ns\": {}, \"train_ns\": {}, \
         \"eval_ns\": {}, \"macro_f1\": {}, \"micro_f1\": {}, \"peak_rss_bytes\": {}}}",
        get(kv, "nodes"),
        get(kv, "edges"),
        get(kv, "generate_ns"),
        get(kv, "train_ns"),
        get(kv, "eval_ns"),
        get(kv, "macro_f1"),
        get(kv, "micro_f1"),
        get(kv, "vm_hwm_bytes"),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dev = args.iter().any(|a| a == "--dev");
    if let Some(i) = args.iter().position(|a| a == "--phase") {
        let phase = args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--phase requires a value");
            std::process::exit(2);
        });
        run_phase(&phase, dev);
        return;
    }
    let out = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_scale.json".into());

    let t0 = Instant::now();
    let s40 = spawn_phase("setup-40k", dev);
    let s400 = spawn_phase("setup-400k", dev);
    let s4m = spawn_phase("setup-4m", dev);
    let lr = spawn_phase("logreg", dev);
    let p40 = spawn_phase("pipeline-40k", dev);
    let p400 = spawn_phase("pipeline-400k", dev);
    let p1m = spawn_phase("pipeline-1m", dev);

    let setup_speedup = getf(&s400, "serial_ns") / getf(&s400, "new_t8_ns");
    let eval_speedup = getf(&lr, "eval_scalar_ns") / getf(&lr, "eval_gemm_ns");
    let envelope = 2.0 * getf(&p400, "vm_hwm_bytes");
    let rss_ratio = getf(&p1m, "vm_hwm_bytes") / getf(&p400, "vm_hwm_bytes");
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "acceptance: setup speedup {setup_speedup:.2}x (target 4), \
         logreg eval speedup {eval_speedup:.2}x (target 3), \
         1M-node RSS ratio {rss_ratio:.2}x of PR7 envelope (target <= 2), cpus {cpus}"
    );

    let json = format!(
        "{{\n  \"schema\": \"transn-bench-scale-v1\",\n  \
         \"dev\": {dev}, \"cpus\": {cpus},\n  \
         \"setup\": {{\n    \"tier_40k\": {},\n    \"tier_400k\": {},\n    \"tier_4m\": {}\n  }},\n  \
         \"logreg\": {{\"rows\": {}, \"dim\": {}, \"classes\": {}, \
         \"eval_scalar_ns\": {}, \"eval_gemm_ns\": {}, \"eval_speedup\": {:.3}, \
         \"fit_scalar_ns\": {}, \"fit_gemm_ns\": {}, \"fit_speedup\": {:.3}, \"peak_rss_bytes\": {}}},\n  \
         \"pipeline\": {{\n    \"tier_40k\": {},\n    \
         \"tier_400k_pr7_reference\": {{\"nodes\": {}, \"generate_ns\": {}, \"train_ns\": {}, \"peak_rss_bytes\": {}}},\n    \
         \"tier_1m\": {}\n  }},\n  \
         \"acceptance\": {{\n    \
         \"setup_speedup_400k\": {setup_speedup:.3}, \"setup_speedup_target\": 4.0, \"setup_speedup_pass\": {},\n    \
         \"setup_speedup_note\": \"serial vs strict(8) on {cpus} hardware thread(s); the 4x target presumes >= 8 hardware threads, so on fewer cpus only the algorithmic gap (counting-sort CSR, scratch-reusing alias batch) is visible\",\n    \
         \"logreg_eval_speedup\": {eval_speedup:.3}, \"logreg_eval_target\": 3.0, \"logreg_eval_pass\": {},\n    \
         \"rss_envelope_bytes\": {envelope:.0}, \"rss_ratio_vs_pr7\": {rss_ratio:.3}, \
         \"rss_target\": 2.0, \"rss_pass\": {}\n  }}\n}}\n",
        setup_json(&s40),
        setup_json(&s400),
        setup_json(&s4m),
        get(&lr, "rows"),
        get(&lr, "dim"),
        get(&lr, "classes"),
        get(&lr, "eval_scalar_ns"),
        get(&lr, "eval_gemm_ns"),
        eval_speedup,
        get(&lr, "fit_scalar_ns"),
        get(&lr, "fit_gemm_ns"),
        getf(&lr, "fit_scalar_ns") / getf(&lr, "fit_gemm_ns"),
        get(&lr, "vm_hwm_bytes"),
        pipeline_json(&p40),
        get(&p400, "nodes"),
        get(&p400, "generate_ns"),
        get(&p400, "train_ns"),
        get(&p400, "vm_hwm_bytes"),
        pipeline_json(&p1m),
        setup_speedup >= 4.0,
        eval_speedup >= 3.0,
        rss_ratio <= 2.0,
    );
    std::fs::write(&out, &json).expect("write BENCH_scale.json");
    eprintln!("wrote {out} in {:.1?}", t0.elapsed());
}
