//! Unified experiment matrix: one run over {method × dataset × scale ×
//! threads}, emitting a single comparable report.
//!
//! `expt matrix` parses its flags with [`parse_args`], which validates
//! every axis value *before* any dataset generation or file I/O — a typo
//! fails in milliseconds with exit code 2 and a usage hint, never after
//! minutes of embedding. [`run`] then executes the cross product and
//! returns a [`MatrixReport`]; the `expt` binary renders it and writes
//! `target/expt/matrix.json`.
//!
//! The thread axis is threaded into TransN's sharded trainer and walk
//! generation, the logistic-regression evaluator, and link-prediction
//! scoring. Under the default `strict` determinism policy every cell's
//! embedding must be byte-identical across the whole thread axis; the
//! runner checks this itself via an FNV-1a digest of the embedding bytes
//! and records the verdict in [`MatrixReport::strict_digests_consistent`].

use crate::harness::{default_methods, ExperimentScale, MethodSpec};
use crate::json::json_object;
use std::time::Instant;
use transn::Variant;
use transn_eval::{
    auc_for_embeddings_with, classification_scores, ClassifyProtocol, LinkPredSplit,
};
use transn_graph::{Determinism, Fnv1a64, NodeEmbeddings, Parallelism};
use transn_synth::{
    aminer_like, app_like, blog_like, commerce_like, AminerConfig, AppConfig, BlogConfig,
    CommerceConfig, Dataset,
};

/// Usage text for `expt matrix`, shown on every flag error.
pub const USAGE: &str = "usage: expt matrix [flags]\n\
  --methods   comma list of: line node2vec metapath2vec hin2vec mve rgcn simple transn all\n\
              (default: transn)\n\
  --datasets  comma list of: aminer blog app-daily app-weekly commerce (default: aminer)\n\
  --scales    comma list of: smoke full (default: smoke)\n\
  --threads   comma list of positive thread counts (default: 1)\n\
  --tasks     comma list of: cls lp (default: cls,lp)\n\
  --determinism  strict | hogwild (default: strict)\n\
  --seed      embedding seed (default: 7)";

/// One dataset axis value (generator + scale-dependent preset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKey {
    /// AMiner analogue (Table II row 1).
    Aminer,
    /// BLOG analogue.
    Blog,
    /// App-Daily analogue.
    AppDaily,
    /// App-Weekly analogue.
    AppWeekly,
    /// Commerce/recommendation scenario (4 node types; ISSUE 8).
    Commerce,
}

impl DatasetKey {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "aminer" => Ok(DatasetKey::Aminer),
            "blog" => Ok(DatasetKey::Blog),
            "app-daily" => Ok(DatasetKey::AppDaily),
            "app-weekly" => Ok(DatasetKey::AppWeekly),
            "commerce" => Ok(DatasetKey::Commerce),
            other => Err(format!(
                "--datasets: unknown dataset {other:?} (expected aminer, blog, app-daily, \
                 app-weekly, or commerce)"
            )),
        }
    }

    /// Stable axis name used in the report.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKey::Aminer => "aminer",
            DatasetKey::Blog => "blog",
            DatasetKey::AppDaily => "app-daily",
            DatasetKey::AppWeekly => "app-weekly",
            DatasetKey::Commerce => "commerce",
        }
    }

    /// Build the dataset at the given scale (`Smoke` → tiny presets,
    /// `Full` → the DESIGN.md §3 experiment presets; commerce uses its
    /// 40k-node `dev` tier at full scale).
    pub fn build(&self, scale: ExperimentScale, seed: u64) -> Dataset {
        let smoke = scale == ExperimentScale::Smoke;
        match self {
            DatasetKey::Aminer => {
                let cfg = if smoke {
                    AminerConfig::tiny()
                } else {
                    AminerConfig::full()
                };
                aminer_like(&cfg, seed)
            }
            DatasetKey::Blog => {
                let cfg = if smoke {
                    BlogConfig::tiny()
                } else {
                    BlogConfig::full()
                };
                blog_like(&cfg, seed ^ 0xB10C)
            }
            DatasetKey::AppDaily => {
                let cfg = if smoke {
                    AppConfig::daily_tiny()
                } else {
                    AppConfig::daily()
                };
                app_like(&cfg, seed ^ 0xDA11)
            }
            DatasetKey::AppWeekly => {
                let cfg = if smoke {
                    AppConfig::weekly_tiny()
                } else {
                    AppConfig::weekly()
                };
                app_like(&cfg, seed ^ 0x3EE7)
            }
            DatasetKey::Commerce => {
                let cfg = if smoke {
                    CommerceConfig::tiny()
                } else {
                    CommerceConfig::dev()
                };
                commerce_like(&cfg, seed ^ 0xC0DE)
            }
        }
    }
}

/// One evaluation task axis value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKey {
    /// Node classification (macro/micro-F1, §IV-B1 protocol).
    Classify,
    /// Link prediction (AUC, §IV-B2 protocol).
    LinkPred,
}

impl TaskKey {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "cls" | "classify" => Ok(TaskKey::Classify),
            "lp" | "linkpred" => Ok(TaskKey::LinkPred),
            other => Err(format!(
                "--tasks: unknown task {other:?} (expected cls or lp)"
            )),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            TaskKey::Classify => "cls",
            TaskKey::LinkPred => "lp",
        }
    }
}

/// Parsed, validated matrix configuration.
#[derive(Clone, Debug)]
pub struct MatrixConfig {
    /// Method axis.
    pub methods: Vec<MethodSpec>,
    /// Dataset axis.
    pub datasets: Vec<DatasetKey>,
    /// Scale axis.
    pub scales: Vec<ExperimentScale>,
    /// Thread axis (each entry ≥ 1).
    pub threads: Vec<usize>,
    /// Task axis.
    pub tasks: Vec<TaskKey>,
    /// Update-application policy for every cell.
    pub determinism: Determinism,
    /// Embedding seed shared by every cell.
    pub seed: u64,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            methods: vec![MethodSpec::TransN(Variant::Full)],
            datasets: vec![DatasetKey::Aminer],
            scales: vec![ExperimentScale::Smoke],
            threads: vec![1],
            tasks: vec![TaskKey::Classify, TaskKey::LinkPred],
            determinism: Determinism::Strict,
            seed: 7,
        }
    }
}

fn parse_method(s: &str) -> Result<Vec<MethodSpec>, String> {
    Ok(vec![match s {
        "line" => MethodSpec::Line,
        "node2vec" => MethodSpec::Node2Vec,
        "metapath2vec" => MethodSpec::Metapath2Vec,
        "hin2vec" => MethodSpec::Hin2Vec,
        "mve" => MethodSpec::Mve,
        "rgcn" | "r-gcn" => MethodSpec::Rgcn,
        "simple" => MethodSpec::SimplE,
        "transn" => MethodSpec::TransN(Variant::Full),
        "all" => return Ok(default_methods()),
        other => {
            return Err(format!(
                "--methods: unknown method {other:?} (expected line, node2vec, metapath2vec, \
                 hin2vec, mve, rgcn, simple, transn, or all)"
            ))
        }
    }])
}

fn parse_scale(s: &str) -> Result<ExperimentScale, String> {
    match s {
        "smoke" => Ok(ExperimentScale::Smoke),
        "full" => Ok(ExperimentScale::Full),
        other => Err(format!(
            "--scales: unknown scale {other:?} (expected smoke or full)"
        )),
    }
}

fn parse_list<T>(
    value: &str,
    flag: &str,
    one: impl FnMut(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items: Vec<&str> = value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if items.is_empty() {
        return Err(format!("{flag} requires a non-empty comma-separated list"));
    }
    items.into_iter().map(one).collect()
}

/// Parse and validate `expt matrix` flags. Pure: performs no I/O, so any
/// error is reported before a single dataset row is generated.
pub fn parse_args(args: &[String]) -> Result<MatrixConfig, String> {
    let mut cfg = MatrixConfig::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).ok_or_else(|| {
            if flag.starts_with("--") {
                format!("{flag} requires a value")
            } else {
                format!("unexpected argument {flag:?}")
            }
        });
        match flag {
            "--methods" => {
                let mut methods = Vec::new();
                for group in parse_list(value?, "--methods", parse_method)? {
                    methods.extend(group);
                }
                cfg.methods = methods;
            }
            "--datasets" => cfg.datasets = parse_list(value?, "--datasets", DatasetKey::parse)?,
            "--scales" => cfg.scales = parse_list(value?, "--scales", parse_scale)?,
            "--threads" => {
                cfg.threads = parse_list(value?, "--threads", |s| match s.parse::<usize>() {
                    Ok(t) if t >= 1 => Ok(t),
                    _ => Err(format!("--threads values must be integers >= 1, got {s:?}")),
                })?
            }
            "--tasks" => cfg.tasks = parse_list(value?, "--tasks", TaskKey::parse)?,
            "--determinism" => {
                cfg.determinism = match value?.as_str() {
                    "strict" => Determinism::Strict,
                    "hogwild" => Determinism::Hogwild,
                    other => {
                        return Err(format!(
                            "--determinism: expected strict or hogwild, got {other:?}"
                        ))
                    }
                }
            }
            "--seed" => {
                cfg.seed = value?
                    .parse()
                    .map_err(|_| format!("--seed requires an integer, got {:?}", args[i + 1]))?
            }
            other => {
                return Err(if other.starts_with("--") {
                    format!("unknown flag {other:?}")
                } else {
                    format!("unexpected argument {other:?}")
                })
            }
        }
        i += 2;
    }
    Ok(cfg)
}

/// One matrix cell result.
#[derive(Clone, Debug)]
pub struct MatrixRow {
    /// Method name (paper row label).
    pub method: String,
    /// Dataset axis name.
    pub dataset: &'static str,
    /// "smoke" or "full".
    pub scale: &'static str,
    /// Configured thread count.
    pub threads: usize,
    /// "cls" or "lp".
    pub task: &'static str,
    /// Metric name for `score` ("macro-F1" or "AUC").
    pub metric: &'static str,
    /// Primary score (macro-F1 for cls, AUC for lp).
    pub score: f64,
    /// Micro-F1 (cls rows only).
    pub micro_f1: Option<f64>,
    /// Wall-clock seconds spent embedding.
    pub embed_secs: f64,
    /// Wall-clock seconds spent evaluating.
    pub eval_secs: f64,
    /// FNV-1a 64-bit digest of the embedding bytes (hex).
    pub emb_digest: String,
}

json_object!(MatrixRow {
    method,
    dataset,
    scale,
    threads,
    task,
    metric,
    score,
    micro_f1,
    embed_secs,
    eval_secs,
    emb_digest
});

/// The whole matrix run: one comparable report.
#[derive(Clone, Debug)]
pub struct MatrixReport {
    /// Artifact schema tag.
    pub schema: &'static str,
    /// "strict" or "hogwild".
    pub determinism: &'static str,
    /// Embedding seed shared by every cell.
    pub seed: u64,
    /// Host threads actually available (thread counts above this are
    /// oversubscribed, not parallel).
    pub cpus: usize,
    /// Under strict determinism: did every (method, dataset, scale, task)
    /// group produce byte-identical embeddings across the thread axis?
    pub strict_digests_consistent: bool,
    /// One row per matrix cell, in axis-nesting order
    /// dataset → scale → method → task → threads.
    pub rows: Vec<MatrixRow>,
}

json_object!(MatrixReport {
    schema,
    determinism,
    seed,
    cpus,
    strict_digests_consistent,
    rows
});

/// FNV-1a64 over the table's little-endian f32 bytes.
fn table_digest(data: &[f32]) -> u64 {
    let mut h = Fnv1a64::new();
    for v in data {
        h.update(&v.to_le_bytes());
    }
    h.finish()
}

fn scale_name(scale: ExperimentScale) -> &'static str {
    match scale {
        ExperimentScale::Smoke => "smoke",
        ExperimentScale::Full => "full",
    }
}

/// Execute the matrix. Prints per-cell progress to stderr; performs no
/// file I/O (the caller persists the report).
pub fn run(cfg: &MatrixConfig) -> MatrixReport {
    let par_of = |threads: usize| match cfg.determinism {
        Determinism::Strict => Parallelism::strict(threads),
        Determinism::Hogwild => Parallelism::hogwild(threads),
    };
    let strict = cfg.determinism == Determinism::Strict;
    let mut rows = Vec::new();
    let mut consistent = true;

    for &dk in &cfg.datasets {
        for &scale in &cfg.scales {
            let ds = dk.build(scale, cfg.seed);
            let split = cfg
                .tasks
                .contains(&TaskKey::LinkPred)
                .then(|| LinkPredSplit::new(&ds.net, 0.4, cfg.seed ^ 99));
            for m in &cfg.methods {
                for &task in &cfg.tasks {
                    let mut group_digest: Option<u64> = None;
                    for &threads in &cfg.threads {
                        let par = par_of(threads);
                        let train_net = match task {
                            TaskKey::Classify => &ds.net,
                            TaskKey::LinkPred => &split.as_ref().expect("lp split").train_net,
                        };
                        let t0 = Instant::now();
                        let emb: NodeEmbeddings =
                            m.embed_with(&ds, train_net, scale, cfg.seed, par);
                        let embed_secs = t0.elapsed().as_secs_f64();
                        let digest = table_digest(emb.data());
                        if strict {
                            match group_digest {
                                None => group_digest = Some(digest),
                                Some(d) if d != digest => consistent = false,
                                Some(_) => {}
                            }
                        }
                        let t1 = Instant::now();
                        let (metric, score, micro) = match task {
                            TaskKey::Classify => {
                                let mut protocol = ClassifyProtocol {
                                    repeats: if scale == ExperimentScale::Smoke {
                                        2
                                    } else {
                                        5
                                    },
                                    ..ClassifyProtocol::default()
                                };
                                protocol.logreg.par = par;
                                let f = classification_scores(&emb, &ds.labels, &protocol);
                                ("macro-F1", f.macro_f1, Some(f.micro_f1))
                            }
                            TaskKey::LinkPred => {
                                let auc = auc_for_embeddings_with(
                                    split.as_ref().expect("lp split"),
                                    &emb,
                                    par,
                                );
                                ("AUC", auc, None)
                            }
                        };
                        let eval_secs = t1.elapsed().as_secs_f64();
                        eprintln!(
                            "[matrix] {:<14} {:<10} {:<5} t={threads:<2} {:<3} {metric} {score:.4} \
                             (embed {embed_secs:.1}s, eval {eval_secs:.1}s)",
                            m.name(),
                            dk.name(),
                            scale_name(scale),
                            task.name(),
                        );
                        rows.push(MatrixRow {
                            method: m.name().to_string(),
                            dataset: dk.name(),
                            scale: scale_name(scale),
                            threads,
                            task: task.name(),
                            metric,
                            score,
                            micro_f1: micro,
                            embed_secs,
                            eval_secs,
                            emb_digest: format!("{digest:016x}"),
                        });
                    }
                }
            }
        }
    }

    MatrixReport {
        schema: "transn-expt-matrix-v1",
        determinism: if strict { "strict" } else { "hogwild" },
        seed: cfg.seed,
        cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        strict_digests_consistent: consistent,
        rows,
    }
}

/// Render the report as an aligned text table.
pub fn render(report: &MatrixReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== experiment matrix ({} cells, determinism {}) ==",
        report.rows.len(),
        report.determinism
    );
    let _ = writeln!(
        out,
        "{:<14} {:<10} {:<6} {:>7} {:<4} {:>8} {:>8} {:>10} {:>9}",
        "method", "dataset", "scale", "threads", "task", "metric", "score", "embed(s)", "eval(s)"
    );
    for r in &report.rows {
        let _ = writeln!(
            out,
            "{:<14} {:<10} {:<6} {:>7} {:<4} {:>8} {:>8.4} {:>10.2} {:>9.2}",
            r.method,
            r.dataset,
            r.scale,
            r.threads,
            r.task,
            r.metric,
            r.score,
            r.embed_secs,
            r.eval_secs
        );
    }
    if report.determinism == "strict" {
        let _ = writeln!(
            out,
            "strict thread-axis digests consistent: {}",
            report.strict_digests_consistent
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn defaults_parse_from_empty_args() {
        let cfg = parse_args(&[]).unwrap();
        assert_eq!(cfg.datasets, vec![DatasetKey::Aminer]);
        assert_eq!(cfg.threads, vec![1]);
        assert_eq!(cfg.determinism, Determinism::Strict);
        assert_eq!(cfg.methods.len(), 1);
    }

    #[test]
    fn full_flag_set_parses() {
        let cfg = parse_args(&argv(&[
            "--methods",
            "line,transn",
            "--datasets",
            "blog,commerce",
            "--scales",
            "smoke,full",
            "--threads",
            "1,2,8",
            "--tasks",
            "cls",
            "--determinism",
            "hogwild",
            "--seed",
            "11",
        ]))
        .unwrap();
        assert_eq!(cfg.methods.len(), 2);
        assert_eq!(cfg.datasets, vec![DatasetKey::Blog, DatasetKey::Commerce]);
        assert_eq!(cfg.scales.len(), 2);
        assert_eq!(cfg.threads, vec![1, 2, 8]);
        assert_eq!(cfg.tasks, vec![TaskKey::Classify]);
        assert_eq!(cfg.determinism, Determinism::Hogwild);
        assert_eq!(cfg.seed, 11);
    }

    #[test]
    fn methods_all_expands_to_the_paper_rows() {
        let cfg = parse_args(&argv(&["--methods", "all"])).unwrap();
        assert_eq!(cfg.methods.len(), default_methods().len());
    }

    #[test]
    fn invalid_axis_values_are_rejected_with_the_flag_name() {
        for (args, needle) in [
            (vec!["--methods", "bogus"], "--methods"),
            (vec!["--datasets", "imdb"], "--datasets"),
            (vec!["--scales", "huge"], "--scales"),
            (vec!["--threads", "0"], "--threads"),
            (vec!["--threads", "two"], "--threads"),
            (vec!["--tasks", "regression"], "--tasks"),
            (vec!["--determinism", "racy"], "--determinism"),
            (vec!["--methods"], "requires a value"),
            (vec!["--frobnicate", "1"], "unknown flag"),
            (vec!["matrix"], "unexpected argument"),
        ] {
            let err = parse_args(&argv(&args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn tiny_matrix_runs_and_reports_consistent_digests() {
        let cfg = MatrixConfig {
            methods: vec![MethodSpec::Line],
            datasets: vec![DatasetKey::Commerce],
            scales: vec![ExperimentScale::Smoke],
            threads: vec![1, 2],
            tasks: vec![TaskKey::Classify],
            determinism: Determinism::Strict,
            seed: 3,
        };
        let report = run(&cfg);
        assert_eq!(report.rows.len(), 2);
        assert!(report.strict_digests_consistent);
        assert_eq!(report.rows[0].emb_digest, report.rows[1].emb_digest);
        for r in &report.rows {
            assert!((0.0..=1.0).contains(&r.score), "{}", r.score);
        }
        let table = render(&report);
        assert!(
            table.contains("LINE") && table.contains("commerce"),
            "{table}"
        );
    }
}
