//! Subcommand implementations.

use crate::args::Args;
use transn::{EpisodeConfig, Parallelism, TrainStats, TransN, TransNConfig, Variant};
use transn_eval::{auc_for_embeddings, classification_scores, ClassifyProtocol, LinkPredSplit};
use transn_graph::io;
use transn_graph::{EdgeTypeId, HetNet, NodeEmbeddings, NodeId};

/// Every subcommand's entry, one `transn <command>` line plus indented
/// continuation lines. It is also the parser's spec: a command accepts
/// exactly the flags its entry lists, and a flag written `[--name]` or
/// `--name)` takes no value (see [`Args::parse`]).
pub const USAGE: &str = "usage:
  transn generate <aminer|blog|app-daily|app-weekly> --out DIR [--seed N] [--tiny]
  transn train --net FILE --out FILE [--dim N] [--iterations N] [--seed N] [--variant NAME]
               [--threads N] [--strict-determinism] [--episode-walks N] [--episodes-in-flight N]
  transn classify --embeddings FILE --labels FILE [--repeats N]
  transn linkpred --net FILE [--dim N] [--remove FRAC] [--seed N] [--threads N]
                  [--strict-determinism] [--episode-walks N] [--episodes-in-flight N]
  transn stats --net FILE [--labels FILE]
  transn neighbors --embeddings FILE --node ID [--top K]
  transn serve-build --embeddings FILE --out FILE [--quant f32|i8]
  transn query --store FILE (--node ID | --all) [--top K] [--metric dot|cosine]
               [--index brute|hnsw|quant] [--rerank-k N] [--threads N]
  transn ingest --net FILE --delta FILE --out FILE [--threads N]
  transn refresh --net FILE --delta FILE --embeddings FILE --out FILE [--out-net FILE]
                 [--iterations N] [--seed N] [--variant NAME] [--threads N]
                 [--strict-determinism] [--episode-walks N] [--episodes-in-flight N]";

/// `command`'s entry in [`USAGE`], if it has one.
fn usage_entry(command: &str) -> Option<&'static str> {
    let head = format!("\n  transn {command} ");
    let start = USAGE.find(&head)? + 1;
    let end = USAGE[start..]
        .find("\n  transn ")
        .map_or(USAGE.len(), |e| start + e);
    Some(USAGE[start..end].trim())
}

/// Dispatch a command line whose first word is the command.
pub fn run(argv: &[String]) -> Result<(), String> {
    let Some(command) = argv.first() else {
        return Err(USAGE.to_string());
    };
    let handler: fn(&Args) -> Result<(), String> = match command.as_str() {
        "generate" => generate,
        "train" => train,
        "classify" => classify,
        "linkpred" => linkpred,
        "stats" => stats,
        "neighbors" => neighbors,
        "serve-build" => serve_build,
        "query" => query,
        "ingest" => ingest,
        "refresh" => refresh_cmd,
        _ => return Err(format!("unknown command {command:?}\n{USAGE}")),
    };
    let usage = usage_entry(command).ok_or_else(|| format!("no usage entry for {command:?}"))?;
    handler(&Args::parse(argv, usage)?)
}

fn generate(args: &Args) -> Result<(), String> {
    let which = args
        .pos(1)
        .ok_or_else(|| format!("missing dataset\n{USAGE}"))?;
    let out = std::path::PathBuf::from(args.require("out")?);
    let seed: u64 = args.get_parse("seed", 42)?;
    let tiny = args.flag("tiny");

    use transn_synth::*;
    let ds = match (which, tiny) {
        ("aminer", false) => aminer_like(&AminerConfig::full(), seed),
        ("aminer", true) => aminer_like(&AminerConfig::tiny(), seed),
        ("blog", false) => blog_like(&BlogConfig::full(), seed),
        ("blog", true) => blog_like(&BlogConfig::tiny(), seed),
        ("app-daily", false) => app_like(&AppConfig::daily(), seed),
        ("app-daily", true) => app_like(&AppConfig::daily_tiny(), seed),
        ("app-weekly", false) => app_like(&AppConfig::weekly(), seed),
        ("app-weekly", true) => app_like(&AppConfig::weekly_tiny(), seed),
        (other, _) => return Err(format!("unknown dataset {other:?}")),
    };
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let net_path = out.join("network.tsv");
    let label_path = out.join("labels.tsv");
    io::save_network(&ds.net, &net_path).map_err(|e| e.to_string())?;
    io::write_labels(
        &ds.labels,
        std::fs::File::create(&label_path).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    println!("{}", ds.stats());
    println!("wrote {} and {}", net_path.display(), label_path.display());
    Ok(())
}

fn parse_variant(name: &str) -> Result<Variant, String> {
    if name.eq_ignore_ascii_case("full") {
        return Ok(Variant::Full);
    }
    Variant::all()
        .into_iter()
        .find(|v| v.label().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let all: Vec<&str> = Variant::all().iter().map(|v| v.label()).collect();
            format!("unknown variant {name:?}; one of \"full\" or {all:?}")
        })
}

/// `--threads N` and `--strict-determinism` → a [`Parallelism`] policy
/// for the skip-gram trainers.
fn parse_parallelism(args: &Args) -> Result<Parallelism, String> {
    let threads: usize = args.get_parse("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(if args.flag("strict-determinism") {
        Parallelism::strict(threads)
    } else {
        Parallelism::hogwild(threads)
    })
}

/// `--episode-walks N` and `--episodes-in-flight N` → the episodic
/// pipeline config (DESIGN.md §13). `--episode-walks 0` (the default)
/// trains each walk epoch as one episode.
fn parse_episode(args: &Args) -> Result<EpisodeConfig, String> {
    let episode = EpisodeConfig {
        episode_walks: args.get_parse("episode-walks", 0)?,
        episodes_in_flight: args.get_parse("episodes-in-flight", 2)?,
    };
    episode
        .validate()
        .map_err(|e| format!("--episodes-in-flight: {e}"))?;
    Ok(episode)
}

fn train(args: &Args) -> Result<(), String> {
    // Validate arguments before touching the filesystem, so a bad flag is
    // reported as itself rather than masked by an I/O error.
    let out = args.require("out")?;
    let mut cfg = TransNConfig {
        dim: args.get_parse("dim", 64)?,
        iterations: args.get_parse("iterations", 5)?,
        parallelism: parse_parallelism(args)?,
        episode: parse_episode(args)?,
        ..TransNConfig::default()
    }
    .with_seed(args.get_parse("seed", 1234u64)?);
    if let Some(v) = args.get("variant") {
        cfg.variant = parse_variant(v)?;
    }
    validate_config(&cfg)?;
    let net = io::load_network(args.require("net")?).map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    let trainer = TransN::new(&net, cfg);
    println!(
        "training on {} nodes / {} edges, {} views, {} view-pairs…",
        net.num_nodes(),
        net.num_edges(),
        trainer.num_views(),
        trainer.num_pairs()
    );
    let pair_views = trainer.pair_views();
    let (emb, stats) = trainer.train_with_stats();
    warn_untrained_directions(&net, &pair_views, &stats, cfg.cross_len);
    emb.write_tsv(std::fs::File::create(out).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    println!(
        "wrote {} embeddings (d = {}) to {out} in {:?}",
        emb.num_nodes(),
        emb.dim(),
        t0.elapsed()
    );
    Ok(())
}

/// Warn once per translator direction that trained no segment in any
/// iteration: none of its paths, filtered to the pair's common nodes,
/// reached `cross_len` nodes, so that direction's translation and
/// reconstruction tasks never ran.
fn warn_untrained_directions(
    net: &HetNet,
    pair_views: &[(usize, usize)],
    stats: &TrainStats,
    cross_len: usize,
) {
    let name = |v: usize| net.schema().edge_type_name(EdgeTypeId(v as u32));
    for (q, &(i, j)) in pair_views.iter().enumerate() {
        for (d, (from, to)) in [(i, j), (j, i)].into_iter().enumerate() {
            let trained: usize = stats.cross_segments.iter().map(|it| it[q][d]).sum();
            if trained == 0 && !stats.cross_segments.is_empty() {
                eprintln!(
                    "warning: translator {} → {} trained no segment in any iteration \
                     (no path filtered to common nodes reached cross_len = {cross_len})",
                    name(from),
                    name(to)
                );
            }
        }
    }
}

/// The library's own config check, as a CLI error rather than the panic
/// `TransN::new` and `refresh` raise on an invalid config.
fn validate_config(cfg: &TransNConfig) -> Result<(), String> {
    cfg.validate()
        .map_err(|e| format!("invalid TransN configuration: {e}"))
}

fn classify(args: &Args) -> Result<(), String> {
    let repeats: usize = args.get_parse("repeats", 10)?;
    if repeats == 0 {
        return Err("--repeats must be at least 1".into());
    }
    let emb = NodeEmbeddings::read_tsv(
        std::fs::File::open(args.require("embeddings")?).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let labels = io::read_labels(
        std::fs::File::open(args.require("labels")?).map_err(|e| e.to_string())?,
        emb.num_nodes(),
    )
    .map_err(|e| e.to_string())?;
    let protocol = ClassifyProtocol {
        repeats,
        ..Default::default()
    };
    let f1 = classification_scores(&emb, &labels, &protocol);
    println!("macro-F1 {:.4}  micro-F1 {:.4}", f1.macro_f1, f1.micro_f1);
    Ok(())
}

fn linkpred(args: &Args) -> Result<(), String> {
    let remove: f64 = args.get_parse("remove", 0.4)?;
    if !(remove > 0.0 && remove < 1.0) {
        return Err(format!("--remove must be in (0, 1), got {remove}"));
    }
    let seed: u64 = args.get_parse("seed", 1234)?;
    let cfg = TransNConfig {
        dim: args.get_parse("dim", 64)?,
        parallelism: parse_parallelism(args)?,
        episode: parse_episode(args)?,
        ..TransNConfig::default()
    }
    .with_seed(seed);
    validate_config(&cfg)?;
    let net = io::load_network(args.require("net")?).map_err(|e| e.to_string())?;
    let split = LinkPredSplit::new(&net, remove, seed);
    let emb = TransN::new(&split.train_net, cfg).train();
    let auc = auc_for_embeddings(&split, &emb);
    println!(
        "link prediction AUC {auc:.4} ({} positives, {} negatives, {:.0}% removed)",
        split.positives.len(),
        split.negatives.len(),
        remove * 100.0
    );
    Ok(())
}

fn stats(args: &Args) -> Result<(), String> {
    let net = io::load_network(args.require("net")?).map_err(|e| e.to_string())?;
    let labels = match args.get("labels") {
        Some(path) => Some(
            io::read_labels(
                std::fs::File::open(path).map_err(|e| e.to_string())?,
                net.num_nodes(),
            )
            .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    let stats = transn_graph::NetworkStats::compute("network", &net, labels.as_ref());
    println!("{stats}");
    let views = net.views();
    for v in &views {
        println!(
            "view {:<12} {:?}: {} nodes, {} edges",
            net.schema().edge_type_name(v.etype()),
            v.kind(),
            v.num_nodes(),
            v.num_edges()
        );
    }
    println!("view-pairs: {}", net.view_pairs(&views).len());
    Ok(())
}

fn neighbors(args: &Args) -> Result<(), String> {
    use transn_serve::{BruteForceIndex, EmbeddingIndex, Metric};

    let emb = NodeEmbeddings::read_tsv(
        std::fs::File::open(args.require("embeddings")?).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let node: u32 = args.get_parse("node", 0)?;
    let top: usize = args.get_parse("top", 10)?;
    if node as usize >= emb.num_nodes() {
        return Err(format!("node {node} out of range (0..{})", emb.num_nodes()));
    }
    // The exact index `query --index brute` ranks with: score descending,
    // then id ascending, a total order even over NaN scores.
    let index = BruteForceIndex::new(&emb, Metric::Cosine);
    println!("nearest neighbours of node {node} (cosine):");
    for n in index.top_k(emb.get(NodeId(node)), top, Some(node)) {
        println!("  {:>8}  {:+.4}", n.id, n.score);
    }
    Ok(())
}

fn serve_build(args: &Args) -> Result<(), String> {
    let quant = args.get("quant").unwrap_or("f32");
    let kind = match quant {
        "f32" => None,
        other => Some(
            transn_serve::QuantKind::parse(other)
                .ok_or_else(|| format!("unknown --quant {other:?}; one of f32, i8\n{USAGE}"))?,
        ),
    };
    let out = args.require("out")?;
    let emb = NodeEmbeddings::read_tsv(
        std::fs::File::open(args.require("embeddings")?).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    match kind {
        None => transn_serve::EmbStore::write_file(&emb, None, out),
        Some(kind) => transn_serve::EmbStore::write_quant_file(&emb, None, kind, out),
    }
    .map_err(|e| e.to_string())?;
    println!(
        "wrote store: {} nodes (d = {}, quant = {quant}) to {out}",
        emb.num_nodes(),
        emb.dim()
    );
    Ok(())
}

/// Load a checksummed delta log and replay it over a network, returning
/// the overlay plus the parsed batches (for dirty-set derivation).
fn load_and_replay_delta(
    net: transn_graph::HetNet,
    delta_path: &str,
) -> Result<(transn_graph::DeltaOverlay, Vec<transn_graph::DeltaBatch>), String> {
    let file = std::fs::File::open(delta_path).map_err(|e| e.to_string())?;
    let logged = transn_graph::read_delta_log(file).map_err(|e| e.to_string())?;
    let mut overlay = transn_graph::DeltaOverlay::new(net);
    transn_graph::replay_delta_log(&mut overlay, &logged).map_err(|e| e.to_string())?;
    Ok((overlay, logged.into_iter().map(|l| l.batch).collect()))
}

fn ingest(args: &Args) -> Result<(), String> {
    let out = args.require("out")?;
    let par = parse_parallelism(args)?;
    let net = io::load_network(args.require("net")?).map_err(|e| e.to_string())?;
    let (before_nodes, before_edges) = (net.num_nodes(), net.num_edges());
    let (overlay, batches) = load_and_replay_delta(net, args.require("delta")?)?;
    let compacted = overlay.compact(par).map_err(|e| e.to_string())?;
    io::save_network(&compacted, out).map_err(|e| e.to_string())?;
    println!(
        "applied {} batches ({} ops): {} nodes / {} edges -> {} nodes / {} edges",
        batches.len(),
        batches.iter().map(|b| b.ops.len()).sum::<usize>(),
        before_nodes,
        before_edges,
        compacted.num_nodes(),
        compacted.num_edges()
    );
    println!("wrote compacted network to {out}");
    Ok(())
}

fn refresh_cmd(args: &Args) -> Result<(), String> {
    use transn::{refresh, RefreshPlan};

    let out = args.require("out")?;
    let prev = NodeEmbeddings::read_tsv(
        std::fs::File::open(args.require("embeddings")?).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let mut cfg = TransNConfig {
        dim: prev.dim(),
        // Warm start needs fewer passes than `train`'s default of 5.
        iterations: args.get_parse("iterations", 2)?,
        parallelism: parse_parallelism(args)?,
        episode: parse_episode(args)?,
        ..TransNConfig::default()
    }
    .with_seed(args.get_parse("seed", 1234u64)?);
    if let Some(v) = args.get("variant") {
        cfg.variant = parse_variant(v)?;
    }
    validate_config(&cfg)?;
    let net = io::load_network(args.require("net")?).map_err(|e| e.to_string())?;
    if prev.num_nodes() > net.num_nodes() {
        return Err(format!(
            "--embeddings has {} rows but --net has only {} nodes",
            prev.num_nodes(),
            net.num_nodes()
        ));
    }
    let (overlay, batches) = load_and_replay_delta(net, args.require("delta")?)?;
    let compacted = overlay
        .compact(cfg.parallelism)
        .map_err(|e| e.to_string())?;
    let plan = RefreshPlan::from_batches(&batches, compacted.schema().num_edge_types());
    println!(
        "refreshing {} of {} views ({} batches touched them)…",
        plan.num_dirty(),
        compacted.schema().num_edge_types(),
        batches.len()
    );
    let t0 = std::time::Instant::now();
    let emb = refresh(&compacted, &prev, &plan, &cfg);
    emb.write_tsv(std::fs::File::create(out).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    println!(
        "wrote {} refreshed embeddings (d = {}) to {out} in {:?}",
        emb.num_nodes(),
        emb.dim(),
        t0.elapsed()
    );
    if let Some(out_net) = args.get("out-net") {
        io::save_network(&compacted, out_net).map_err(|e| e.to_string())?;
        println!("wrote compacted network to {out_net}");
    }
    Ok(())
}

fn query(args: &Args) -> Result<(), String> {
    use transn_serve::{
        batch_top_k, BruteForceIndex, EmbStore, HnswConfig, HnswIndex, Metric, QuantizedIndex,
    };

    let store = EmbStore::open(args.require("store")?).map_err(|e| e.to_string())?;
    let top: usize = args.get_parse("top", 10)?;
    let metric = Metric::parse(args.get("metric").unwrap_or("cosine"))?;
    let threads: usize = args.get_parse("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    // Quantized scans rescore this many survivors against the exact f32
    // rows (clamped up to --top).
    let rerank_k: usize = args.get_parse("rerank-k", 4 * top)?;
    let ids: Vec<u32> = if args.flag("all") {
        (0..store.num_nodes() as u32).collect()
    } else {
        let node: u32 = args
            .require("node")?
            .parse()
            .map_err(|e| format!("--node: {e}"))?;
        if node as usize >= store.num_nodes() {
            return Err(format!(
                "node {node} out of range (0..{})",
                store.num_nodes()
            ));
        }
        vec![node]
    };
    let queries: Vec<&[f32]> = ids.iter().map(|&i| store.row(i as usize)).collect();
    let exclude: Vec<Option<u32>> = ids.iter().map(|&i| Some(i)).collect();
    let par = Parallelism::strict(threads);
    let results = match args.get("index").unwrap_or("brute") {
        "brute" => {
            let index = BruteForceIndex::new(&store, metric);
            batch_top_k(&index, &queries, top, &exclude, par)
        }
        "hnsw" => {
            let index = HnswIndex::build(&store, metric, HnswConfig::default());
            batch_top_k(&index, &queries, top, &exclude, par)
        }
        "quant" => {
            if store.quant_kind().is_none() {
                return Err(
                    "--index quant needs a quantized store (serve-build --quant i8)".into(),
                );
            }
            let index = QuantizedIndex::new(&store, metric, rerank_k);
            batch_top_k(&index, &queries, top, &exclude, par)
        }
        other => {
            return Err(format!(
                "unknown index {other:?}; one of brute, hnsw, quant"
            ))
        }
    };
    for (qid, result) in ids.iter().zip(results) {
        for n in result {
            println!("{qid}\t{}\t{:.6}", n.id, n.score);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(cmd: &str) -> Result<(), String> {
        run(&cmd.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    /// `s` parsed against `train`'s usage entry.
    fn parse(s: &str) -> Args {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&argv, usage_entry("train").unwrap()).unwrap()
    }

    #[test]
    fn usage_entries_split_per_command() {
        let entry = usage_entry("refresh").unwrap();
        assert!(entry.starts_with("transn refresh --net FILE"), "{entry}");
        assert!(entry.ends_with("[--episodes-in-flight N]"), "{entry}");
        assert!(entry.contains("[--variant NAME]"), "{entry}");
        let entry = usage_entry("query").unwrap();
        assert!(!entry.contains("transn ingest"), "{entry}");
        assert!(usage_entry("serve").is_none());
    }

    #[test]
    fn flags_outside_the_commands_entry_are_rejected() {
        let err = run_str("train --net x.tsv --out y.tsv --dimm 4").unwrap_err();
        assert_eq!(err, "unknown flag --dimm");
        // `--iterations` is a train flag, not a linkpred one.
        let err = run_str("linkpred --net x.tsv --iterations 1").unwrap_err();
        assert_eq!(err, "unknown flag --iterations");
    }

    #[test]
    fn unknown_command_shows_usage() {
        let err = run_str("frobnicate").unwrap_err();
        assert!(err.contains("usage"));
    }

    #[test]
    fn empty_invocation_shows_usage() {
        let err = run(&[]).unwrap_err();
        assert!(err.contains("usage"));
    }

    #[test]
    fn parallelism_flags() {
        assert_eq!(
            parse_parallelism(&parse("train")).unwrap(),
            Parallelism::hogwild(1)
        );
        assert_eq!(
            parse_parallelism(&parse("train --threads 4")).unwrap(),
            Parallelism::hogwild(4)
        );
        assert_eq!(
            parse_parallelism(&parse("train --threads 2 --strict-determinism")).unwrap(),
            Parallelism::strict(2)
        );
        assert!(parse_parallelism(&parse("train --threads 0")).is_err());
        assert!(parse_parallelism(&parse("train --threads banana")).is_err());
    }

    #[test]
    fn episode_flags() {
        let defaults = parse_episode(&parse("train")).unwrap();
        assert_eq!(defaults.episode_walks, 0);
        assert_eq!(defaults.episodes_in_flight, 2);
        let ep = parse_episode(&parse("train --episode-walks 4096")).unwrap();
        assert_eq!(ep.episode_walks, 4096);
        let ep = parse_episode(&parse("train --episodes-in-flight 3")).unwrap();
        assert_eq!(ep.episodes_in_flight, 3);
        let err = parse_episode(&parse("train --episodes-in-flight 0")).unwrap_err();
        assert!(err.contains("--episodes-in-flight"), "{err}");
        assert!(parse_episode(&parse("train --episode-walks banana")).is_err());
    }

    #[test]
    fn generate_train_classify_roundtrip() {
        let dir = std::env::temp_dir().join(format!("transn-cli-test-{}", std::process::id()));
        let dirs = dir.display();
        run_str(&format!("generate aminer --tiny --out {dirs} --seed 3")).unwrap();
        run_str(&format!(
            "train --net {dirs}/network.tsv --out {dirs}/emb.tsv --dim 16 --iterations 1 --threads 2 --strict-determinism"
        ))
        .unwrap();
        run_str(&format!(
            "classify --embeddings {dirs}/emb.tsv --labels {dirs}/labels.tsv --repeats 1"
        ))
        .unwrap();
        run_str(&format!(
            "stats --net {dirs}/network.tsv --labels {dirs}/labels.tsv"
        ))
        .unwrap();
        run_str(&format!(
            "neighbors --embeddings {dirs}/emb.tsv --node 0 --top 3"
        ))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn variant_parsing() {
        assert_eq!(parse_variant("TransN").unwrap(), Variant::Full);
        assert_eq!(parse_variant("full").unwrap(), Variant::Full);
        assert_eq!(
            parse_variant("TransN-Without-Cross-View").unwrap(),
            Variant::WithoutCrossView
        );
        assert!(parse_variant("bogus").is_err());
    }

    #[test]
    fn bad_dataset_rejected() {
        let err = run_str("generate nope --out /tmp/x").unwrap_err();
        assert!(err.contains("unknown dataset"));
    }
}
