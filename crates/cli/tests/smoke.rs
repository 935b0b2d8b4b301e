//! End-to-end smoke tests that spawn the real `transn` binary.
//!
//! Unlike the in-process tests in `commands.rs`, these exercise the whole
//! surface a user sees: argv parsing, exit codes, stderr formatting, and
//! the files left on disk.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn transn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_transn"))
        .args(args)
        .output()
        .expect("spawn transn binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A per-test scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("transn-smoke-{name}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn no_args_prints_usage_and_exits_nonzero() {
    let out = transn(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
}

#[test]
fn unknown_command_is_a_readable_error() {
    let out = transn(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("error:"), "{err}");
    assert!(err.contains("unknown command"), "{err}");
}

#[test]
fn zero_threads_is_rejected() {
    let out = transn(&[
        "train",
        "--net",
        "x.tsv",
        "--out",
        "y.tsv",
        "--threads",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--threads"), "{}", stderr(&out));
}

/// Numeric flags the library would panic on (or turn into NaN) are
/// rejected up front: exit 2, an `error:` line naming the problem, no
/// panic. The input paths do not exist, so the check must run before any
/// I/O to be the error reported.
#[test]
fn bad_numeric_flags_exit_2_without_panicking() {
    for (args, needle) in [
        (
            &["train", "--net", "x.tsv", "--out", "y.tsv", "--dim", "0"][..],
            "dim must be positive",
        ),
        (
            &["linkpred", "--net", "x.tsv", "--dim", "0"],
            "dim must be positive",
        ),
        (&["linkpred", "--net", "x.tsv", "--remove", "0"], "--remove"),
        (
            &["linkpred", "--net", "x.tsv", "--remove", "1.5"],
            "--remove",
        ),
        (
            &[
                "classify",
                "--embeddings",
                "e.tsv",
                "--labels",
                "l.tsv",
                "--repeats",
                "0",
            ],
            "--repeats",
        ),
    ] {
        let out = transn(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("error:") && err.contains(needle),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn malformed_edge_list_fails_with_line_context() {
    let scratch = Scratch::new("malformed");
    let net = scratch.path("bad.tsv");
    fs::write(
        &net,
        "# transn heterogeneous edge list v1\n\
         nodetype\t0\tuser\n\
         edgetype\t0\tknows\t0\t0\n\
         node\t0\t0\n\
         node\t1\t0\n\
         edge\t0\t1\t0\tNaN\n",
    )
    .unwrap();
    let out = transn(&["train", "--net", &net, "--out", &scratch.path("emb.tsv")]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("error:"), "{err}");
    assert!(
        err.contains("line 6"),
        "error should name the bad line: {err}"
    );
    assert!(err.contains("weight"), "error should name the cause: {err}");
}

#[test]
fn truncated_edge_list_fails_with_line_context() {
    let scratch = Scratch::new("truncated");
    let net = scratch.path("cut.tsv");
    fs::write(
        &net,
        "# transn heterogeneous edge list v1\n\
         nodetype\t0\tuser\n\
         edgetype\t0\tknows\t0\t0\n\
         node\t0\t0\n\
         node\t1\t0\n\
         edge\t0\t1\n",
    )
    .unwrap();
    let out = transn(&["stats", "--net", &net]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("line 6"), "{err}");
}

#[test]
fn generate_train_classify_roundtrip() {
    let scratch = Scratch::new("roundtrip");
    let dir = scratch.path("");
    let out = transn(&["generate", "aminer", "--tiny", "--out", &dir, "--seed", "3"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let net = scratch.path("network.tsv");
    let labels = scratch.path("labels.tsv");
    let emb = scratch.path("emb.tsv");
    let out = transn(&[
        "train",
        "--net",
        &net,
        "--out",
        &emb,
        "--dim",
        "8",
        "--iterations",
        "1",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(fs::metadata(&emb).map(|m| m.len() > 0).unwrap_or(false));
    let out = transn(&[
        "classify",
        "--embeddings",
        &emb,
        "--labels",
        &labels,
        "--repeats",
        "1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        report.contains("micro"),
        "classify should report F1: {report}"
    );
}

#[test]
fn train_warns_about_a_translator_direction_that_never_trains() {
    // `tt` and `ts` share only node 0. In the `tt` paired-subview node 0's
    // neighbours form a heavy clique it is barely linked to, so no path
    // from it revisits it cross_len = 8 times; the `ts` subview is the
    // 0–7 edge, whose paths alternate through node 0.
    let scratch = Scratch::new("dead-direction");
    let net = scratch.path("net.tsv");
    let mut tsv = String::from(
        "# transn heterogeneous edge list v1\n\
         nodetype\t0\tt\n\
         nodetype\t1\ts\n\
         edgetype\t0\ttt\t0\t0\n\
         edgetype\t1\tts\t0\t1\n",
    );
    for n in 0..7 {
        tsv.push_str(&format!("node\t{n}\t0\n"));
    }
    tsv.push_str("node\t7\t1\n");
    for x in 1..7 {
        tsv.push_str(&format!("edge\t0\t{x}\t0\t0.001\n"));
        for y in (x + 1)..7 {
            tsv.push_str(&format!("edge\t{x}\t{y}\t0\t100\n"));
        }
    }
    tsv.push_str("edge\t0\t7\t1\t1\n");
    fs::write(&net, tsv).unwrap();
    let out = transn(&[
        "train",
        "--net",
        &net,
        "--out",
        &scratch.path("emb.tsv"),
        "--dim",
        "8",
        "--iterations",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("warning: translator tt → ts trained no segment")
            && err.contains("cross_len = 8"),
        "{err}"
    );
    assert!(!err.contains("ts → tt"), "{err}");
    assert_eq!(err.matches("warning:").count(), 1, "{err}");
}

#[test]
fn strict_determinism_survives_thread_count_changes() {
    let scratch = Scratch::new("strict");
    let dir = scratch.path("");
    let out = transn(&["generate", "aminer", "--tiny", "--out", &dir, "--seed", "5"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let net = scratch.path("network.tsv");
    let mut embs = Vec::new();
    for threads in ["2", "4"] {
        let emb = scratch.path(&format!("emb-{threads}.tsv"));
        let out = transn(&[
            "train",
            "--net",
            &net,
            "--out",
            &emb,
            "--dim",
            "8",
            "--iterations",
            "1",
            "--seed",
            "11",
            "--threads",
            threads,
            "--strict-determinism",
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        embs.push(fs::read(&emb).unwrap());
    }
    assert!(
        embs[0] == embs[1],
        "--strict-determinism must make --threads 2 and --threads 4 byte-identical"
    );
}

#[test]
fn episodic_training_is_byte_identical_to_monolithic_episode() {
    let scratch = Scratch::new("episodic");
    let dir = scratch.path("");
    let out = transn(&["generate", "aminer", "--tiny", "--out", &dir, "--seed", "9"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let net = scratch.path("network.tsv");
    // The default one-episode run (the whole corpus resident at once)
    // against small, pipelined episodes: under --strict-determinism the
    // embeddings must match byte for byte at any episode size and thread
    // count (DESIGN.md §13).
    let mut embs = Vec::new();
    for (name, episode_walks, in_flight, threads) in [
        ("default", "0", "2", "1"),
        ("ep64", "64", "2", "2"),
        ("ep7", "7", "3", "4"),
    ] {
        let emb = scratch.path(&format!("emb-{name}.tsv"));
        let out = transn(&[
            "train",
            "--net",
            &net,
            "--out",
            &emb,
            "--dim",
            "8",
            "--iterations",
            "1",
            "--seed",
            "13",
            "--threads",
            threads,
            "--strict-determinism",
            "--episode-walks",
            episode_walks,
            "--episodes-in-flight",
            in_flight,
        ]);
        assert!(out.status.success(), "{name}: {}", stderr(&out));
        embs.push(fs::read(&emb).unwrap());
    }
    assert!(
        embs[1] == embs[0],
        "--episode-walks 64 must be byte-identical to the single-episode run"
    );
    assert!(
        embs[2] == embs[0],
        "--episode-walks 7 must be byte-identical to the single-episode run"
    );
}

#[test]
fn zero_episodes_in_flight_is_rejected() {
    let out = transn(&[
        "train",
        "--net",
        "x.tsv",
        "--out",
        "y.tsv",
        "--episodes-in-flight",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--episodes-in-flight"),
        "{}",
        stderr(&out)
    );
}

/// A tiny embedding TSV for the serving-layer tests: 20 nodes in 4-D,
/// deterministic irregular values.
fn write_toy_embeddings(path: &str) {
    let mut tsv = String::from("# transn embeddings v1 nodes=20 dim=4\n");
    for i in 0..20 {
        tsv.push_str(&format!("{i}"));
        for j in 0..4 {
            tsv.push_str(&format!("\t{}", ((i * 7 + j * 3) % 13) as f32 / 6.5 - 1.0));
        }
        tsv.push('\n');
    }
    fs::write(path, tsv).unwrap();
}

#[test]
fn usage_mentions_serving_commands() {
    let out = transn(&[]);
    let err = stderr(&out);
    assert!(err.contains("serve-build"), "{err}");
    assert!(err.contains("query"), "{err}");
}

#[test]
fn serve_build_then_query_roundtrip() {
    let scratch = Scratch::new("serve");
    let emb = scratch.path("emb.tsv");
    let store = scratch.path("emb.store");
    write_toy_embeddings(&emb);
    let out = transn(&["serve-build", "--embeddings", &emb, "--out", &store]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(fs::metadata(&store).map(|m| m.len() > 0).unwrap_or(false));
    for index in ["brute", "hnsw"] {
        let out = transn(&[
            "query", "--store", &store, "--node", "3", "--top", "5", "--index", index,
        ]);
        assert!(out.status.success(), "index {index}: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 5, "index {index}: {stdout}");
        for line in lines {
            let fields: Vec<&str> = line.split('\t').collect();
            assert_eq!(fields.len(), 3, "index {index}: {line}");
            assert_eq!(fields[0], "3");
            assert_ne!(fields[1], "3", "query node must be excluded");
            fields[2].parse::<f32>().expect("score field");
        }
    }
}

#[test]
fn query_threads_are_byte_identical() {
    let scratch = Scratch::new("serve-threads");
    let emb = scratch.path("emb.tsv");
    let store = scratch.path("emb.store");
    write_toy_embeddings(&emb);
    let out = transn(&["serve-build", "--embeddings", &emb, "--out", &store]);
    assert!(out.status.success(), "{}", stderr(&out));
    let mut outputs = Vec::new();
    for threads in ["2", "4"] {
        let out = transn(&[
            "query",
            "--store",
            &store,
            "--all",
            "--top",
            "4",
            "--threads",
            threads,
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        outputs.push(out.stdout);
    }
    assert!(
        outputs[0] == outputs[1],
        "--threads 2 and --threads 4 must emit byte-identical results"
    );
}

#[test]
fn quantized_serve_build_then_query_roundtrip() {
    let scratch = Scratch::new("serve-quant");
    let emb = scratch.path("emb.tsv");
    write_toy_embeddings(&emb);
    let f32_store = scratch.path("emb.store");
    let out = transn(&["serve-build", "--embeddings", &emb, "--out", &f32_store]);
    assert!(out.status.success(), "{}", stderr(&out));
    let f32_len = fs::metadata(&f32_store).unwrap().len();
    let store = scratch.path("emb.i8.store");
    let out = transn(&[
        "serve-build",
        "--embeddings",
        &emb,
        "--out",
        &store,
        "--quant",
        "i8",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    // v2 carries both payloads, so the file is strictly bigger.
    assert!(fs::metadata(&store).unwrap().len() > f32_len);
    // Full rerank makes the quantized answer exactly the brute one.
    let quant_out = transn(&[
        "query",
        "--store",
        &store,
        "--node",
        "3",
        "--top",
        "5",
        "--index",
        "quant",
        "--rerank-k",
        "20",
    ]);
    assert!(quant_out.status.success(), "{}", stderr(&quant_out));
    let brute_out = transn(&[
        "query", "--store", &store, "--node", "3", "--top", "5", "--index", "brute",
    ]);
    assert!(brute_out.status.success(), "{}", stderr(&brute_out));
    assert_eq!(
        quant_out.stdout, brute_out.stdout,
        "full rerank must reproduce the exact result"
    );
}

#[test]
fn quant_index_on_plain_store_is_a_readable_error() {
    let scratch = Scratch::new("serve-quant-plain");
    let emb = scratch.path("emb.tsv");
    let store = scratch.path("emb.store");
    write_toy_embeddings(&emb);
    let out = transn(&["serve-build", "--embeddings", &emb, "--out", &store]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = transn(&[
        "query", "--store", &store, "--node", "0", "--index", "quant",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--quant"), "{}", stderr(&out));
    // i8 is the only quantized format `serve-build` writes.
    let out = transn(&[
        "serve-build",
        "--embeddings",
        &emb,
        "--out",
        &scratch.path("emb.f16.store"),
        "--quant",
        "f16",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown --quant \"f16\""),
        "{}",
        stderr(&out)
    );
}

#[test]
fn malformed_store_fails_with_typed_root_cause() {
    let scratch = Scratch::new("serve-bad");
    let store = scratch.path("bad.store");

    // Wrong magic: a valid-length header that is not a store.
    let mut bytes = vec![0u8; 384];
    bytes[0..8].copy_from_slice(b"NOTSTORE");
    fs::write(&store, &bytes).unwrap();
    let out = transn(&["query", "--store", &store, "--node", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("bad magic"), "{err}");

    // Truncated below the header.
    fs::write(&store, [0u8; 10]).unwrap();
    let out = transn(&["query", "--store", &store, "--node", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("truncated"), "{err}");
}

/// Every command rejects a flag its usage entry does not list, and the
/// arity its entry gives, before any I/O: the paths here do not exist.
#[test]
fn unknown_flags_and_wrong_arity_exit_2_before_io() {
    let commands: [&[&str]; 10] = [
        &["generate", "aminer", "--out", "missing-dir"],
        &["train", "--net", "missing.tsv", "--out", "out.tsv"],
        &[
            "classify",
            "--embeddings",
            "missing.tsv",
            "--labels",
            "l.tsv",
        ],
        &["linkpred", "--net", "missing.tsv"],
        &["stats", "--net", "missing.tsv"],
        &["neighbors", "--embeddings", "missing.tsv", "--node", "0"],
        &["serve-build", "--embeddings", "missing.tsv", "--out", "o"],
        &["query", "--store", "missing.store", "--node", "0"],
        &["ingest", "--net", "n", "--delta", "d", "--out", "o"],
        &[
            "refresh",
            "--net",
            "n",
            "--delta",
            "d",
            "--embeddings",
            "e",
            "--out",
            "o",
        ],
    ];
    for base in commands {
        let mut args = base.to_vec();
        args.extend(["--dimm", "4"]);
        let out = transn(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("error: unknown flag --dimm"),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    let train = ["train", "--net", "missing.tsv", "--out", "out.tsv"];
    for (extra, needle) in [
        (
            &["--strict-determinism", "yes"][..],
            "--strict-determinism takes no value",
        ),
        (&["--dim"], "--dim needs a value"),
        (&["--dim", "--strict-determinism"], "--dim needs a value"),
    ] {
        let args: Vec<&str> = train.iter().chain(extra).copied().collect();
        let out = transn(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
    }
    // A positional word beyond the entry's `<…>` placeholders.
    let dir = Scratch::new("extra-positional");
    let out_dir = dir.path("generated");
    for (args, word) in [
        (
            &["stats", "--net", "missing.tsv", "extra-word"][..],
            "extra-word",
        ),
        (
            &["generate", "aminer", "blog", "--out", &out_dir, "--tiny"],
            "blog",
        ),
    ] {
        let out = transn(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        let needle = format!("error: unexpected argument \"{word}\"");
        assert!(err.contains(&needle), "{args:?}: {err}");
    }
    assert!(!PathBuf::from(&out_dir).exists(), "nothing generated");
    // `refresh` reads `--variant`: it passes the flag check and fails on
    // the missing network instead.
    let mut args = commands[9].to_vec();
    args.extend(["--variant", "full"]);
    let err = stderr(&transn(&args));
    assert!(!err.contains("unknown flag"), "{err}");
    assert!(err.contains("error:"), "{err}");
}

#[test]
fn neighbors_ranks_like_the_brute_force_query() {
    let scratch = Scratch::new("neighbors");
    // A NaN coordinate makes every cosine against row 2 NaN; the ranking
    // must still be total.
    let nan = scratch.path("nan.tsv");
    fs::write(
        &nan,
        "# transn embeddings v1 nodes=4 dim=2\n\
         0\t1\t0\n\
         1\t0.5\t0.5\n\
         2\tNaN\t1\n\
         3\t-1\t0.25\n",
    )
    .unwrap();
    let out = transn(&["neighbors", "--embeddings", &nan, "--node", "0"]);
    let err = stderr(&out);
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.status.success(), "{err}");

    let emb = scratch.path("emb.tsv");
    let store = scratch.path("emb.store");
    write_toy_embeddings(&emb);
    let out = transn(&["serve-build", "--embeddings", &emb, "--out", &store]);
    assert!(out.status.success(), "{}", stderr(&out));
    let ids = |out: &Output, field: usize| -> Vec<String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| l.split_whitespace().nth(field).map(String::from))
            .filter(|id| id.parse::<u32>().is_ok())
            .collect()
    };
    let neighbors = transn(&[
        "neighbors",
        "--embeddings",
        &emb,
        "--node",
        "3",
        "--top",
        "6",
    ]);
    assert!(neighbors.status.success(), "{}", stderr(&neighbors));
    let query = transn(&["query", "--store", &store, "--node", "3", "--top", "6"]);
    assert!(query.status.success(), "{}", stderr(&query));
    let got = ids(&neighbors, 0);
    assert_eq!(got.len(), 6, "{got:?}");
    assert_eq!(got, ids(&query, 1));
}
