//! The `repro` binary fails closed: a mistyped target, an unknown flag
//! or an unparseable seed exits with status 2 and the usage line on
//! stderr, before any experiment runs. A run's `--json` artifact reads
//! back into its result type.

use std::process::Command;

use tlsfp_bench::experiments::FigConcurrentResult;

#[test]
fn bad_arguments_exit_non_zero_with_usage() {
    for args in [&["fig_nope"][..], &["--bogus"], &["fig6", "--seed", "x"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        assert_eq!(
            out.status.code(),
            Some(2),
            "repro {args:?}: {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: repro"),
            "repro {args:?} stderr: {stderr}"
        );
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
    }
}

/// `--json DIR` writes an artifact that reads back into its result
/// type, with every identity flag of the run set.
#[test]
fn json_artifact_reads_back_with_identity_flags_set() {
    let dir = std::env::temp_dir().join(format!("repro-json-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig_concurrent", "--smoke", "--json"])
        .arg(&dir)
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(0), "repro fig_concurrent: {out:?}");
    let json = std::fs::read_to_string(dir.join("fig_concurrent.json")).expect("artifact written");
    std::fs::remove_dir_all(&dir).expect("remove artifact dir");
    let result: FigConcurrentResult = serde_json::from_str(&json).expect("artifact deserializes");
    assert!(!result.points.is_empty());
    for p in &result.points {
        assert!(
            p.decisions_identical && p.score_bits_identical,
            "shards={} workers={}",
            p.n_shards,
            p.workers
        );
    }
}
