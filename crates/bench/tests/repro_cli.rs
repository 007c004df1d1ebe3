//! The `repro` binary fails closed: a mistyped target, an unknown flag
//! or an unparseable seed exits with status 2 and the usage line on
//! stderr, before any experiment runs.

use std::process::Command;

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
