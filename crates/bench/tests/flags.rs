//! The `figures` command line: a usage error exits 2 with nothing on
//! stdout, before any workload runs; a plain run prints the committed
//! result.

use std::process::Command;

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");

#[test]
fn usage_errors_exit_2_and_table1_matches_results() {
    for (args, problem) in [
        (&["fig7_8"][..], "unknown figure `fig7_8`"),
        (&["fig8a", "--latency", "10"], "unknown option `--latency`"),
        (&["--json"], "unknown option `--json`"),
        (&["--benchmarks", "no-such"], "unknown benchmark `no-such`"),
        (&["table1", "--benchmarks", "fir"], "no selected figure takes workloads"),
        (&["table1", "fig2", "table1"], "figure `table1` named twice"),
    ] {
        let out = Command::new(FIGURES).args(args).output().expect("figures starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(stderr.contains(problem), "{args:?}: {stderr}");
    }
    let out = Command::new(FIGURES).arg("table1").output().expect("figures starts");
    assert_eq!(out.status.code(), Some(0));
    let committed = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/table1.txt"));
    assert_eq!(String::from_utf8_lossy(&out.stdout), committed);
}
