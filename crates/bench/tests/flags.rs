//! Every experiment binary rejects a flag it does not read: exit 2 and
//! nothing on stdout, before any workload runs.

use std::process::Command;

/// Each binary with one flag it ignores.
const IGNORED: &[(&str, &[&str])] = &[
    (env!("CARGO_BIN_EXE_ablation_balance"), &["--latency", "10"]),
    (env!("CARGO_BIN_EXE_ablation_clusters"), &["--json"]),
    (env!("CARGO_BIN_EXE_ablation_hoist"), &["--latency", "10"]),
    (env!("CARGO_BIN_EXE_ablation_merge"), &["--latency", "10"]),
    (env!("CARGO_BIN_EXE_ablation_opt"), &["--json"]),
    (env!("CARGO_BIN_EXE_ablation_regions"), &["--latency", "10"]),
    (env!("CARGO_BIN_EXE_compile_time"), &["--json"]),
    (env!("CARGO_BIN_EXE_ext_cache"), &["--latency", "10"]),
    (env!("CARGO_BIN_EXE_ext_hetero"), &["--json"]),
    (env!("CARGO_BIN_EXE_ext_regfile"), &["--latency", "10"]),
    (env!("CARGO_BIN_EXE_ext_swp"), &["--json"]),
    (env!("CARGO_BIN_EXE_ext_terechko"), &["--latency", "10"]),
    (env!("CARGO_BIN_EXE_fig10"), &["--latency", "10"]),
    (env!("CARGO_BIN_EXE_fig2"), &["--latency", "10"]),
    (env!("CARGO_BIN_EXE_fig7_8"), &["--quick"]),
    (env!("CARGO_BIN_EXE_fig9"), &["--benchmarks", "fir"]),
    (env!("CARGO_BIN_EXE_table1"), &["--json"]),
];

#[test]
fn every_binary_rejects_a_flag_it_ignores() {
    for &(exe, args) in IGNORED {
        let out = Command::new(exe).args(args).output().expect("binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{exe} {args:?} wrote to stdout");
        assert!(stderr.contains("unknown option"), "{exe} {args:?}: {stderr}");
    }
}
