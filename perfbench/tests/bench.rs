//! The benchmark's own tests: the staged compile equals `run_pipeline`,
//! the edit touches one function, metric and workload names are well
//! formed, and a quick mode runs every workload (its edit set-up in a
//! child `perfbench` process) with its pinned metrics equal at one and
//! two worker threads.

use mcpart_core::{run_pipeline, Method, PipelineConfig};
use mcpart_ir::program_to_string;
use mcpart_machine::Machine;
use mcpart_obs::json::{self, JsonValue};
use mcpart_perfbench::report::{end_to_end, per_layer};
use mcpart_perfbench::stages::{compile, same_result};
use mcpart_perfbench::trace::Trace;
use mcpart_perfbench::workloads::{self, apply_edit, Settings, Workload};
use mcpart_workloads::{SynthSpec, Workload as Program};
use std::path::PathBuf;
use std::time::Instant;

/// Staged and `run_pipeline` compiles of every method agree, at one and
/// two worker threads.
fn assert_staged_matches(w: &Program, machine: &Machine) {
    for method in Method::ALL {
        for jobs in [1, 2] {
            let cfg = PipelineConfig::new(method).with_jobs(jobs);
            let reference = run_pipeline(&w.program, &w.profile, machine, &cfg).expect("pipeline");
            let mut tr = Trace::new(true);
            let staged = compile(&w.program, &w.profile, machine, &cfg, &mut tr).expect("staged");
            assert!(same_result(&staged, &reference), "{} {method} jobs {jobs}", w.name);
            let calls = staged.rhop_stats.estimator_calls as f64;
            assert_eq!(tr.counter("rhop.estimator_calls"), calls, "{} {method}", w.name);
            assert!(tr.wall("sched.evaluate") > 0.0, "spans recorded");
        }
    }
}

#[test]
fn staged_equals_run_pipeline_on_synth_3000() {
    let w = SynthSpec::parse("ops=3000,seed=3").expect("spec").try_generate("s").expect("gen");
    assert_staged_matches(&w, &Machine::homogeneous(2, 5));
}

#[test]
fn staged_equals_run_pipeline_on_rawcaudio() {
    let w = mcpart_workloads::by_name("rawcaudio").expect("rawcaudio");
    assert_staged_matches(&w, &Machine::paper_2cluster(5));
}

#[test]
fn edit_touches_one_function() {
    let w = SynthSpec::parse("ops=3000,seed=3").expect("spec").try_generate("s").expect("gen");
    let text = program_to_string(&w.program);
    let edited = apply_edit(&text).expect("edit");
    let changed: Vec<_> = text.lines().zip(edited.lines()).filter(|(a, b)| a != b).collect();
    assert_eq!(changed.len(), 1, "one line changes");
    assert!(changed[0].0.ends_with("= iconst 511") && changed[0].1.ends_with("= iconst 510"));
    assert!(apply_edit(&edited.replace("= iconst 511\n", "= iconst 7\n")).is_err());
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_and_workload_names_are_well_formed() {
    for m in end_to_end().iter().chain(per_layer()) {
        assert!(well_formed(&m.name), "metric name `{}`", m.name);
        assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
    let workloads = doc.get("workloads").and_then(JsonValue::as_arr).expect("workloads");
    let names: Vec<_> = workloads
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    assert!(names.iter().all(|n| well_formed(n)));
}

/// Metrics that must repeat exactly at any worker count.
const PINNED: [&str; 12] = [
    "cycles",
    "dynamic_moves",
    "gdp_rel_perf",
    "gdp.cut",
    "rhop.estimator_calls",
    "rhop.full_evals",
    "rhop.pruned_evals",
    "rhop.moves_accepted",
    "rhop.regions",
    "checkpoint.bytes",
    "repartition.dirty_funcs",
    "repartition.replayed_funcs",
];

#[test]
fn quick_mode_runs_all_three_workloads() {
    let clock = Instant::now();
    for w in Workload::ALL {
        for trace in [false, true] {
            let run = |jobs: usize| {
                let mut s = Settings::new(w, PathBuf::from(env!("CARGO_BIN_EXE_perfbench")));
                s.quick = true;
                s.seconds = 0.0;
                s.trace = trace;
                s.jobs = jobs;
                let dir = format!("quick-{}-{trace}-{jobs}", w.name());
                s.work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
                let out = workloads::run(&s).expect("run");
                let _ = std::fs::remove_dir_all(&s.work_dir);
                out
            };
            let out = run(2);
            assert_eq!(
                (out.failed, out.problems.len()),
                (0, 0),
                "{}: {:?}",
                w.name(),
                out.problems
            );
            assert!(out.attempted >= 1);
            let defs = if trace { per_layer() } else { end_to_end() };
            for name in defs.iter().map(|m| m.name.as_str()) {
                assert!(out.values.contains_key(name), "{} is missing {name}", w.name());
                assert!(trace || out.values[name] > 0.0, "{} reads 0 for {name}", w.name());
            }
            if trace && w == Workload::Synth100kEdit {
                assert!(out.values["repartition.dirty_funcs"] >= 1.0);
                assert!(out.values["checkpoint.bytes"] > 0.0);
            }
            let one = run(1);
            for name in PINNED {
                let (a, b) = (out.values.get(name), one.values.get(name));
                assert_eq!(a, b, "{} {name} differs between --jobs 2 and 1", w.name());
            }
        }
    }
    if !cfg!(debug_assertions) {
        assert!(clock.elapsed().as_secs() < 60, "quick mode took {:?}", clock.elapsed());
    }
}
