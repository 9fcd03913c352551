//! Fault-injection harness: systematically corrupt programs, profiles,
//! and placements (via `mcpart::sim::fault`) and assert that every
//! entry point — library pipeline, interpreter, placement validator,
//! and the `mcpart exec` CLI path — reports a typed `Err` and never
//! panics or hangs.

use mcpart::core::{run_pipeline, Method, PipelineConfig, PipelineErrorKind, Stage};
use mcpart::ir::{parse_program, verify_program, Profile, Program};
use mcpart::machine::Machine;
use mcpart::sim::{fault, profile_run, run, ExecConfig, ExecError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;

fn workload(name: &str) -> (Program, Profile) {
    let w = mcpart::workloads::by_name(name).expect("known benchmark");
    (w.program, w.profile)
}

fn mcpart_cli(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_mcpart")).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn hostile_mcir_never_panics_and_always_errors() {
    for (label, text) in fault::hostile_mcir() {
        let outcome = catch_unwind(AssertUnwindSafe(|| match parse_program(text) {
            Err(_) => true,
            Ok(p) => verify_program(&p).is_err(),
        }));
        let rejected = outcome.unwrap_or_else(|_| panic!("{label}: parser panicked"));
        assert!(rejected, "{label}: hostile input was accepted");
    }
}

#[test]
fn truncated_block_is_rejected_at_every_entry_point() {
    let (mut program, profile) = workload("fir");
    fault::truncate_entry_block(&mut program);
    // Interpreter entry points report the missing terminator.
    assert_eq!(
        run(&program, &[], ExecConfig::default()).unwrap_err(),
        ExecError::MissingTerminator
    );
    assert_eq!(
        profile_run(&program, &[], ExecConfig::default()).unwrap_err(),
        ExecError::MissingTerminator
    );
    // The pipeline rejects it at the verify gate, for every method.
    let machine = Machine::paper_2cluster(5);
    for method in Method::ALL {
        let e = run_pipeline(&program, &profile, &machine, &PipelineConfig::new(method))
            .expect_err("unverified program must not partition");
        assert_eq!(e.stage, Stage::Verify, "{method}: {e}");
        assert!(matches!(e.kind, PipelineErrorKind::Verify(_)), "{method}: {e}");
    }
}

#[test]
fn dangling_object_id_is_rejected_at_the_verify_gate() {
    let (mut program, profile) = workload("rawcaudio");
    assert!(fault::dangle_object_id(&mut program), "rawcaudio has memory operations");
    let machine = Machine::paper_2cluster(5);
    let e = run_pipeline(&program, &profile, &machine, &PipelineConfig::new(Method::Gdp))
        .expect_err("dangling object id must not partition");
    assert_eq!(e.stage, Stage::Verify);
    assert!(e.to_string().contains("object"), "{e}");
}

#[test]
fn zero_size_objects_never_panic() {
    let machine = Machine::paper_2cluster(5);
    for name in ["rawcaudio", "fir", "histogram"] {
        let (mut program, profile) = workload(name);
        fault::zero_object_sizes(&mut program);
        for method in Method::ALL {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_pipeline(&program, &profile, &machine, &PipelineConfig::new(method)).is_ok()
            }));
            assert!(outcome.is_ok(), "{name}/{method}: panicked on zero-size objects");
        }
    }
}

#[test]
fn cyclic_program_is_stopped_by_the_step_budget() {
    let (mut program, profile) = workload("fir");
    fault::make_cyclic(&mut program);
    // Direct interpretation must hit the step limit, not spin.
    let small = ExecConfig { step_limit: 10_000, ..ExecConfig::default() };
    assert_eq!(run(&program, &[], small).unwrap_err(), ExecError::StepLimit);
    // Through the pipeline with validation on, the budgeted validation
    // run fails with a typed error instead of hanging the stage.
    let machine = Machine::paper_2cluster(5);
    let mut cfg = PipelineConfig::new(Method::Gdp);
    cfg.validate = true;
    cfg.exec = small;
    let e = run_pipeline(&program, &profile, &machine, &cfg)
        .expect_err("cyclic program must not validate");
    assert_eq!(e.stage, Stage::SemanticValidation, "{e}");
    assert!(matches!(e.kind, PipelineErrorKind::Exec(ExecError::StepLimit)), "{e}");
}

#[test]
fn mismatched_profile_is_rejected_before_partitioning() {
    let (program, mut profile) = workload("fir");
    fault::corrupt_profile(&mut profile);
    let machine = Machine::paper_2cluster(5);
    let e = run_pipeline(&program, &profile, &machine, &PipelineConfig::new(Method::Gdp))
        .expect_err("mismatched profile must be rejected");
    assert_eq!(e.stage, Stage::Analysis, "{e}");
    assert!(matches!(e.kind, PipelineErrorKind::Profile(_)), "{e}");
}

#[test]
fn corrupted_placements_fail_validation() {
    let (program, profile) = workload("fir");
    let machine = Machine::paper_2cluster(5);
    let good = run_pipeline(&program, &profile, &machine, &PipelineConfig::new(Method::Gdp))
        .expect("pipeline");
    let pts = mcpart::analysis::PointsTo::compute(&good.program);
    let access = mcpart::analysis::AccessInfo::compute(&good.program, &pts, &profile);
    mcpart::sched::validate_placement(&good.program, &good.placement, &access, &machine)
        .expect("the pipeline's own placement validates");
    let mut off_cluster = good.placement.clone();
    assert!(fault::misplace_op(&mut off_cluster));
    assert!(
        mcpart::sched::validate_placement(&good.program, &off_cluster, &access, &machine).is_err(),
        "an op on cluster 999 must fail validation"
    );
    let mut off_home = good.placement.clone();
    assert!(fault::misplace_object(&mut off_home));
    assert!(
        mcpart::sched::validate_placement(&good.program, &off_home, &access, &machine).is_err(),
        "an object homed on cluster 999 must fail validation"
    );
}

#[test]
fn downgrade_is_visible_in_the_pipeline_result() {
    let (program, profile) = workload("fir");
    let machine = Machine::paper_2cluster(5);
    let mut cfg = PipelineConfig::new(Method::Gdp);
    cfg.gdp.fuel = Some(0); // starve GDP so the ladder engages
    let run = run_pipeline(&program, &profile, &machine, &cfg).expect("ladder recovers");
    assert!(run.was_downgraded());
    assert_eq!(run.requested_method, Method::Gdp);
    assert_eq!(run.method, Method::ProfileMax);
    assert_eq!(run.downgrades.len(), 1);
    assert_eq!(run.downgrades[0].from, Method::Gdp);
    assert_eq!(run.downgrades[0].to, Method::ProfileMax);
}

#[test]
fn cli_exec_rejects_every_hostile_file_without_crashing() {
    let dir = std::env::temp_dir().join("mcpart_fault_injection");
    std::fs::create_dir_all(&dir).unwrap();
    for (label, text) in fault::hostile_mcir() {
        let path = dir.join(format!("{label}.mcir"));
        std::fs::write(&path, text).unwrap();
        let (_, stderr, code) = mcpart_cli(&["exec", path.to_str().unwrap()]);
        assert_eq!(code, Some(1), "{label}: expected input-failure exit 1\nstderr: {stderr}");
        assert!(stderr.starts_with("error:"), "{label}: stderr was `{stderr}`");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn cli_exec_parse_errors_carry_line_and_column() {
    let dir = std::env::temp_dir().join("mcpart_fault_injection");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad_opcode.mcir");
    let (_, text) =
        fault::hostile_mcir().into_iter().find(|(label, _)| *label == "unknown-opcode").unwrap();
    std::fs::write(&path, text).unwrap();
    let (_, stderr, code) = mcpart_cli(&["exec", path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("line 5, column 13"), "no position in `{stderr}`");
    assert!(stderr.contains("summon"), "no offending token in `{stderr}`");
    std::fs::remove_file(&path).ok();
}

/// Every injection scenario behaves identically at `--jobs 4` and
/// `--jobs 1`: the same outcome (typed error string, or cycles + final
/// method + quarantine set on recovery) and a byte-identical pinned
/// observability log. Supervision — retries, quarantine, the
/// degradation ladder — must not leak worker-count nondeterminism.
#[test]
fn every_injection_scenario_is_jobs_invariant() {
    type Mutate = fn(&mut Program, &mut Profile, &mut PipelineConfig);
    let scenarios: [(&str, &str, Mutate); 7] = [
        ("truncated-block", "fir", |p, _, _| fault::truncate_entry_block(p)),
        ("dangling-object", "rawcaudio", |p, _, _| {
            fault::dangle_object_id(p);
        }),
        ("zero-size-objects", "rawcaudio", |p, _, _| fault::zero_object_sizes(p)),
        ("corrupt-profile", "fir", |_, prof, _| fault::corrupt_profile(prof)),
        ("cyclic-program", "fir", |p, _, cfg| {
            fault::make_cyclic(p);
            cfg.validate = true;
            cfg.exec = mcpart::sim::ExecConfig { step_limit: 10_000, ..Default::default() };
        }),
        ("starved-gdp-ladder", "fir", |_, _, cfg| cfg.gdp.fuel = Some(0)),
        ("quarantined-panic", "rawcaudio", |_, _, cfg| {
            cfg.rhop.faults = "panic:main".parse().expect("plan");
        }),
    ];
    let machine = Machine::paper_2cluster(5);
    for (label, name, mutate) in scenarios {
        let (mut program, mut profile) = workload(name);
        let mut base = PipelineConfig::new(Method::Gdp);
        mutate(&mut program, &mut profile, &mut base);
        let run_at = |jobs: usize| {
            let obs = mcpart::obs::Obs::enabled();
            let cfg = base.clone().with_jobs(jobs).with_obs(obs.clone());
            let outcome = run_pipeline(&program, &profile, &machine, &cfg)
                .map(|r| {
                    let quarantined: Vec<String> =
                        r.quarantine().names().iter().map(|s| s.to_string()).collect();
                    (r.cycles(), r.method, r.downgrades.len(), quarantined)
                })
                .map_err(|e| e.to_string());
            (outcome, obs.pinned_log())
        };
        let (ref_outcome, ref_log) = run_at(1);
        let (par_outcome, par_log) = run_at(4);
        assert_eq!(ref_outcome, par_outcome, "{label}: outcome changed with --jobs 4");
        assert_eq!(ref_log, par_log, "{label}: pinned trace changed with --jobs 4");
    }
}

#[test]
fn cli_compare_reports_the_downgrade() {
    let (stdout, stderr, code) = mcpart_cli(&["compare", "fir", "--gdp-fuel", "0"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("GDP->Profile Max"), "no downgrade label in:\n{stdout}");
    assert!(
        stderr.contains("warning: downgraded GDP -> Profile Max"),
        "no downgrade warning in `{stderr}`"
    );
}
