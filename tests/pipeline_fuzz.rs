//! Full-stack differential fuzzing: random programs with loops,
//! branches and memory traffic run through the complete pipeline for
//! every method, validating semantics and report invariants.
//!
//! Programs are generated from a deterministic seeded PRNG
//! (`mcpart::rng`), so every run explores the same inputs and a failure
//! reproduces from its seed alone.

use mcpart::core::{run_pipeline, Method, PipelineConfig};
use mcpart::ir::{Cmp, DataObject, FunctionBuilder, IntBinOp, MemWidth, Program, VReg};
use mcpart::machine::Machine;
use mcpart::par::supervise::AbortHandle;
use mcpart::rng::prelude::*;
use mcpart::sim::{profile_run, ExecConfig};
use mcpart::workloads::counted_loop;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One straight-line operation of a segment.
#[derive(Clone, Debug)]
enum SegOp {
    Const(i64),
    Bin(u8, usize, usize),
    Cmp(u8, usize, usize),
    Select(usize, usize, usize),
    Load(u8, usize),
    Store(u8, usize, usize),
}

/// A program segment: straight-line, a counted loop, or a diamond.
#[derive(Clone, Debug)]
enum Segment {
    Straight(Vec<SegOp>),
    Loop(u8, Vec<SegOp>),
    Diamond(usize, Vec<SegOp>, Vec<SegOp>),
}

fn gen_segops(rng: &mut SmallRng, max: usize) -> Vec<SegOp> {
    let n = rng.gen_range(1..max.max(2));
    (0..n)
        .map(|_| match rng.gen_range(0..6u32) {
            0 => SegOp::Const(rng.gen_range(-100i64..100)),
            1 => SegOp::Bin(
                rng.gen_range(0..9u32) as u8,
                rng.gen_range(0..64usize),
                rng.gen_range(0..64usize),
            ),
            2 => SegOp::Cmp(
                rng.gen_range(0..6u32) as u8,
                rng.gen_range(0..64usize),
                rng.gen_range(0..64usize),
            ),
            3 => SegOp::Select(
                rng.gen_range(0..64usize),
                rng.gen_range(0..64usize),
                rng.gen_range(0..64usize),
            ),
            4 => SegOp::Load(rng.gen_range(0..4u32) as u8, rng.gen_range(0..16usize)),
            _ => SegOp::Store(
                rng.gen_range(0..4u32) as u8,
                rng.gen_range(0..16usize),
                rng.gen_range(0..64usize),
            ),
        })
        .collect()
}

fn gen_program(rng: &mut SmallRng) -> Vec<Segment> {
    let n = rng.gen_range(1..5usize);
    (0..n)
        .map(|_| match rng.gen_range(0..3u32) {
            0 => Segment::Straight(gen_segops(rng, 12)),
            1 => Segment::Loop(rng.gen_range(1..6u32) as u8, gen_segops(rng, 10)),
            _ => {
                Segment::Diamond(rng.gen_range(0..64usize), gen_segops(rng, 8), gen_segops(rng, 8))
            }
        })
        .collect()
}

fn emit_segops(
    b: &mut FunctionBuilder<'_>,
    ops: &[SegOp],
    values: &mut Vec<VReg>,
    objects: &[mcpart::ir::ObjectId],
) {
    let pick = |values: &[VReg], i: usize| values[i % values.len()];
    for op in ops {
        let v = match *op {
            SegOp::Const(c) => b.iconst(c),
            SegOp::Bin(k, x, y) => {
                let kinds = [
                    IntBinOp::Add,
                    IntBinOp::Sub,
                    IntBinOp::Mul,
                    IntBinOp::And,
                    IntBinOp::Or,
                    IntBinOp::Xor,
                    IntBinOp::Shl,
                    IntBinOp::Min,
                    IntBinOp::Max,
                ];
                let (a, c) = (pick(values, x), pick(values, y));
                b.ibin(kinds[k as usize % kinds.len()], a, c)
            }
            SegOp::Cmp(k, x, y) => {
                let kinds = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];
                let (a, c) = (pick(values, x), pick(values, y));
                b.icmp(kinds[k as usize % kinds.len()], a, c)
            }
            SegOp::Select(c, x, y) => {
                let (cc, a, d) = (pick(values, c), pick(values, x), pick(values, y));
                b.select(cc, a, d)
            }
            SegOp::Load(o, i) => {
                let obj = objects[o as usize % objects.len()];
                let base = b.addrof(obj);
                let off = b.iconst((i as i64 % 16) * 4);
                let addr = b.add(base, off);
                b.load(MemWidth::B4, addr)
            }
            SegOp::Store(o, i, v) => {
                let obj = objects[o as usize % objects.len()];
                let base = b.addrof(obj);
                let off = b.iconst((i as i64 % 16) * 4);
                let addr = b.add(base, off);
                let val = pick(values, v);
                b.store(MemWidth::B4, addr, val);
                continue;
            }
        };
        values.push(v);
    }
}

fn realize(segments: &[Segment]) -> Program {
    let mut p = Program::new("fuzz");
    let objects: Vec<_> =
        (0..4).map(|i| p.add_object(DataObject::global(format!("g{i}"), 64))).collect();
    let mut b = FunctionBuilder::entry(&mut p);
    let seed = b.iconst(1);
    let mut values = vec![seed];
    for seg in segments {
        match seg {
            Segment::Straight(ops) => emit_segops(&mut b, ops, &mut values, &objects),
            Segment::Loop(trips, ops) => {
                // Values defined inside the body stay local to it (the
                // body may be skipped only if trips == 0; we keep
                // trips >= 1 so everything below stays defined).
                let before = values.len();
                counted_loop(&mut b, i64::from(*trips).max(1), |b, i| {
                    values.push(i);
                    emit_segops(b, ops, &mut values, &objects);
                });
                values.truncate(before);
            }
            Segment::Diamond(c, then_ops, else_ops) => {
                let cond = values[*c % values.len()];
                let t = b.block("then");
                let e = b.block("else");
                let m = b.block("merge");
                b.branch(cond, t, e);
                let before = values.len();
                b.switch_to(t);
                emit_segops(&mut b, then_ops, &mut values, &objects);
                values.truncate(before);
                b.jump(m);
                b.switch_to(e);
                emit_segops(&mut b, else_ops, &mut values, &objects);
                values.truncate(before);
                b.jump(m);
                b.switch_to(m);
            }
        }
    }
    let result = *values.last().expect("nonempty");
    b.ret(Some(result));
    p
}

/// Every method's full pipeline preserves semantics and produces
/// coherent reports on random CFG programs.
#[test]
fn pipeline_is_sound_on_random_programs() {
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(0x9e3779b9 ^ seed);
        let program = realize(&gen_program(&mut rng));
        mcpart::ir::verify_program(&program).expect("generated program verifies");
        let profile =
            profile_run(&program, &[], ExecConfig::default()).expect("generated program executes");
        let latency = rng.gen_range(1..11u32);
        let machine = Machine::paper_2cluster(latency);
        let mut unified_cycles = None;
        for method in Method::ALL {
            let mut cfg = PipelineConfig::new(method);
            cfg.validate = true; // semantic equivalence, checked inside
            let run = run_pipeline(&program, &profile, &machine, &cfg)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(run.cycles() > 0, "seed {seed}");
            assert!(!run.was_downgraded(), "seed {seed}: {method} downgraded");
            mcpart::ir::verify_program(&run.program).expect("transformed program verifies");
            if method == Method::Unified {
                unified_cycles = Some(run.cycles());
            }
        }
        // Sanity: nothing is an order of magnitude from unified on these
        // tiny programs.
        let unified = unified_cycles.expect("unified ran") as f64;
        let gdp = run_pipeline(&program, &profile, &machine, &PipelineConfig::new(Method::Gdp))
            .expect("pipeline");
        assert!((gdp.cycles() as f64) < unified * 10.0 + 1000.0, "seed {seed}");
    }
}

/// The optimizer composes with the pipeline on random programs.
#[test]
fn optimizer_composes_with_pipeline() {
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(0xc0ffee ^ seed);
        let program = realize(&gen_program(&mut rng));
        let profile = profile_run(&program, &[], ExecConfig::default()).expect("executes");
        let machine = Machine::paper_2cluster(5);
        let mut cfg = PipelineConfig::new(Method::Gdp);
        cfg.pre_optimize = true;
        cfg.validate = true; // optimize + partition + moves must preserve semantics
        let run = run_pipeline(&program, &profile, &machine, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(run.cycles() > 0, "seed {seed}");
    }
}

/// Textual round-trip holds for arbitrary CFG programs, and the
/// reparsed program behaves identically.
#[test]
fn random_programs_roundtrip_through_text() {
    for seed in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(0x5eed ^ seed);
        let program = realize(&gen_program(&mut rng));
        let text = mcpart::ir::program_to_string(&program);
        let parsed = mcpart::ir::parse_program(&text).expect("round-trip parse");
        assert_eq!(&text, &mcpart::ir::program_to_string(&parsed), "seed {seed}");
        let a = mcpart::sim::run(&program, &[], ExecConfig::default()).expect("original runs");
        let b = mcpart::sim::run(&parsed, &[], ExecConfig::default()).expect("reparsed runs");
        assert_eq!(a.return_value, b.return_value, "seed {seed}");
        assert_eq!(a.memory, b.memory, "seed {seed}");
    }
}

/// Whatever the pipeline thinks of a random program — success, typed
/// error, anything — it must never panic. The Result boundary is the
/// contract; a panic is a bug even on inputs the pipeline rejects.
#[test]
fn pipeline_never_panics_on_random_programs() {
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0xdead ^ seed);
        let program = realize(&gen_program(&mut rng));
        let profile = profile_run(&program, &[], ExecConfig::default()).expect("executes");
        // Hostile configurations: starved budgets, an abort that has
        // already fired (what the unit-timeout watchdog does).
        let configs: Vec<PipelineConfig> = Method::ALL
            .iter()
            .flat_map(|&m| {
                let mut starved = PipelineConfig::new(m);
                starved.gdp.fuel = Some(rng.gen_range(0..3u64));
                starved.rhop.max_estimator_calls = Some(rng.gen_range(0..5u64));
                let mut timed = PipelineConfig::new(m);
                timed.rhop.abort = AbortHandle::armed();
                timed.rhop.abort.abort();
                vec![PipelineConfig::new(m), starved, timed]
            })
            .collect();
        for cfg in configs {
            let machine = Machine::paper_2cluster(5);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _ = run_pipeline(&program, &profile, &machine, &cfg);
            }));
            assert!(outcome.is_ok(), "seed {seed}: pipeline panicked under method {}", cfg.method);
        }
    }
}

fn mcpart_cli(args: &[&str]) -> (String, String, Option<i32>) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mcpart"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

/// `text` with the first op cluster value on its 0-based line `line`
/// (the first number inside an `"op_cluster"` array) replaced by `value`.
fn set_first_op_cluster(text: &str, line: usize, value: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let l = &lines[line];
    let at = l
        .match_indices("\"op_cluster\":[")
        .map(|(i, key)| i + key.len() + l[i + key.len()..].find(|c| c != '[').unwrap_or(0))
        .find(|&i| l[i..].starts_with(|c: char| c.is_ascii_digit()))
        .expect("a non-empty op_cluster array");
    let end = at + l[at..].find(|c: char| !c.is_ascii_digit()).unwrap_or(l.len() - at);
    lines[line] = format!("{}{value}{}", &l[..at], &l[end..]);
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// Corrupted checkpoint files must be rejected by `--resume` with exit
/// code 2 and a line/column diagnostic — never a panic. The one
/// sanctioned exception is an *unterminated* trailing line: that is the
/// artifact an honest crash leaves behind, and resume discards it with
/// a note and continues.
#[test]
fn corrupted_checkpoints_are_rejected_with_a_position_and_never_a_panic() {
    let dir = std::env::temp_dir().join("mcpart_checkpoint_fuzz");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let base = dir.join("base.json");
    std::fs::remove_file(&base).ok();
    let (_, stderr, code) = mcpart_cli(&["compare", "fir", "--checkpoint", base.to_str().unwrap()]);
    assert_eq!(code, Some(0), "seed checkpoint run failed: {stderr}");
    let full = std::fs::read_to_string(&base).expect("checkpoint exists");
    assert!(full.lines().count() >= 3, "expected header + records:\n{full}");

    let resume = |path: &std::path::Path| {
        mcpart_cli(&["compare", "fir", "--checkpoint", path.to_str().unwrap(), "--resume"])
    };
    let case = dir.join("case.json");
    let mut rejected = 0usize;

    // Structured corruption: every line, in turn, gets its JSON
    // punctuation broken while staying newline-terminated. For header
    // and record lines that is garbage-on-disk, not a crash artifact,
    // and must be refused with a position. Manifest lines are the one
    // tolerated exception: they are an incremental-replay *hint*, so a
    // corrupt one is silently dropped (the unit merely loses replay —
    // full recompute, never a wrong result, never an error).
    let mut manifests_tolerated = 0usize;
    for (i, line) in full.lines().enumerate().skip(1) {
        let broken: String = full
            .lines()
            .enumerate()
            .map(|(j, l)| if i == j { l.replacen(':', ";", 1) } else { l.to_string() } + "\n")
            .collect();
        std::fs::write(&case, broken).expect("write corpus case");
        let (_, stderr, code) = resume(&case);
        assert!(!stderr.contains("panicked"), "line {i}: {stderr}");
        if line.starts_with("{\"mcpart_manifest\"") {
            assert_eq!(code, Some(0), "broken manifest line {i} must be tolerated: {stderr}");
            manifests_tolerated += 1;
        } else {
            assert_eq!(code, Some(2), "broken line {i} must be a config error: {stderr}");
            assert!(
                stderr.contains(&format!("line {}", i + 1)) && stderr.contains("column"),
                "line {i}: diagnostic lost its position: {stderr}"
            );
            rejected += 1;
        }
    }
    assert!(rejected >= 2, "corpus did not exercise multiple records");
    assert!(manifests_tolerated >= 1, "corpus did not exercise a manifest line");

    // Headerless and non-JSON files: refused up front, still exit 2.
    for (label, bytes) in [
        ("empty", Vec::new()),
        ("garbage", b"this is not a checkpoint\n".to_vec()),
        ("binary", vec![0x00, 0xff, 0xfe, 0x07, 0x00, 0x0a]),
        ("json-but-not-a-header", b"{\"hello\":1}\n".to_vec()),
    ] {
        std::fs::write(&case, bytes).expect("write corpus case");
        let (_, stderr, code) = resume(&case);
        assert_eq!(code, Some(2), "{label}: expected config-error exit 2: {stderr}");
        assert!(!stderr.contains("panicked"), "{label}: {stderr}");
        assert!(stderr.starts_with("error:"), "{label}: {stderr}");
    }

    // Cluster indices are checked against the header's cluster count
    // (fir runs on 2 clusters): a record naming a cluster that does not
    // exist, or a negative or fractional one, is corruption with a
    // position, not a placement to replay.
    let record_line = full.lines().position(|l| l.starts_with("{\"unit\"")).expect("a record");
    let manifest_line =
        full.lines().position(|l| l.starts_with("{\"mcpart_manifest\"")).expect("a manifest");
    for bad in ["2", "-1", "1.5"] {
        std::fs::write(&case, set_first_op_cluster(&full, record_line, bad)).expect("write case");
        let (_, stderr, code) = resume(&case);
        assert!(!stderr.contains("panicked"), "op_cluster {bad}: {stderr}");
        assert_eq!(code, Some(2), "op_cluster {bad} must be a config error: {stderr}");
        assert!(
            stderr.contains(&format!("line {}", record_line + 1)) && stderr.contains("column"),
            "op_cluster {bad}: diagnostic lost its position: {stderr}"
        );
    }
    // checkpoint-diff refuses the -1 copy instead of reporting a match.
    let negative = dir.join("negative.json");
    std::fs::write(&negative, set_first_op_cluster(&full, record_line, "-1")).expect("write case");
    let (stdout, stderr, code) =
        mcpart_cli(&["checkpoint-diff", base.to_str().unwrap(), negative.to_str().unwrap()]);
    assert_eq!(code, Some(2), "checkpoint-diff read a -1 cluster: {stdout}{stderr}");
    assert!(!stdout.contains("checkpoints match"), "{stdout}");
    // An out-of-range manifest is dropped like any malformed one: the
    // resume succeeds and does not carry the manifest forward.
    std::fs::write(&case, set_first_op_cluster(&full, manifest_line, "2")).expect("write case");
    let (_, stderr, code) = resume(&case);
    assert_eq!(code, Some(0), "an out-of-range manifest must be dropped, not fatal: {stderr}");
    let resumed = std::fs::read_to_string(&case).expect("resumed checkpoint");
    assert!(
        !resumed.lines().any(|l| l.starts_with("{\"mcpart_manifest\"")),
        "an out-of-range manifest was written forward"
    );

    // Truncation sweep: cut the file at ~16 evenly spread byte
    // offsets. Past the header, any cut leaves either a clean record
    // prefix or a tolerated unterminated crash artifact — both resume
    // (exit 0). A cut inside the header loses the file's identity and
    // is refused (exit 2). Nothing may panic or mis-classify.
    let header_len = full.lines().next().map(str::len).unwrap_or(0);
    for cut in (1..full.len()).step_by((full.len() / 16).max(1)) {
        std::fs::write(&case, &full.as_bytes()[..cut]).expect("write corpus case");
        let (_, stderr, code) = resume(&case);
        assert!(!stderr.contains("panicked"), "cut at {cut}: {stderr}");
        if cut >= header_len {
            assert_eq!(code, Some(0), "cut at byte {cut} must resume: {stderr}");
        } else {
            assert_eq!(code, Some(2), "mid-header cut at {cut} must be refused: {stderr}");
        }
    }

    // Random single-byte mutations from the deterministic PRNG. A
    // mutation may happen to leave a valid checkpoint (resume -> 0) or
    // break a pinned-field hash (config error -> 2); it must never
    // panic and never hit a non-diagnostic exit.
    let mut rng = SmallRng::seed_from_u64(0xc4ec);
    for _ in 0..24 {
        let mut bytes = full.clone().into_bytes();
        let at = rng.gen_range(0..bytes.len() as u64) as usize;
        bytes[at] = rng.gen_range(0..256u64) as u8;
        std::fs::write(&case, &bytes).expect("write corpus case");
        let (_, stderr, code) = resume(&case);
        assert!(!stderr.contains("panicked"), "mutation at {at}: {stderr}");
        assert!(
            code == Some(0) || code == Some(2),
            "mutation at {at}: exit {code:?} is neither resume nor diagnostic: {stderr}"
        );
        if code == Some(2) {
            assert!(stderr.starts_with("error:"), "mutation at {at}: {stderr}");
        }
    }
}

/// The serve artifact cache is self-healing: every corruption of a
/// cache entry — truncation at any offset, random bit flips,
/// headerless or foreign content — must be *detected* (the verifier
/// refuses it), *evicted* (the corrupt file is deleted), and
/// *recomputed* with a final result file byte-identical to the clean
/// run's. A corrupt artifact may never be served.
#[test]
fn corrupted_cache_entries_are_detected_evicted_and_recomputed() {
    use mcpart::core::{
        program_fingerprint, verify_cache_entry, CheckpointHeader, Method, PipelineConfig,
    };

    let dir = std::env::temp_dir().join(format!("mcpart_cache_fuzz_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("spool dir");
    let submit = || {
        std::fs::write(dir.join("fir.job"), "{\"mcpart_job\":1,\"program\":\"fir\"}\n")
            .expect("submit job");
    };
    let drain = || mcpart_cli(&["serve", dir.to_str().unwrap(), "--drain"]);

    submit();
    let (_, stderr, code) = drain();
    assert_eq!(code, Some(0), "seed serve run failed: {stderr}");
    let baseline = std::fs::read(dir.join("out/fir.json")).expect("baseline result");
    let entry_path = std::fs::read_dir(dir.join("cache"))
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .expect("cache entry exists");
    let pristine = std::fs::read(&entry_path).expect("cache entry");

    // The verifier's view of this entry, for the in-memory corpus.
    let workload = mcpart::workloads::by_name("fir").expect("fir exists");
    let header = CheckpointHeader {
        program: workload.program.name.clone(),
        program_hash: program_fingerprint(&workload.program),
        seed: PipelineConfig::new(Method::Gdp).rhop.seed,
        clusters: 2,
        latency: 5,
        memory: "partitioned".to_string(),
        gdp_fuel: None,
    };
    assert!(
        verify_cache_entry(&pristine, &header, "fir/gdp").is_ok(),
        "pristine entry must verify"
    );

    // Corruption corpus: truncation sweep, deterministic random bit
    // flips, headerless/foreign files.
    let mut corpus: Vec<(String, Vec<u8>)> = Vec::new();
    for cut in (0..pristine.len()).step_by((pristine.len() / 16).max(1)) {
        corpus.push((format!("truncation at {cut}"), pristine[..cut].to_vec()));
    }
    let mut rng = SmallRng::seed_from_u64(0xcac4e);
    for _ in 0..24 {
        let at = rng.gen_range(0..pristine.len() as u64) as usize;
        let bit = 1u8 << rng.gen_range(0..8u64);
        let mut bytes = pristine.clone();
        bytes[at] ^= bit;
        corpus.push((format!("bit flip {bit:#04x} at {at}"), bytes));
    }
    corpus.push(("empty".into(), Vec::new()));
    corpus.push(("headerless".into(), b"{\"hello\":1}\n".to_vec()));
    corpus.push(("garbage".into(), b"not a cache entry\n".to_vec()));
    corpus.push(("binary".into(), vec![0x00, 0xff, 0xfe, 0x07, 0x0a]));

    for (i, (label, bytes)) in corpus.iter().enumerate() {
        // Every corpus member is detected by the verifier (the
        // checksum footer covers every byte, so even a single-bit
        // flip that still parses is caught).
        assert!(
            verify_cache_entry(bytes, &header, "fir/gdp").is_err(),
            "{label}: verifier served a corrupt entry"
        );
        // End to end, on a spread of cases (each costs a recompute):
        // detection is reported, the entry is evicted, and the final
        // output is byte-identical to the clean run's.
        if i % 6 == 0 {
            std::fs::write(&entry_path, bytes).expect("plant corrupt entry");
            submit();
            let (stdout, stderr, code) = drain();
            assert_eq!(code, Some(0), "{label}: serve failed: {stderr}");
            assert!(
                stdout.contains("cache entry evicted"),
                "{label}: eviction not reported: {stdout}"
            );
            assert!(!stdout.contains("cache hit"), "{label}: served corrupt entry: {stdout}");
            let redone = std::fs::read(dir.join("out/fir.json")).expect("result");
            assert_eq!(redone, baseline, "{label}: recomputed output differs");
            let healed = std::fs::read(&entry_path).expect("entry rewritten after eviction");
            assert!(
                verify_cache_entry(&healed, &header, "fir/gdp").is_ok(),
                "{label}: healed entry does not verify"
            );
        }
    }
}

/// Regression: a starved GDP run walks the fallback ladder instead of
/// failing outright, and the result records the downgrade chain.
/// Corruption corpus for flight-recorder telemetry: every truncation
/// of a valid snapshot stream and a bit-flip sweep over every region
/// of the record must be *detected* — the damaged record is skipped,
/// counted, and never misparsed into wrong numbers — while all intact
/// records still decode.
#[test]
fn corrupted_telemetry_records_are_skipped_and_never_misparsed() {
    use mcpart::obs::metrics::MetricsRegistry;
    use mcpart::obs::recorder::{parse_telemetry, seal_record};

    // Build a two-record stream the way the recorder frames it.
    let mut registry = MetricsRegistry::new();
    let mut rng = SmallRng::seed_from_u64(41);
    for _ in 0..32 {
        registry.observe("gdp/cut", rng.gen_range(0i64..5000));
        registry.observe("rhop/function.estimator_calls", rng.gen_range(0i64..100_000));
        registry.observe_wall("serve/job", rng.gen_range(0u64..2_000_000));
    }
    let record = |run: u64, seq: u64, completed: i64| {
        seal_record(&format!(
            "{{\"mcpart_telemetry\":1,\"run\":{run},\"seq\":{seq},\"counters\":{{\
             \"completed\":{completed}}},\"metrics\":{}",
            registry.to_json()
        ))
    };
    let stream = format!("{}{}", record(1, 0, 1), record(1, 1, 2));
    let baseline = parse_telemetry(&stream);
    assert_eq!((baseline.snapshots.len(), baseline.skipped), (2, 0));

    // Truncation sweep: cutting anywhere inside the second record
    // loses exactly that record; the first still decodes with its
    // numbers intact.
    let first_len = stream.find("\n").expect("newline") + 1;
    for cut in first_len..stream.len() - 1 {
        let log = parse_telemetry(&stream[..cut]);
        assert_eq!(log.snapshots.len(), 1, "cut at {cut}: valid prefix lost");
        assert_eq!(log.snapshots[0].counters, vec![("completed".to_string(), 1)]);
    }

    // Bit-flip sweep: every region of a record (framing, counters,
    // histogram payload, checksum footer) is covered by the checksum.
    let bytes = stream.as_bytes();
    for pos in (0..first_len - 1).step_by(7) {
        for mask in [0x01u8, 0x20] {
            let mut flipped = bytes.to_vec();
            flipped[pos] ^= mask;
            if flipped[pos] == b'\n' || bytes[pos] == b'\n' {
                continue; // changing framing splits lines; separate case below
            }
            let Ok(text) = String::from_utf8(flipped) else { continue };
            let log = parse_telemetry(&text);
            assert_eq!(
                log.snapshots.len(),
                1,
                "flip at {pos} (mask {mask:#x}) went undetected or killed record 2"
            );
            assert_eq!(log.skipped, 1, "flip at {pos} not counted as skipped");
            assert_eq!(
                log.snapshots[0].counters,
                vec![("completed".to_string(), 2)],
                "flip at {pos} misparsed into wrong numbers"
            );
        }
    }

    // Garbage lines and torn tails between valid records are skipped.
    let littered = format!(
        "not json\n{}{{\"mcpart_telemetry\":1,\"run\":9\n{}",
        record(1, 0, 1),
        record(2, 0, 3)
    );
    let log = parse_telemetry(&littered);
    assert_eq!(log.snapshots.len(), 2, "valid records lost among garbage");
    assert_eq!(log.skipped, 2);
    let (reg, counters) = log.merged();
    assert_eq!(counters, vec![("completed".to_string(), 4)], "runs must sum");
    assert!(!reg.is_empty());
}

#[test]
fn starved_gdp_falls_back_through_the_ladder() {
    let mut rng = SmallRng::seed_from_u64(7);
    let program = realize(&gen_program(&mut rng));
    let profile = profile_run(&program, &[], ExecConfig::default()).expect("executes");
    let machine = Machine::paper_2cluster(5);
    let mut cfg = PipelineConfig::new(Method::Gdp);
    cfg.gdp.fuel = Some(0); // GDP's graph partitioner cannot take a single step
    cfg.validate = true;
    let run = run_pipeline(&program, &profile, &machine, &cfg).expect("ladder recovers");
    assert_eq!(run.requested_method, Method::Gdp);
    assert_eq!(run.method, Method::ProfileMax);
    assert_eq!(run.downgrades.len(), 1);
    assert_eq!(run.downgrades[0].from, Method::Gdp);
    assert_eq!(run.downgrades[0].to, Method::ProfileMax);
    assert!(run.cycles() > 0);
}
