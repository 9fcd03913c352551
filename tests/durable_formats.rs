//! Byte-exact pins of every durable on-disk format: a checkpoint
//! (header, unit record, manifest), a serve cache entry with its
//! checksum footer, a sealed flight-recorder line, the spool's `.ptr`
//! baseline pointer and `.requeues` sidecar, and the four kinds of
//! serve result file.
//!
//! The round-trip tests elsewhere would not notice a format drift (a
//! writer and reader that change together still agree); these tests
//! render each format from fixed inputs and compare the exact bytes, so
//! files written by an older build keep loading.

use mcpart::core::{
    render_cache_entry, CheckpointHeader, CheckpointWriter, Downgrade, Manifest, ManifestFunc,
    Method, PinnedEvent, UnitRecord,
};
use mcpart::ir::{program_to_string, DataObject, FunctionBuilder, MemWidth, Program};
use mcpart::obs::metrics::MetricsRegistry;
use mcpart::obs::recorder::{seal_record, FlightRecorder, TELEMETRY_LOG};
use mcpart::par::supervise::QuarantinedUnit;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcpart_format_pin_{test}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn header() -> CheckpointHeader {
    CheckpointHeader {
        program: "pin".to_string(),
        program_hash: 0x0123_4567_89ab_cdef,
        seed: 17,
        clusters: 2,
        latency: 5,
        memory: "coherent:3".to_string(),
        gdp_fuel: Some(1000),
    }
}

fn record() -> UnitRecord {
    UnitRecord {
        unit: "pin/gdp".to_string(),
        requested: Method::Gdp,
        method: Method::ProfileMax,
        downgrades: vec![Downgrade {
            from: Method::Gdp,
            to: Method::ProfileMax,
            reason: "fuel \"0\"".to_string(),
        }],
        op_cluster: vec![vec![0, 1, 1], vec![]],
        object_home: vec![1, -1],
        cycles: 1234,
        dynamic_moves: 56,
        remote: 7,
        moves_inserted: 8,
        detailed_runs: 2,
        data_bytes: vec![64, 0],
        retries: 1,
        quarantine: vec![QuarantinedUnit {
            unit: "helper".to_string(),
            attempts: 3,
            reason: "boom".to_string(),
        }],
        pressure: 9,
        partition_ms: 12.5,
        events: vec![
            PinnedEvent {
                cat: "gdp".to_string(),
                name: "cut".to_string(),
                counter: Some(42),
                args: vec![],
            },
            PinnedEvent {
                cat: "rhop".to_string(),
                name: "func".to_string(),
                counter: None,
                args: vec![("ops".to_string(), 3)],
            },
        ],
    }
}

fn manifest() -> Manifest {
    Manifest {
        unit: "pin/gdp".to_string(),
        funcs: vec![
            ManifestFunc {
                name: "main".to_string(),
                hash: 0xdead_beef,
                groups: vec![1, 2],
                op_cluster: vec![0, 1],
                stats: [1, 2, 3, 4, 5, 6, 7],
                retries: 0,
            },
            ManifestFunc {
                name: "helper".to_string(),
                hash: 3,
                groups: vec![],
                op_cluster: vec![],
                stats: [0; 7],
                retries: u64::MAX,
            },
        ],
        groups: vec![(1, 0), (2, -1)],
    }
}

const HEADER_LINE: &str = "{\"mcpart_checkpoint\":1,\"program\":\"pin\",\
\"program_hash\":\"0123456789abcdef\",\"seed\":\"17\",\"clusters\":2,\"latency\":5,\
\"memory\":\"coherent:3\",\"gdp_fuel\":1000}";

const RECORD_LINE: &str = "{\"unit\":\"pin/gdp\",\"requested\":\"gdp\",\
\"method\":\"profile-max\",\"downgrades\":[{\"from\":\"gdp\",\"to\":\"profile-max\",\
\"reason\":\"fuel \\\"0\\\"\"}],\"op_cluster\":[[0,1,1],[]],\"object_home\":[1,-1],\
\"cycles\":1234,\"dynamic_moves\":56,\"remote\":7,\"moves_inserted\":8,\"detailed_runs\":2,\
\"retries\":1,\"pressure\":9,\"partition_ms\":12.500,\"data_bytes\":[64,0],\
\"quarantine\":[{\"unit\":\"helper\",\"attempts\":3,\"reason\":\"boom\"}],\
\"events\":[{\"cat\":\"gdp\",\"name\":\"cut\",\"counter\":42,\"args\":[]},\
{\"cat\":\"rhop\",\"name\":\"func\",\"args\":[[\"ops\",3]]}]}";

const MANIFEST_LINE: &str = "{\"mcpart_manifest\":1,\"unit\":\"pin/gdp\",\
\"funcs\":[{\"name\":\"main\",\"hash\":\"00000000deadbeef\",\
\"groups\":[\"0000000000000001\",\"0000000000000002\"],\"op_cluster\":[0,1],\
\"stats\":[1,2,3,4,5,6,7],\"retries\":0},{\"name\":\"helper\",\"hash\":\"0000000000000003\",\
\"groups\":[],\"op_cluster\":[],\"stats\":[0,0,0,0,0,0,0],\"retries\":-1}],\
\"groups\":[[\"0000000000000001\",0],[\"0000000000000002\",-1]]}";

#[test]
fn checkpoint_bytes_are_pinned() {
    let dir = scratch("checkpoint");
    let path = dir.join("pin.ck");
    let path_str = path.to_str().expect("utf-8 path");
    {
        let mut w = CheckpointWriter::create(path_str, &header()).expect("create");
        w.append(&record()).expect("append");
        w.append_manifest(&manifest()).expect("append manifest");
    }
    let want = format!("{HEADER_LINE}\n{RECORD_LINE}\n{MANIFEST_LINE}\n");
    assert_eq!(fs::read_to_string(&path).expect("read"), want);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cache_entry_bytes_are_pinned() {
    let entry = render_cache_entry(&header(), &record(), Some(&manifest()));
    let want = format!(
        "{HEADER_LINE}\n{RECORD_LINE}\n{MANIFEST_LINE}\n\
         {{\"mcpart_cache_sum\":\"9391e1a82964a14b\"}}\n"
    );
    assert_eq!(entry, want);
}

fn registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.observe("gdp/cut", 5);
    reg.observe_wall("serve/job", 1500);
    reg
}

#[test]
fn telemetry_line_bytes_are_pinned() {
    let body = format!(
        "{{\"mcpart_telemetry\":1,\"run\":1,\"seq\":0,\"counters\":{{\"admitted\":2}},\
         \"metrics\":{}",
        registry().to_json()
    );
    let want = "{\"mcpart_telemetry\":1,\"run\":1,\"seq\":0,\"counters\":{\"admitted\":2},\
\"metrics\":{\"gdp/cut\":{\"pinned\":true,\"count\":1,\"sum\":5,\"min\":5,\"max\":5,\
\"buckets\":[[3,1]]},\"serve/job\":{\"pinned\":false,\"count\":1,\"sum\":1500,\"min\":1500,\
\"max\":1500,\"buckets\":[[11,1]]}},\"sum\":\"146d0beec2e48c93\"}\n";
    assert_eq!(seal_record(&body), want);
    // The recorder appends exactly the sealed line and mirrors it to
    // `latest.json`.
    let dir = scratch("telemetry");
    let mut rec = FlightRecorder::open(&dir).expect("open");
    rec.record(&[("admitted", 2)], &registry()).expect("record");
    assert_eq!(fs::read_to_string(dir.join(TELEMETRY_LOG)).expect("log"), want);
    assert_eq!(fs::read_to_string(dir.join("latest.json")).expect("latest"), want);
    let _ = fs::remove_dir_all(&dir);
}

fn pin_program() -> Program {
    let mut program = Program::new("pin");
    let table = program.add_object(DataObject::global("table", 64));
    let mut b = FunctionBuilder::entry(&mut program);
    let base = b.addrof(table);
    let v = b.load(MemWidth::B4, base);
    let w = b.add(v, v);
    b.store(MemWidth::B4, base, w);
    b.ret(None);
    program
}

/// Runs `mcpart serve <dir> <args...>` and returns its exit code.
fn serve(dir: &Path, args: &[&str]) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_mcpart"))
        .arg("serve")
        .arg(dir)
        .args(["--drain", "--telemetry-every", "0"])
        .args(args)
        .output()
        .expect("binary runs");
    out.status.code()
}

#[test]
fn spool_pointer_and_requeue_sidecar_bytes_are_pinned() {
    let dir = scratch("spool");
    let program = dir.join("pin.mcir");
    fs::write(&program, program_to_string(&pin_program())).expect("program");
    let job = format!("{{\"mcpart_job\":1,\"program\":\"{}\"}}\n", program.display());

    // A completed job publishes a `.ptr` naming its cache entry.
    fs::write(dir.join("a.job"), &job).expect("job");
    assert_eq!(serve(&dir, &[]), Some(0));
    let mut ptrs: Vec<_> = fs::read_dir(dir.join("cache"))
        .expect("cache dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8 name"))
        .filter(|n| n.ends_with(".ptr"))
        .collect();
    ptrs.sort();
    assert_eq!(ptrs, ["name_ca389326d3053ed0.ptr"]);
    assert_eq!(
        fs::read_to_string(dir.join("cache").join(&ptrs[0])).expect("ptr"),
        "6b3ceb441a12c37c\n"
    );

    // A job that dies before its commit twice is requeued once by the
    // second startup, which tallies it in a `.requeues` sidecar.
    fs::write(dir.join("b.job"), &job).expect("job");
    for _ in 0..2 {
        assert_ne!(serve(&dir, &["--fault", "halt:0"]), Some(0), "the halted run must die");
    }
    assert_eq!(fs::read_to_string(dir.join("b.requeues")).expect("sidecar"), "1\n");
    let _ = fs::remove_dir_all(&dir);
}

/// The four shapes of a serve result file: `ok` with its record,
/// `quarantined` (a record plus the quarantine reason), `invalid` (an
/// unusable job file) and `overloaded` (shed by admission control).
#[test]
fn serve_result_file_bytes_are_pinned() {
    let dir = scratch("results");
    let program = dir.join("pin.mcir");
    fs::write(&program, program_to_string(&pin_program())).expect("program");
    let job = |extra: &str| {
        format!("{{\"mcpart_job\":1,\"program\":\"{}\"{extra}}}\n", program.display())
    };
    fs::write(dir.join("a_ok.job"), job("")).expect("job");
    fs::write(dir.join("b_quarantined.job"), job(",\"fault\":\"panic:main\"")).expect("job");
    fs::write(dir.join("c_invalid.job"), "not json\n").expect("job");
    fs::write(dir.join("d_overloaded.job"), job("")).expect("job");
    assert_eq!(serve(&dir, &["--queue", "3"]), Some(0));
    let out = |stem: &str| {
        fs::read_to_string(dir.join("out").join(format!("{stem}.json"))).expect("result file")
    };
    assert_eq!(out("a_ok"), OK_RESULT);
    assert_eq!(out("b_quarantined"), QUARANTINED_RESULT);
    assert_eq!(out("c_invalid"), INVALID_RESULT);
    assert_eq!(out("d_overloaded"), OVERLOADED_RESULT);
    let _ = fs::remove_dir_all(&dir);
}

const OK_RESULT: &str = r#"{"mcpart_result":1,"job":"a_ok","status":"ok","exit":0,"unit":"pin/gdp","requested":"gdp","method":"gdp","downgrades":0,"cycles":6,"dynamic_moves":0,"remote":0,"moves_inserted":0,"retries":0,"pressure":0,"quarantine":[],"data_bytes":[64,0]}
"#;

const QUARANTINED_RESULT: &str = r#"{"mcpart_result":1,"job":"b_quarantined","status":"quarantined","exit":1,"unit":"pin/gdp","requested":"gdp","method":"gdp","downgrades":0,"cycles":6,"dynamic_moves":0,"remote":0,"moves_inserted":0,"retries":0,"pressure":0,"quarantine":["main"],"data_bytes":[64,0],"reason":"main (3 attempts): injected fault in `main` (attempt 2)"}
"#;

const INVALID_RESULT: &str = r#"{"mcpart_result":1,"job":"c_invalid","status":"invalid","exit":2,"reason":"not a JSON job file: invalid literal at byte 0"}
"#;

const OVERLOADED_RESULT: &str = r#"{"mcpart_result":1,"job":"d_overloaded","status":"overloaded","exit":1,"reason":"admission queue full (bound 3)"}
"#;
