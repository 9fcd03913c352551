//! Shared scaffolding for workload generators.

use mcpart_ir::{
    BlockId, Cmp, FuncId, FunctionBuilder, MemWidth, ObjectId, Profile, Program, VReg,
};
use mcpart_sim::{profile_run, ExecConfig};
use std::fmt;

/// Which benchmark suite a workload belongs to (the paper evaluates
/// Mediabench plus a set of DSP kernels).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Suite {
    /// Mediabench-style media applications.
    Mediabench,
    /// DSP kernels.
    Dsp,
    /// Parameterized synthetic scale programs ([`SynthSpec`]).
    Synthetic,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::Mediabench => f.write_str("mediabench"),
            Suite::Dsp => f.write_str("dsp"),
            Suite::Synthetic => f.write_str("synthetic"),
        }
    }
}

/// Why a candidate workload could not be constructed. The named
/// generators in this crate are trusted (a failure is a bug and the
/// panicking constructors are appropriate); spec-driven synthetic
/// generation flows through the `try_` constructors so a bad input
/// surfaces as a diagnostic instead of a crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadError {
    /// The program failed IR verification.
    Verification {
        /// Workload name.
        name: String,
        /// Verifier diagnostic.
        detail: String,
    },
    /// The profiling execution failed.
    Execution {
        /// Workload name.
        name: String,
        /// Simulator diagnostic.
        detail: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Verification { name, detail } => {
                write!(f, "workload {name} fails verification: {detail}")
            }
            WorkloadError::Execution { name, detail } => {
                write!(f, "workload {name} fails execution: {detail}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A benchmark: a verified program plus the execution profile gathered
/// by actually running it in the functional simulator (so block
/// frequencies and heap sizes are exact, as with the paper's profiling
/// runs).
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name (mirrors the paper's benchmark names).
    pub name: String,
    /// Suite membership.
    pub suite: Suite,
    /// The program.
    pub program: Program,
    /// Profile from a real execution.
    pub profile: Profile,
}

impl Workload {
    /// Verifies `program`, executes it once to gather the profile, and
    /// wraps the result.
    ///
    /// # Panics
    ///
    /// Panics if the program fails verification or execution — workload
    /// generators are expected to produce correct programs.
    pub fn from_program(name: impl Into<String>, suite: Suite, program: Program) -> Self {
        Workload::try_from_program(name, suite, program).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Workload::from_program`]: verifies and
    /// profiles `program`, returning a typed error instead of
    /// panicking. Use this for programs built from untrusted input
    /// (spec strings, service job files).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] when verification or the profiling
    /// execution fails.
    pub fn try_from_program(
        name: impl Into<String>,
        suite: Suite,
        program: Program,
    ) -> Result<Self, WorkloadError> {
        let name = name.into();
        mcpart_ir::verify_program(&program).map_err(|e| WorkloadError::Verification {
            name: name.clone(),
            detail: e.to_string(),
        })?;
        let profile = profile_run(&program, &[], ExecConfig::default())
            .map_err(|e| WorkloadError::Execution { name: name.clone(), detail: e.to_string() })?;
        Ok(Workload { name, suite, program, profile })
    }

    /// Wraps an already-profiled program: verification only, no
    /// simulator run. Used by the synthetic generator, whose analytic
    /// profile makes executing a million-op program unnecessary.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Verification`] when the program fails
    /// verification.
    pub fn try_from_parts(
        name: impl Into<String>,
        suite: Suite,
        program: Program,
        profile: Profile,
    ) -> Result<Self, WorkloadError> {
        let name = name.into();
        mcpart_ir::verify_program(&program).map_err(|e| WorkloadError::Verification {
            name: name.clone(),
            detail: e.to_string(),
        })?;
        Ok(Workload { name, suite, program, profile })
    }

    /// Number of data objects.
    pub fn num_objects(&self) -> usize {
        self.program.objects.len()
    }

    /// Total operation count.
    pub fn num_ops(&self) -> usize {
        self.program.num_ops()
    }
}

/// The blocks created by [`counted_loop`].
#[derive(Clone, Copy, Debug)]
pub struct Loop {
    /// Condition-check block (executes `trips + 1` times).
    pub header: BlockId,
    /// First body block.
    pub body: BlockId,
    /// Block holding the induction increment and back-edge.
    pub latch: BlockId,
    /// Block control falls into after the loop.
    pub exit: BlockId,
    /// The induction variable (0, 1, ..., trips-1 inside the body).
    pub ivar: VReg,
}

/// Emits a counted loop `for i in 0..trips { body }` at the builder's
/// current position, leaving the builder in the exit block.
///
/// The body closure receives the induction variable; it may create
/// additional blocks but must leave the builder in a block that falls
/// through to the latch (i.e. not terminated).
pub fn counted_loop(
    b: &mut FunctionBuilder<'_>,
    trips: i64,
    body_fn: impl FnOnce(&mut FunctionBuilder<'_>, VReg),
) -> Loop {
    let i = b.iconst(0);
    let n = b.iconst(trips);
    let header = b.block("loop.header");
    let body = b.block("loop.body");
    let exit = b.block("loop.exit");
    b.jump(header);
    b.switch_to(header);
    let c = b.icmp(Cmp::Lt, i, n);
    b.branch(c, body, exit);
    b.switch_to(body);
    body_fn(b, i);
    let latch = b.current_block();
    let one = b.iconst(1);
    let next = b.add(i, one);
    b.mov_to(i, next);
    b.jump(header);
    b.switch_to(exit);
    Loop { header, body, latch, exit, ivar: i }
}

/// Emits a counted loop over `0..trips` whose body is replicated
/// `unroll` times per iteration (`idx = i*unroll + u`), exposing
/// instruction-level parallelism the way the paper's hyperblock-forming
/// compiler does. `trips` must be divisible by `unroll`.
///
/// # Panics
///
/// Panics if `trips % unroll != 0` or `unroll == 0`.
pub fn unrolled_loop(
    b: &mut FunctionBuilder<'_>,
    trips: i64,
    unroll: i64,
    mut body_fn: impl FnMut(&mut FunctionBuilder<'_>, VReg),
) -> Loop {
    assert!(unroll > 0 && trips % unroll == 0, "trips must divide by unroll");
    counted_loop(b, trips / unroll, |b, i| {
        let u = b.iconst(unroll);
        let base = b.mul(i, u);
        for k in 0..unroll {
            let kc = b.iconst(k);
            let idx = b.add(base, kc);
            body_fn(b, idx);
        }
    })
}

/// Loads `table[index]` of 4-byte elements.
pub fn load_elem4(b: &mut FunctionBuilder<'_>, table: ObjectId, index: VReg) -> VReg {
    let base = b.addrof(table);
    let four = b.iconst(4);
    let off = b.mul(index, four);
    let addr = b.add(base, off);
    b.load(MemWidth::B4, addr)
}

/// Stores a 4-byte `value` to `table[index]`.
pub fn store_elem4(b: &mut FunctionBuilder<'_>, table: ObjectId, index: VReg, value: VReg) {
    let base = b.addrof(table);
    let four = b.iconst(4);
    let off = b.mul(index, four);
    let addr = b.add(base, off);
    b.store(MemWidth::B4, addr, value);
}

/// Loads `buf[index]` of 4-byte elements from a pointer register.
pub fn load_ptr4(b: &mut FunctionBuilder<'_>, base: VReg, index: VReg) -> VReg {
    let four = b.iconst(4);
    let off = b.mul(index, four);
    let addr = b.add(base, off);
    b.load(MemWidth::B4, addr)
}

/// Stores a 4-byte `value` to `buf[index]` through a pointer register.
pub fn store_ptr4(b: &mut FunctionBuilder<'_>, base: VReg, index: VReg, value: VReg) {
    let four = b.iconst(4);
    let off = b.mul(index, four);
    let addr = b.add(base, off);
    b.store(MemWidth::B4, addr, value);
}

/// Emits `min(max(v, lo), hi)` with constants.
pub fn clamp_const(b: &mut FunctionBuilder<'_>, v: VReg, lo: i64, hi: i64) -> VReg {
    let lo = b.iconst(lo);
    let hi = b.iconst(hi);
    let t = b.ibin(mcpart_ir::IntBinOp::Max, v, lo);
    b.ibin(mcpart_ir::IntBinOp::Min, t, hi)
}

/// Fills a 4-byte-element table with a deterministic pseudo-random-ish
/// pattern `value(i) = ((i * mul + add) >> shr) & mask` in an init loop,
/// so loads observe varied data and data-dependent branches exercise
/// both sides.
pub fn init_table4(
    b: &mut FunctionBuilder<'_>,
    table: ObjectId,
    elems: i64,
    mul: i64,
    add: i64,
    mask: i64,
) -> Loop {
    counted_loop(b, elems, |b, i| {
        let m = b.iconst(mul);
        let a = b.iconst(add);
        let mk = b.iconst(mask);
        let v0 = b.mul(i, m);
        let v1 = b.add(v0, a);
        let v2 = b.and(v1, mk);
        store_elem4(b, table, i, v2);
    })
}

/// Parameter set for the synthetic scale generator: a seeded,
/// layer-structured program whose size is controlled precisely enough
/// to hit a target static operation count (10⁴ … 10⁶ and beyond).
///
/// The generated program is a call *tree*: `funcs` functions arranged
/// in `depth` layers, every function invoked exactly once, each running
/// one counted loop of `trips` iterations whose body is ~`region_ops`
/// operations of masked table loads/compute/stores over a subset of
/// `objects` global tables (`sharing` tables per function, overlapping
/// across functions so data partitioning has real cross-function
/// conflicts). Because every function runs exactly once and every loop
/// is counted, the execution profile is *analytic* — block frequencies
/// are written down instead of simulated, so million-op programs need
/// no simulator run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SynthSpec {
    /// Total function count (≥ 1; clamped up to `depth`).
    pub funcs: usize,
    /// Call-graph depth in layers (entry is layer 0).
    pub depth: usize,
    /// Approximate operations per loop-body region.
    pub region_ops: usize,
    /// Global table count.
    pub objects: usize,
    /// Tables accessed per function (sharing across functions rises
    /// with `funcs * sharing / objects`).
    pub sharing: usize,
    /// Loop trip count per function (≥ 1); sets the hot-block
    /// frequency in the analytic profile.
    pub trips: i64,
    /// Seed varying table sizes and per-function access mixes.
    pub seed: u64,
}

/// A malformed synthetic-spec string: what went wrong and where.
///
/// `column` is the 1-based byte offset of the offending key or value
/// inside the spec string, so a shell user can count from the start of
/// the argument (`spec column 15: ...`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthSpecError {
    /// 1-based byte offset of the offending token in the spec string.
    pub column: usize,
    /// What was wrong with it.
    pub message: String,
}

impl SynthSpecError {
    fn at(column: usize, message: impl Into<String>) -> Self {
        SynthSpecError { column, message: message.into() }
    }
}

impl fmt::Display for SynthSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec column {}: {}", self.column, self.message)
    }
}

impl std::error::Error for SynthSpecError {}

/// Ops in one load/compute/store body unit (2 mask, 5 load, 1 add,
/// 5 store).
const UNIT_OPS: usize = 13;
/// Fixed per-function op overhead (loop scaffolding, call-argument
/// seed, return chaining).
const FUNC_OVERHEAD_OPS: usize = 8;

impl Default for SynthSpec {
    fn default() -> Self {
        SynthSpec {
            funcs: 16,
            depth: 4,
            region_ops: 96,
            objects: 16,
            sharing: 2,
            trips: 64,
            seed: 0x5eed,
        }
    }
}

impl SynthSpec {
    /// A spec sized to produce roughly `ops` static operations, with
    /// default region size, depth, trips, and seed. Object count scales
    /// with the function count.
    pub fn with_target_ops(ops: usize) -> Self {
        let mut spec = SynthSpec::default();
        spec.set_target_ops(ops);
        spec
    }

    fn set_target_ops(&mut self, ops: usize) {
        let units = self.region_ops.div_ceil(UNIT_OPS).max(1);
        let per_func = units * UNIT_OPS + FUNC_OVERHEAD_OPS;
        self.funcs = (ops / per_func).max(self.depth).max(1);
        self.objects = (self.funcs / 4).clamp(8, 1 << 16);
    }

    /// Parses a spec string: either a preset name (`synth_10k`,
    /// `synth_100k`, `synth_1m`) or a comma-separated `key=value` list
    /// with keys `ops`, `funcs`, `depth`, `region`, `objects`,
    /// `sharing`, `trips`, `seed` (e.g.
    /// `ops=100000,trips=32,seed=7`). Unknown keys are errors, and
    /// every value is range-checked before it is narrowed — a trip
    /// count that would have wrapped the internal `i64` is rejected
    /// with a diagnostic instead of silently becoming 1.
    ///
    /// # Errors
    ///
    /// Returns a [`SynthSpecError`] locating the offending key or
    /// value by column.
    pub fn parse(spec: &str) -> Result<SynthSpec, SynthSpecError> {
        match spec {
            "synth_10k" => return Ok(SynthSpec::with_target_ops(10_000)),
            "synth_100k" => return Ok(SynthSpec::with_target_ops(100_000)),
            "synth_1m" => return Ok(SynthSpec::with_target_ops(1_000_000)),
            _ => {}
        }
        let mut out = SynthSpec::default();
        let mut target_ops = None;
        let mut offset = 0usize; // byte offset of the current pair
        for pair in spec.split(',') {
            let key_col = offset + 1;
            offset += pair.len() + 1;
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair.split_once('=').ok_or_else(|| {
                SynthSpecError::at(key_col, format!("expected key=value, got `{pair}`"))
            })?;
            let value_col = key_col + key.len() + 1;
            let num: u64 = value.parse().map_err(|_| {
                SynthSpecError::at(value_col, format!("`{key}` needs a number, got `{value}`"))
            })?;
            // Every value is bounded before narrowing, so the `as`
            // casts below cannot truncate or wrap on any target.
            let capped = |hi: u64| -> Result<u64, SynthSpecError> {
                if (1..=hi).contains(&num) {
                    Ok(num)
                } else {
                    Err(SynthSpecError::at(
                        value_col,
                        format!("`{key}` must be between 1 and {hi}, got {num}"),
                    ))
                }
            };
            match key {
                "ops" => target_ops = Some(capped(100_000_000)? as usize),
                "funcs" => out.funcs = capped(1_000_000)? as usize,
                "depth" => out.depth = capped(64)? as usize,
                "region" => out.region_ops = capped(65_536)? as usize,
                "objects" => out.objects = capped(1_000_000)? as usize,
                "sharing" => out.sharing = capped(4_096)? as usize,
                "trips" => out.trips = capped(1_000_000_000)? as i64,
                "seed" => out.seed = num,
                _ => {
                    return Err(SynthSpecError::at(key_col, format!("unknown spec key `{key}`")));
                }
            }
        }
        if let Some(ops) = target_ops {
            out.set_target_ops(ops);
        }
        Ok(out)
    }

    /// The analytic profile is exact, so generation is pure IR
    /// construction plus verification — no simulator run. See
    /// [`SynthSpec`] for the program shape.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Verification`] if the generated
    /// program fails verification (a generator bug, not an input error
    /// — every parsed spec generates a valid program).
    pub fn try_generate(&self, name: impl Into<String>) -> Result<Workload, WorkloadError> {
        let funcs = self.funcs.max(self.depth).max(1);
        let depth = self.depth.min(funcs).max(1);
        let trips = self.trips.max(1);
        let units = self.region_ops.div_ceil(UNIT_OPS).max(1);
        let mut rng = self.seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng >> 33
        };

        let mut program = Program::new("synth");
        // Tables: power-of-two element counts so an `and` mask keeps
        // every access in bounds.
        let tables: Vec<(ObjectId, i64)> = (0..self.objects.max(1))
            .map(|k| {
                let elems = 64i64 << (next() % 4); // 64..512 elements
                let obj = program
                    .add_object(mcpart_ir::DataObject::global(format!("tbl{k}"), elems as u64 * 4));
                (obj, elems - 1)
            })
            .collect();
        let table_of = |f: usize, j: usize, salt: u64| -> (ObjectId, i64) {
            // Fold the salt modularly in u64 *before* narrowing: the
            // index is unchanged mod `tables.len()`, and the sum can
            // no longer truncate or overflow on 32-bit targets.
            let salt = (salt % tables.len() as u64) as usize;
            tables[(f * self.sharing.max(1) + j + salt) % tables.len()]
        };

        // Layer sizes: entry alone in layer 0, the rest spread evenly.
        let mut layer_sizes = vec![1usize];
        let rest = funcs - 1;
        let lower = depth - 1;
        for d in 0..lower {
            layer_sizes.push(rest / lower.max(1) + usize::from(d < rest % lower.max(1)));
        }
        layer_sizes.retain(|&s| s > 0);

        // Build deepest layer first so callee ids exist; every function
        // in layer d+1 is called by exactly one function in layer d
        // (round-robin), so each function runs exactly once.
        let mut func_meta: Vec<(FuncId, Loop)> = Vec::new();
        let mut children: Vec<FuncId> = Vec::new();
        for d in (1..layer_sizes.len()).rev() {
            let size = layer_sizes[d];
            let mut ids = Vec::with_capacity(size);
            for s in 0..size {
                let mut b = FunctionBuilder::new_function(&mut program, format!("f{d}_{s}"));
                let param = b.param();
                let my_children: Vec<FuncId> = children
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % size == s)
                    .map(|(_, &c)| c)
                    .collect();
                let salt = next();
                let lp = counted_loop(&mut b, trips, |b, i| {
                    for u in 0..units {
                        let (t, mask) = table_of(d * 131 + s, u, salt);
                        let mkc = b.iconst(mask);
                        let idx = b.and(i, mkc);
                        let v = load_elem4(b, t, idx);
                        let x = b.add(v, param);
                        store_elem4(b, t, idx, x);
                    }
                });
                let mut acc = param;
                for &child in &my_children {
                    let r = b.call(child, vec![acc], 1);
                    acc = r[0];
                }
                b.ret(Some(acc));
                ids.push(b.func_id());
                func_meta.push((b.func_id(), lp));
            }
            children = ids;
        }
        // Entry (layer 0) calls every layer-1 function.
        let mut b = FunctionBuilder::entry(&mut program);
        let salt = next();
        let seed_v = b.iconst((self.seed & 0xFFFF) as i64);
        let lp = counted_loop(&mut b, trips, |b, i| {
            for u in 0..units {
                let (t, mask) = table_of(0, u, salt);
                let mkc = b.iconst(mask);
                let idx = b.and(i, mkc);
                let v = load_elem4(b, t, idx);
                let x = b.add(v, seed_v);
                store_elem4(b, t, idx, x);
            }
        });
        let mut acc = seed_v;
        for &child in &children {
            let r = b.call(child, vec![acc], 1);
            acc = r[0];
        }
        b.ret(Some(acc));
        func_meta.push((b.func_id(), lp));

        // Analytic profile: every function runs once, so every block
        // executes once except the loop header (`trips + 1`) and body
        // (`trips`).
        let mut profile = Profile::uniform(&program, 1);
        for &(fid, lp) in &func_meta {
            profile.funcs[fid].block_freq[lp.header] = (trips + 1) as u64;
            profile.funcs[fid].block_freq[lp.body] = trips as u64;
        }
        Workload::try_from_parts(name, Suite::Synthetic, program, profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpart_ir::DataObject;

    #[test]
    fn counted_loop_runs_expected_trips() {
        let mut p = Program::new("t");
        let acc_obj = p.add_object(DataObject::global("acc", 4));
        let mut b = FunctionBuilder::entry(&mut p);
        let lp = counted_loop(&mut b, 10, |b, i| {
            let base = b.addrof(acc_obj);
            let cur = b.load(MemWidth::B4, base);
            let next = b.add(cur, i);
            b.store(MemWidth::B4, base, next);
        });
        let base = b.addrof(acc_obj);
        let v = b.load(MemWidth::B4, base);
        b.ret(Some(v));
        let w = Workload::from_program("loop10", Suite::Dsp, p);
        // Sum 0..10 = 45.
        let r = mcpart_sim::run(&w.program, &[], ExecConfig::default()).unwrap();
        assert_eq!(r.return_value, Some(mcpart_sim::Value::Int(45)));
        assert_eq!(w.profile.block_freq(w.program.entry, lp.body), 10);
        assert_eq!(w.profile.block_freq(w.program.entry, lp.header), 11);
    }

    #[test]
    fn init_table_fills_values() {
        let mut p = Program::new("t");
        let table = p.add_object(DataObject::global("tbl", 32));
        let mut b = FunctionBuilder::entry(&mut p);
        init_table4(&mut b, table, 8, 3, 1, 0xFF);
        let idx = b.iconst(5);
        let v = load_elem4(&mut b, table, idx);
        b.ret(Some(v));
        let r = mcpart_sim::run(&p, &[], ExecConfig::default()).unwrap();
        assert_eq!(r.return_value, Some(mcpart_sim::Value::Int((5 * 3 + 1) & 0xFF)));
    }

    #[test]
    fn unrolled_loop_matches_rolled_semantics() {
        use mcpart_ir::DataObject;
        let build = |unroll: i64| {
            let mut p = Program::new("t");
            let acc_obj = p.add_object(DataObject::global("acc", 4));
            let mut b = FunctionBuilder::entry(&mut p);
            unrolled_loop(&mut b, 12, unroll, |b, i| {
                let base = b.addrof(acc_obj);
                let cur = b.load(MemWidth::B4, base);
                let next = b.add(cur, i);
                b.store(MemWidth::B4, base, next);
            });
            let base = b.addrof(acc_obj);
            let v = b.load(MemWidth::B4, base);
            b.ret(Some(v));
            mcpart_sim::run(&p, &[], ExecConfig::default()).unwrap().return_value
        };
        // Sum 0..12 regardless of the unroll factor.
        assert_eq!(build(1), build(4));
        assert_eq!(build(2), build(3));
        assert_eq!(build(1), Some(mcpart_sim::Value::Int(66)));
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn unrolled_loop_rejects_non_divisible() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        unrolled_loop(&mut b, 10, 3, |_b, _i| {});
    }

    #[test]
    fn synth_analytic_profile_matches_simulation() {
        // At small scale the generated program is cheap to actually run:
        // the analytic profile must agree exactly with the simulator's.
        let spec = SynthSpec::parse("funcs=9,depth=3,region=40,objects=6,trips=8,seed=11")
            .expect("valid spec");
        let w = spec.try_generate("synth_test").expect("generates");
        let actual = profile_run(&w.program, &[], ExecConfig::default()).expect("runs");
        assert_eq!(w.profile, actual);
    }

    #[test]
    fn synth_is_deterministic_and_seed_sensitive() {
        let spec = SynthSpec::parse("ops=2000,seed=5").expect("valid");
        let a = spec.try_generate("a").expect("generates");
        let b = spec.try_generate("b").expect("generates");
        assert_eq!(a.program, b.program);
        assert_eq!(a.profile, b.profile);
        let other = SynthSpec::parse("ops=2000,seed=6").expect("valid");
        assert_ne!(
            other.try_generate("c").expect("generates").program,
            a.program,
            "seed must matter"
        );
    }

    #[test]
    fn synth_scales_to_target_ops() {
        for (target, lo, hi) in [(10_000usize, 8_000, 14_000), (50_000, 40_000, 65_000)] {
            let w = SynthSpec::with_target_ops(target).try_generate("t").expect("generates");
            let ops = w.num_ops();
            assert!((lo..hi).contains(&ops), "target {target}: ops = {ops}");
            assert!(w.program.functions.len() > 4);
            assert!(w.num_objects() >= 8);
        }
    }

    #[test]
    fn synth_spec_parse_rejects_garbage() {
        assert!(SynthSpec::parse("nope").is_err());
        assert!(SynthSpec::parse("trips=abc").is_err());
        assert!(SynthSpec::parse("widgets=3").is_err());
        assert_eq!(SynthSpec::parse("synth_1m").expect("preset").region_ops, 96);
    }

    #[test]
    fn synth_spec_errors_carry_a_column() {
        // `abc` starts at byte 14 → 1-based column 15.
        let e = SynthSpec::parse("funcs=4,trips=abc").expect_err("bad value");
        assert_eq!(e.column, 15);
        assert!(e.to_string().contains("spec column 15"), "{e}");
        // The unknown key itself is located, not its value.
        let e = SynthSpec::parse("seed=1,widgets=3").expect_err("bad key");
        assert_eq!(e.column, 8);
        // A bare token with no `=` is located too.
        let e = SynthSpec::parse("trips=4,nope").expect_err("bare token");
        assert_eq!(e.column, 9);
    }

    #[test]
    fn synth_spec_parse_range_checks_before_narrowing() {
        // Regression: 2^63 used to wrap `num as i64` negative and then
        // silently clamp to 1 trip. It must be rejected out loud.
        let e = SynthSpec::parse("trips=9223372036854775808").expect_err("wrapping trips");
        assert!(e.to_string().contains("between 1 and"), "{e}");
        // Zero and over-cap values are diagnosed for every sized key.
        for bad in [
            "ops=0",
            "ops=999999999999",
            "funcs=0",
            "funcs=10000000",
            "depth=65",
            "region=65537",
            "objects=0",
            "sharing=4097",
            "trips=0",
        ] {
            assert!(SynthSpec::parse(bad).is_err(), "{bad} must be rejected");
        }
        // Boundary values are accepted; seed takes any u64.
        assert!(SynthSpec::parse("depth=64,sharing=4096,trips=1000000000").is_ok());
        assert_eq!(SynthSpec::parse("seed=18446744073709551615").expect("valid").seed, u64::MAX);
    }

    #[test]
    fn table_salt_indexing_stays_in_bounds_at_extremes() {
        // A single table folds every salted index to 0; maximum
        // sharing over few tables exercises the modular wrap. The
        // generated programs verify, so an out-of-bounds table index
        // would fail generation rather than pass silently.
        let one = SynthSpec::parse("funcs=6,depth=3,region=26,objects=1,sharing=4096,trips=2")
            .expect("valid")
            .try_generate("one_table")
            .expect("generates");
        assert_eq!(one.num_objects(), 1);
        let wrap = SynthSpec::parse("funcs=33,depth=4,region=40,objects=3,sharing=4095,trips=2")
            .expect("valid")
            .try_generate("wrap")
            .expect("generates");
        assert_eq!(wrap.num_objects(), 3);
    }

    #[test]
    fn table_salt_spreads_accesses_across_tables() {
        // With tables to spare, the salted round-robin must not
        // collapse onto one table: every table should be touched by
        // some function. `addrof` is the only way the generator takes
        // a table's address, and the tables are the program's only
        // objects, so table k renders as `addrof objk`.
        let w = SynthSpec::parse("funcs=12,depth=3,region=26,objects=8,sharing=2,trips=2,seed=7")
            .expect("valid")
            .try_generate("spread")
            .expect("generates");
        let text: String =
            w.program.functions.values().map(mcpart_ir::function_to_string).collect();
        for k in 0..8 {
            assert!(text.contains(&format!("addrof obj{k}")), "table {k} never accessed");
        }
    }

    #[test]
    fn clamp_behaviour() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        let v = b.iconst(99);
        let c = clamp_const(&mut b, v, 0, 88);
        b.ret(Some(c));
        let r = mcpart_sim::run(&p, &[], ExecConfig::default()).unwrap();
        assert_eq!(r.return_value, Some(mcpart_sim::Value::Int(88)));
    }
}
