//! GSM 06.10 full-rate speech codec: `gsmencode` and `gsmdecode`,
//! modeled on the Mediabench GSM benchmark.
//!
//! Object mix: LPC analysis state (`dp0` history, reflection
//! coefficients `LARc`), the long-term predictor lag/gain tables, and
//! per-frame sample buffers. Frames of 160 samples are processed through
//! short-term analysis, long-term prediction over 4 subframes, and RPE
//! grid selection.

use crate::gen::{
    clamp_const, counted_loop, load_elem4, load_ptr4, store_elem4, store_ptr4, unrolled_loop,
};
use mcpart_ir::{Cmp, DataObject, FunctionBuilder, MemWidth, ObjectId, Program};

const FRAME: i64 = 160;
const FRAMES: i64 = 6;
const SUBFRAME: i64 = 40;

struct GsmObjects {
    dp0: ObjectId,
    larc: ObjectId,
    gain_tab: ObjectId,
    lag_state: ObjectId,
    v_state: ObjectId,
}

fn add_objects(p: &mut Program) -> GsmObjects {
    GsmObjects {
        dp0: p.add_object(DataObject::global("state.dp0", 280 * 4)),
        larc: p.add_object(DataObject::global("state.LARc", 8 * 4)),
        gain_tab: p.add_object(DataObject::global("gsm_QLB", 4 * 4)),
        lag_state: p.add_object(DataObject::global("state.nrp", 4)),
        v_state: p.add_object(DataObject::global("state.v", 9 * 4)),
    }
}

fn init_state(b: &mut FunctionBuilder<'_>, o: &GsmObjects) {
    // Long-term gain quantization levels.
    for (i, v) in [3277i64, 11469, 21299, 32767].into_iter().enumerate() {
        let idx = b.iconst(i as i64);
        let val = b.iconst(v);
        store_elem4(b, o.gain_tab, idx, val);
    }
    let na = b.addrof(o.lag_state);
    let forty = b.iconst(40);
    b.store(MemWidth::B4, na, forty);
}

/// Short-term LPC-ish analysis over a frame: autocorrelation-lite
/// producing 8 reflection coefficients into `LARc`, filtering through
/// the `v` state.
fn short_term(b: &mut FunctionBuilder<'_>, o: &GsmObjects, frame_base: mcpart_ir::VReg) {
    counted_loop(b, 8, |b, k| {
        let acc0 = b.iconst(0);
        let acc = b.mov(acc0);
        unrolled_loop(b, SUBFRAME, 4, |b, i| {
            let s0 = load_ptr4(b, frame_base, i);
            let ik = b.add(i, k);
            let s1 = load_ptr4(b, frame_base, ik);
            let prod = b.mul(s0, s1);
            let ten = b.iconst(10);
            let term = b.shr(prod, ten);
            let sum = b.add(acc, term);
            b.mov_to(acc, sum);
        });
        let c = clamp_const(b, acc, -32768, 32767);
        store_elem4(b, o.larc, k, c);
        // Fold through the recursive filter state.
        let vk = load_elem4(b, o.v_state, k);
        let mixed = b.add(vk, c);
        let one = b.iconst(1);
        let damped = b.shr(mixed, one);
        store_elem4(b, o.v_state, k, damped);
    });
}

/// Long-term prediction for one subframe: finds the best lag in the
/// `dp0` history by maximizing a cross-correlation-like score.
fn long_term(
    b: &mut FunctionBuilder<'_>,
    o: &GsmObjects,
    frame_base: mcpart_ir::VReg,
    sub: mcpart_ir::VReg,
) {
    let best0 = b.iconst(0);
    let best = b.mov(best0);
    let bestlag0 = b.iconst(40);
    let bestlag = b.mov(bestlag0);
    counted_loop(b, 40, |b, lag| {
        let forty = b.iconst(40);
        let lag40 = b.add(lag, forty);
        let acc0 = b.iconst(0);
        let acc = b.mov(acc0);
        unrolled_loop(b, 8, 4, |b, i| {
            let sub40 = b.mul(sub, forty);
            let si = b.add(sub40, i);
            let s = load_ptr4(b, frame_base, si);
            let histpos0 = b.add(si, lag40);
            let mask = b.iconst(255);
            let histpos = b.and(histpos0, mask);
            let h = load_elem4(b, o.dp0, histpos);
            let prod = b.mul(s, h);
            let eight = b.iconst(8);
            let term = b.shr(prod, eight);
            let sum = b.add(acc, term);
            b.mov_to(acc, sum);
        });
        let better = b.icmp(Cmp::Gt, acc, best);
        let nb = b.select(better, acc, best);
        b.mov_to(best, nb);
        let nl = b.select(better, lag40, bestlag);
        b.mov_to(bestlag, nl);
    });
    let na = b.addrof(o.lag_state);
    b.store(MemWidth::B4, na, bestlag);
    // Gain index from the quantization table.
    let three = b.iconst(3);
    let gi0 = b.shr(best, three);
    let gidx = clamp_const(b, gi0, 0, 3);
    let gain = load_elem4(b, o.gain_tab, gidx);
    // Update dp0 history with the gained residual of this subframe.
    unrolled_loop(b, SUBFRAME, 4, |b, i| {
        let forty = b.iconst(40);
        let sub40 = b.mul(sub, forty);
        let si = b.add(sub40, i);
        let s = load_ptr4(b, frame_base, si);
        let g = b.mul(s, gain);
        let fifteen = b.iconst(15);
        let r = b.shr(g, fifteen);
        let mask = b.iconst(255);
        let pos = b.and(si, mask);
        store_elem4(b, o.dp0, pos, r);
    });
}

fn build(name: &'static str, decode: bool) -> Program {
    let mut p = Program::new(name);
    let o = add_objects(&mut p);
    let inbuf = p.add_object(DataObject::heap_site("frames"));
    let outbuf = p.add_object(DataObject::heap_site("coded"));
    let mut b = FunctionBuilder::entry(&mut p);
    init_state(&mut b, &o);
    let sz = b.iconst(FRAMES * FRAME * 4);
    let inp = b.malloc(inbuf, sz);
    let sz2 = b.iconst(FRAMES * FRAME * 4);
    let outp = b.malloc(outbuf, sz2);
    let seed_mul = if decode { 51 } else { 67 };
    counted_loop(&mut b, FRAMES * FRAME, |b, i| {
        let k = b.iconst(seed_mul);
        let v0 = b.mul(i, k);
        let m = b.iconst(0xFFF);
        let v1 = b.and(v0, m);
        let h = b.iconst(2048);
        let v = b.sub(v1, h);
        store_ptr4(b, inp, i, v);
    });
    counted_loop(&mut b, FRAMES, |b, f| {
        let flen = b.iconst(FRAME * 4);
        let off = b.mul(f, flen);
        let frame_base = b.add(inp, off);
        short_term(b, &o, frame_base);
        counted_loop(b, 4, |b, sub| {
            long_term(b, &o, frame_base, sub);
        });
        // Emit the frame: RPE-style decimation (keep every 3rd sample
        // scaled by the first LAR coefficient).
        counted_loop(b, FRAME / 4, |b, i| {
            let three = b.iconst(3);
            let src = b.mul(i, three);
            let masked = {
                let m = b.iconst(FRAME - 1);
                b.and(src, m)
            };
            let s = load_ptr4(b, frame_base, masked);
            let z = b.iconst(0);
            let lar0 = load_elem4(b, o.larc, z);
            let scaled = b.mul(s, lar0);
            let twelve = b.iconst(12);
            let out = b.shr(scaled, twelve);
            let flen4 = b.iconst(FRAME);
            let fo = b.mul(f, flen4);
            let dst = b.add(fo, i);
            store_ptr4(b, outp, dst, out);
        });
    });
    let na = b.addrof(o.lag_state);
    let lag = b.load(MemWidth::B4, na);
    b.ret(Some(lag));
    p
}

/// Builds the `gsmencode` program.
pub fn gsmencode() -> Program {
    build("gsmencode", false)
}

/// Builds the `gsmdecode` program.
pub fn gsmdecode() -> Program {
    build("gsmdecode", true)
}

#[cfg(test)]
mod tests {
    use crate::by_name;

    #[test]
    fn gsm_pair_builds_and_differs() {
        let e = by_name("gsmencode").unwrap();
        let d = by_name("gsmdecode").unwrap();
        assert!(e.num_objects() >= 7);
        let re = mcpart_sim::run(&e.program, &[], mcpart_sim::ExecConfig::default()).unwrap();
        let rd = mcpart_sim::run(&d.program, &[], mcpart_sim::ExecConfig::default()).unwrap();
        // Same structure, different data: still deterministic per side.
        assert!(re.steps > 10_000);
        assert!(rd.steps > 10_000);
    }

    #[test]
    fn ltp_lag_in_range() {
        let w = by_name("gsmencode").unwrap();
        let r = mcpart_sim::run(&w.program, &[], mcpart_sim::ExecConfig::default()).unwrap();
        match r.return_value {
            Some(mcpart_sim::Value::Int(lag)) => assert!((40..=120).contains(&lag), "{lag}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
