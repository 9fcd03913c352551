//! G.721 ADPCM voice coder: `g721encode` and `g721decode`, modeled on
//! the Mediabench G.721 benchmark (CCITT 32 kbit/s ADPCM).
//!
//! The object mix mirrors the original `g72x.c`: the quantization
//! tables (`qtab_721`, `_dqlntab`, `_witab`, `_fitab`), and a predictor
//! state structure with adaptive coefficients (`a`, `b`), delayed
//! quantizer outputs (`dq`, `sr`, `pk`), and the adaptation speed
//! scalars (`ap`, `dms`, `dml`, `yl`, `yu`, `td`).

use crate::gen::{clamp_const, counted_loop, load_elem4, load_ptr4, store_elem4, store_ptr4};
use mcpart_ir::{Cmp, DataObject, FunctionBuilder, IntBinOp, MemWidth, ObjectId, Program};

const SAMPLES: i64 = 128;
const PASSES: i64 = 6;

struct G721Objects {
    qtab: ObjectId,
    dqlntab: ObjectId,
    witab: ObjectId,
    fitab: ObjectId,
    coef_a: ObjectId,
    coef_b: ObjectId,
    dq_hist: ObjectId,
    sr_hist: ObjectId,
    yl: ObjectId,
    yu: ObjectId,
    dms: ObjectId,
    dml: ObjectId,
    ap: ObjectId,
}

fn add_objects(p: &mut Program) -> G721Objects {
    G721Objects {
        qtab: p.add_object(DataObject::global("qtab_721", 7 * 4)),
        dqlntab: p.add_object(DataObject::global("_dqlntab", 16 * 4)),
        witab: p.add_object(DataObject::global("_witab", 16 * 4)),
        fitab: p.add_object(DataObject::global("_fitab", 16 * 4)),
        coef_a: p.add_object(DataObject::global("state.a", 2 * 4)),
        coef_b: p.add_object(DataObject::global("state.b", 6 * 4)),
        dq_hist: p.add_object(DataObject::global("state.dq", 6 * 4)),
        sr_hist: p.add_object(DataObject::global("state.sr", 2 * 4)),
        yl: p.add_object(DataObject::global("state.yl", 4)),
        yu: p.add_object(DataObject::global("state.yu", 4)),
        dms: p.add_object(DataObject::global("state.dms", 4)),
        dml: p.add_object(DataObject::global("state.dml", 4)),
        ap: p.add_object(DataObject::global("state.ap", 4)),
    }
}

fn init_tables(b: &mut FunctionBuilder<'_>, o: &G721Objects) {
    // Quantizer decision levels (monotone positive).
    counted_loop(b, 7, |b, i| {
        let k = b.iconst(100);
        let base = b.iconst(-124);
        let v0 = b.mul(i, k);
        let v = b.add(v0, base);
        store_elem4(b, o.qtab, i, v);
    });
    for (obj, mul, off) in [(o.dqlntab, 91, -2048), (o.witab, 37, -12), (o.fitab, 101, 0)] {
        counted_loop(b, 16, |b, i| {
            let k = b.iconst(mul);
            let c = b.iconst(off);
            let v0 = b.mul(i, k);
            let m = b.iconst(0xFFF);
            let v1 = b.and(v0, m);
            let v = b.add(v1, c);
            store_elem4(b, obj, i, v);
        });
    }
    // Predictor state starts mildly adapted.
    let ya = b.addrof(o.yl);
    let y0 = b.iconst(34816);
    b.store(MemWidth::B4, ya, y0);
    let yu_a = b.addrof(o.yu);
    let yu0 = b.iconst(544);
    b.store(MemWidth::B4, yu_a, yu0);
}

/// Shared predictor step: computes the signal estimate from the `a`/`b`
/// coefficient arrays and the `dq`/`sr` histories, then updates the
/// adaptation state. Returns the estimate.
fn predictor(b: &mut FunctionBuilder<'_>, o: &G721Objects) -> mcpart_ir::VReg {
    let acc0 = b.iconst(0);
    let acc = b.mov(acc0);
    counted_loop(b, 6, |b, j| {
        let bj = load_elem4(b, o.coef_b, j);
        let dqj = load_elem4(b, o.dq_hist, j);
        let prod = b.mul(bj, dqj);
        let fourteen = b.iconst(14);
        let term = b.shr(prod, fourteen);
        let sum = b.add(acc, term);
        b.mov_to(acc, sum);
    });
    counted_loop(b, 2, |b, j| {
        let aj = load_elem4(b, o.coef_a, j);
        let srj = load_elem4(b, o.sr_hist, j);
        let prod = b.mul(aj, srj);
        let fourteen = b.iconst(14);
        let term = b.shr(prod, fourteen);
        let sum = b.add(acc, term);
        b.mov_to(acc, sum);
    });
    acc
}

/// Quantizer-scale update shared by encoder and decoder: adapts yu/yl
/// from the table entry for `code` and rotates the histories.
fn update_state(
    b: &mut FunctionBuilder<'_>,
    o: &G721Objects,
    code: mcpart_ir::VReg,
    dq: mcpart_ir::VReg,
    sr: mcpart_ir::VReg,
) {
    let wi = load_elem4(b, o.witab, code);
    let fi = load_elem4(b, o.fitab, code);
    // yu = y + ((wi - y) >> 5), yl = yl + yu - (yl >> 6)
    let yua = b.addrof(o.yu);
    let yu = b.load(MemWidth::B4, yua);
    let d = b.sub(wi, yu);
    let five = b.iconst(5);
    let step = b.shr(d, five);
    let yu1 = b.add(yu, step);
    let yu2 = clamp_const(b, yu1, 544, 5120);
    b.store(MemWidth::B4, yua, yu2);
    let yla = b.addrof(o.yl);
    let yl = b.load(MemWidth::B4, yla);
    let six = b.iconst(6);
    let leak = b.shr(yl, six);
    let yl1 = b.sub(yl, leak);
    let yl2 = b.add(yl1, yu2);
    b.store(MemWidth::B4, yla, yl2);
    // Adaptation speed: dms/dml low-pass the table entry fi.
    for (obj, shift) in [(o.dms, 5i64), (o.dml, 7i64)] {
        let oa = b.addrof(obj);
        let v = b.load(MemWidth::B4, oa);
        let d = b.sub(fi, v);
        let s = b.iconst(shift);
        let adj = b.shr(d, s);
        let v1 = b.add(v, adj);
        b.store(MemWidth::B4, oa, v1);
    }
    let apa = b.addrof(o.ap);
    let ap = b.load(MemWidth::B4, apa);
    let dmsa = b.addrof(o.dms);
    let dms = b.load(MemWidth::B4, dmsa);
    let dmla = b.addrof(o.dml);
    let dml = b.load(MemWidth::B4, dmla);
    let dd = b.sub(dms, dml);
    let zero = b.iconst(0);
    let ndd = b.sub(zero, dd);
    let add = b.ibin(IntBinOp::Max, dd, ndd);
    let four = b.iconst(4);
    let fast = b.shr(add, four);
    let ap1 = b.add(ap, fast);
    let ap2 = clamp_const(b, ap1, 0, 256);
    b.store(MemWidth::B4, apa, ap2);
    // Rotate dq and sr histories; adapt coefficients toward the sign.
    counted_loop(b, 5, |b, j| {
        let four_c = b.iconst(4);
        let rev = b.sub(four_c, j); // 4..0
        let v = load_elem4(b, o.dq_hist, rev);
        let one = b.iconst(1);
        let dst = b.add(rev, one);
        store_elem4(b, o.dq_hist, dst, v);
        let bj = load_elem4(b, o.coef_b, dst);
        let seven = b.iconst(7);
        let decay = b.shr(bj, seven);
        let b1 = b.sub(bj, decay);
        store_elem4(b, o.coef_b, dst, b1);
    });
    let z = b.iconst(0);
    store_elem4(b, o.dq_hist, z, dq);
    let one = b.iconst(1);
    let sr_old = load_elem4(b, o.sr_hist, z);
    store_elem4(b, o.sr_hist, one, sr_old);
    store_elem4(b, o.sr_hist, z, sr);
    let a0 = load_elem4(b, o.coef_a, z);
    let sgn = b.icmp(Cmp::Ge, dq, z);
    let up = b.iconst(8);
    let down = b.iconst(-8);
    let adj = b.select(sgn, up, down);
    let a1 = b.add(a0, adj);
    let a2 = clamp_const(b, a1, -12288, 12288);
    store_elem4(b, o.coef_a, z, a2);
}

/// Builds the `g721encode` program.
pub fn g721encode() -> Program {
    let mut p = Program::new("g721encode");
    let o = add_objects(&mut p);
    let inbuf = p.add_object(DataObject::heap_site("pcmIn"));
    let outbuf = p.add_object(DataObject::heap_site("codesOut"));
    let mut b = FunctionBuilder::entry(&mut p);
    init_tables(&mut b, &o);
    let sz = b.iconst(SAMPLES * 4);
    let inp = b.malloc(inbuf, sz);
    let sz2 = b.iconst(SAMPLES * 4);
    let outp = b.malloc(outbuf, sz2);
    counted_loop(&mut b, SAMPLES, |b, i| {
        let k = b.iconst(73);
        let v0 = b.mul(i, k);
        let m = b.iconst(0x1FFF);
        let v1 = b.and(v0, m);
        let h = b.iconst(4096);
        let v = b.sub(v1, h);
        store_ptr4(b, inp, i, v);
    });
    counted_loop(&mut b, PASSES, |b, _pass| {
        counted_loop(b, SAMPLES, |b, i| {
            let sl = load_ptr4(b, inp, i);
            let se = predictor(b, &o);
            let d = b.sub(sl, se);
            // Log quantization against qtab: count decision levels below |d|.
            let zero = b.iconst(0);
            let nd = b.sub(zero, d);
            let mag = b.ibin(IntBinOp::Max, d, nd);
            let code0 = b.iconst(0);
            let code = b.mov(code0);
            counted_loop(b, 7, |b, j| {
                let q = load_elem4(b, o.qtab, j);
                let over = b.icmp(Cmp::Gt, mag, q);
                let one = b.iconst(1);
                let z = b.iconst(0);
                let inc = b.select(over, one, z);
                let c1 = b.add(code, inc);
                b.mov_to(code, c1);
            });
            let neg = b.icmp(Cmp::Lt, d, zero);
            let eight = b.iconst(8);
            let sbit = b.select(neg, eight, zero);
            let tx = b.or(code, sbit);
            store_ptr4(b, outp, i, tx);
            // Reconstruct dq/sr and update the adaptive state.
            let dqln = load_elem4(b, o.dqlntab, code);
            let seven_s = b.iconst(7);
            let dqmag = b.shr(dqln, seven_s);
            let ndq = b.sub(zero, dqmag);
            let dq = b.select(neg, ndq, dqmag);
            let sr = b.add(se, dq);
            update_state(b, &o, code, dq, sr);
        });
    });
    let last = b.iconst(SAMPLES - 1);
    let v = load_ptr4(&mut b, outp, last);
    b.ret(Some(v));
    p
}

/// Builds the `g721decode` program.
pub fn g721decode() -> Program {
    let mut p = Program::new("g721decode");
    let o = add_objects(&mut p);
    let inbuf = p.add_object(DataObject::heap_site("codesIn"));
    let outbuf = p.add_object(DataObject::heap_site("pcmOut"));
    let mut b = FunctionBuilder::entry(&mut p);
    init_tables(&mut b, &o);
    let sz = b.iconst(SAMPLES * 4);
    let inp = b.malloc(inbuf, sz);
    let sz2 = b.iconst(SAMPLES * 4);
    let outp = b.malloc(outbuf, sz2);
    counted_loop(&mut b, SAMPLES, |b, i| {
        let k = b.iconst(9);
        let v0 = b.mul(i, k);
        let m = b.iconst(15);
        let v = b.and(v0, m);
        store_ptr4(b, inp, i, v);
    });
    counted_loop(&mut b, PASSES, |b, _pass| {
        counted_loop(b, SAMPLES, |b, i| {
            let word = load_ptr4(b, inp, i);
            let seven = b.iconst(7);
            let code = b.and(word, seven);
            let eight = b.iconst(8);
            let sbits = b.and(word, eight);
            let zero = b.iconst(0);
            let neg = b.icmp(Cmp::Ne, sbits, zero);
            let se = predictor(b, &o);
            let dqln = load_elem4(b, o.dqlntab, code);
            let seven_s = b.iconst(7);
            let dqmag = b.shr(dqln, seven_s);
            let ndq = b.sub(zero, dqmag);
            let dq = b.select(neg, ndq, dqmag);
            let sr0 = b.add(se, dq);
            let sr = clamp_const(b, sr0, -32768, 32767);
            store_ptr4(b, outp, i, sr);
            update_state(b, &o, code, dq, sr);
        });
    });
    let last = b.iconst(SAMPLES - 1);
    let v = load_ptr4(&mut b, outp, last);
    b.ret(Some(v));
    p
}

#[cfg(test)]
mod tests {
    use crate::by_name;

    #[test]
    fn g721_pair_builds() {
        let enc = by_name("g721encode").unwrap();
        let dec = by_name("g721decode").unwrap();
        assert!(enc.num_objects() >= 15);
        assert!(dec.num_objects() >= 15);
        assert!(enc.num_ops() > 150);
    }

    #[test]
    fn encoder_produces_mixed_codes() {
        let w = by_name("g721encode").unwrap();
        let r = mcpart_sim::run(&w.program, &[], mcpart_sim::ExecConfig::default()).unwrap();
        // Returned code word is a 4-bit quantity.
        match r.return_value {
            Some(mcpart_sim::Value::Int(v)) => assert!((0..16).contains(&v), "{v}"),
            other => panic!("unexpected return {other:?}"),
        }
    }
}
