//! EPIC image compression kernels: `epic` (pyramid encode) and
//! `unepic` (decode), modeled on the Mediabench EPIC benchmark.
//!
//! EPIC builds a Laplacian pyramid with separable biorthogonal filters,
//! then quantizes and run-length/Huffman codes the subbands. Objects:
//! the low/high-pass filter taps, the quantizer bin sizes per level, a
//! run-length state, and heap image/pyramid/stream buffers.

use crate::gen::{
    clamp_const, counted_loop, load_elem4, load_ptr4, store_elem4, store_ptr4, unrolled_loop,
};
use mcpart_ir::{Cmp, DataObject, FunctionBuilder, IntBinOp, MemWidth, ObjectId, Program};

const N: i64 = 1024; // 1-D signal length (EPIC is separable; we model rows)
const LEVELS: i64 = 4;

struct EpicObjects {
    lo_filter: ObjectId,
    hi_filter: ObjectId,
    bin_size: ObjectId,
    run_state: ObjectId,
    symbol_count: ObjectId,
}

fn add_objects(p: &mut Program) -> EpicObjects {
    EpicObjects {
        lo_filter: p.add_object(DataObject::global("lo_filter", 9 * 4)),
        hi_filter: p.add_object(DataObject::global("hi_filter", 9 * 4)),
        bin_size: p.add_object(DataObject::global("bin_size", (LEVELS * 4) as u64)),
        run_state: p.add_object(DataObject::global("run_state", 4)),
        symbol_count: p.add_object(DataObject::global("symbol_count", 4)),
    }
}

fn init_tables(b: &mut FunctionBuilder<'_>, o: &EpicObjects) {
    // Symmetric 9-tap filters (fixed-point): lo is a smoother, hi a
    // differencer.
    for (i, v) in [2i64, -8, -10, 70, 148, 70, -10, -8, 2].into_iter().enumerate() {
        let idx = b.iconst(i as i64);
        let val = b.iconst(v);
        store_elem4(b, o.lo_filter, idx, val);
    }
    for (i, v) in [-1i64, 4, 5, -35, 74, -35, 5, 4, -1].into_iter().enumerate() {
        let idx = b.iconst(i as i64);
        let val = b.iconst(v);
        store_elem4(b, o.hi_filter, idx, val);
    }
    counted_loop(b, LEVELS, |b, l| {
        let eight = b.iconst(8);
        let one = b.iconst(1);
        let lp = b.add(l, one);
        let v = b.mul(lp, eight);
        store_elem4(b, o.bin_size, l, v);
    });
}

fn build(name: &'static str, decode: bool) -> Program {
    let mut p = Program::new(name);
    let o = add_objects(&mut p);
    let signal = p.add_object(DataObject::heap_site("image"));
    let pyramid = p.add_object(DataObject::heap_site("pyramid"));
    let stream = p.add_object(DataObject::heap_site("codedStream"));
    let mut b = FunctionBuilder::entry(&mut p);
    init_tables(&mut b, &o);
    let sz = b.iconst(N * 4);
    let sig = b.malloc(signal, sz);
    let sz2 = b.iconst(2 * N * 4);
    let pyr = b.malloc(pyramid, sz2);
    let sz3 = b.iconst(2 * N * 4);
    let strm = b.malloc(stream, sz3);
    counted_loop(&mut b, N, |b, i| {
        let k = b.iconst(if decode { 21 } else { 33 });
        let v0 = b.mul(i, k);
        let m = b.iconst(0x1FF);
        let v1 = b.and(v0, m);
        let h = b.iconst(256);
        let v = b.sub(v1, h);
        store_ptr4(b, sig, i, v);
    });
    // Pyramid: at each level filter the band into lo (first half) and
    // hi (second half), then quantize hi into the stream.
    counted_loop(&mut b, LEVELS, |b, level| {
        let len0 = b.iconst(N);
        let len = b.shr(len0, level); // band shrinks per level
        let bin = load_elem4(b, o.bin_size, level);
        counted_loop(b, N / 2, |b, i| {
            let two = b.iconst(2);
            let center = b.mul(i, two);
            let inband = b.icmp(Cmp::Lt, center, len);
            let acc_lo0 = b.iconst(0);
            let acc_lo = b.mov(acc_lo0);
            let acc_hi0 = b.iconst(0);
            let acc_hi = b.mov(acc_hi0);
            unrolled_loop(b, 9, 3, |b, t| {
                let four = b.iconst(4);
                let off = b.sub(t, four);
                let pos0 = b.add(center, off);
                let nmask = b.iconst(N - 1);
                let pos = b.and(pos0, nmask); // circular boundary
                let x = load_ptr4(b, sig, pos);
                let lo = load_elem4(b, o.lo_filter, t);
                let hi = load_elem4(b, o.hi_filter, t);
                let pl = b.mul(x, lo);
                let ph = b.mul(x, hi);
                let nl = b.add(acc_lo, pl);
                b.mov_to(acc_lo, nl);
                let nh = b.add(acc_hi, ph);
                b.mov_to(acc_hi, nh);
            });
            let eight = b.iconst(8);
            let lo_v = b.shr(acc_lo, eight);
            let hi_v = b.shr(acc_hi, eight);
            let zero = b.iconst(0);
            let lo_kept = b.select(inband, lo_v, zero);
            let hi_kept = b.select(inband, hi_v, zero);
            store_ptr4(b, pyr, i, lo_kept);
            let nhalf = b.iconst(N / 2);
            let hi_idx = b.add(i, nhalf);
            store_ptr4(b, pyr, hi_idx, hi_kept);
            // Quantize and run-length count zeros into the stream.
            let q = if decode {
                let r = b.mul(hi_kept, bin);
                let three = b.iconst(3);
                b.shr(r, three)
            } else {
                let safe_bin = clamp_const(b, bin, 1, 1 << 20);
                b.ibin(IntBinOp::Div, hi_kept, safe_bin)
            };
            let is_zero = b.icmp(Cmp::Eq, q, zero);
            let ra = b.addrof(o.run_state);
            let run = b.load(MemWidth::B4, ra);
            let one = b.iconst(1);
            let run1 = b.add(run, one);
            let newrun = b.select(is_zero, run1, zero);
            b.store(MemWidth::B4, ra, newrun);
            let sa = b.addrof(o.symbol_count);
            let syms = b.load(MemWidth::B4, sa);
            let syms1 = b.add(syms, one);
            let newsyms = b.select(is_zero, syms, syms1);
            b.store(MemWidth::B4, sa, newsyms);
            let lvl_n = b.iconst(N / 2);
            let base = b.mul(level, lvl_n);
            let dst0 = b.add(base, i);
            let smask = b.iconst(2 * N - 1);
            let dst = b.and(dst0, smask);
            store_ptr4(b, strm, dst, q);
        });
        // The lo band becomes the next level's signal.
        unrolled_loop(b, N / 2, 4, |b, i| {
            let v = load_ptr4(b, pyr, i);
            store_ptr4(b, sig, i, v);
        });
    });
    let sa = b.addrof(o.symbol_count);
    let syms = b.load(MemWidth::B4, sa);
    b.ret(Some(syms));
    p
}

/// Builds the `epic` program.
pub fn epic() -> Program {
    build("epic", false)
}

/// Builds the `unepic` program.
pub fn unepic() -> Program {
    build("unepic", true)
}

#[cfg(test)]
mod tests {
    use crate::by_name;

    #[test]
    fn epic_pair_builds() {
        let e = by_name("epic").unwrap();
        let u = by_name("unepic").unwrap();
        assert!(e.num_objects() >= 8);
        let r = mcpart_sim::run(&e.program, &[], mcpart_sim::ExecConfig::default()).unwrap();
        match r.return_value {
            Some(mcpart_sim::Value::Int(syms)) => assert!(syms > 0, "no symbols coded"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(u.num_ops() > 120);
    }
}
