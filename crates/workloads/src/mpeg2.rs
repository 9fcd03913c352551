//! MPEG-2 video codec kernels: `mpeg2enc` and `mpeg2dec`, modeled on
//! the Mediabench MPEG-2 benchmark.
//!
//! Object mix: intra/non-intra quantization matrices, the zig-zag scan
//! table, an 8×8 block workspace, frame buffers on the heap, and
//! rate-control scalars. The encoder runs forward DCT + quantization +
//! zig-zag over every macroblock; the decoder runs the inverse chain.
//! The DCT is factored into a callee function, exercising the
//! interprocedural paths of the analyses.

use crate::gen::{
    clamp_const, counted_loop, load_elem4, load_ptr4, store_elem4, store_ptr4, unrolled_loop,
};
use mcpart_ir::{DataObject, FuncId, FunctionBuilder, MemWidth, ObjectId, Program};

const W: i64 = 64; // luma width in pixels (8 blocks)
const H: i64 = 32; // luma height (4 block rows)
const BLOCKS: i64 = (W / 8) * (H / 8);

struct Mpeg2Objects {
    intra_q: ObjectId,
    inter_q: ObjectId,
    zigzag: ObjectId,
    block: ObjectId,
    rc_quant: ObjectId,
    rc_bits: ObjectId,
}

fn add_objects(p: &mut Program) -> Mpeg2Objects {
    Mpeg2Objects {
        intra_q: p.add_object(DataObject::global("intra_quantizer_matrix", 64 * 4)),
        inter_q: p.add_object(DataObject::global("non_intra_quantizer_matrix", 64 * 4)),
        zigzag: p.add_object(DataObject::global("zig_zag_scan", 64 * 4)),
        block: p.add_object(DataObject::global("blockWorkspace", 64 * 4)),
        rc_quant: p.add_object(DataObject::global("rc.quant", 4)),
        rc_bits: p.add_object(DataObject::global("rc.bits", 4)),
    }
}

fn init_tables(b: &mut FunctionBuilder<'_>, o: &Mpeg2Objects) {
    // Default intra matrix rises from 8 toward 83; inter matrix flat 16.
    counted_loop(b, 64, |b, i| {
        let eight = b.iconst(8);
        let v = b.add(i, eight);
        store_elem4(b, o.intra_q, i, v);
        let sixteen = b.iconst(16);
        store_elem4(b, o.inter_q, i, sixteen);
        // Zig-zag permutation approximated by a bit-reversal-flavoured
        // bijection on 0..64: (i*37+11) & 63 — a fixed permutation for
        // our purposes (37 is odd, hence invertible mod 64).
        let k = b.iconst(37);
        let c = b.iconst(11);
        let z0 = b.mul(i, k);
        let z1 = b.add(z0, c);
        let m = b.iconst(63);
        let z = b.and(z1, m);
        store_elem4(b, o.zigzag, i, z);
    });
    let qa = b.addrof(o.rc_quant);
    let q8 = b.iconst(8);
    b.store(MemWidth::B4, qa, q8);
}

/// Builds the separable integer DCT-ish butterfly as a callee function
/// operating on the shared block workspace.
fn build_dct(p: &mut Program, block: ObjectId, inverse: bool) -> FuncId {
    let mut b = FunctionBuilder::new_function(p, if inverse { "idct" } else { "fdct" });
    // Row pass then column pass of add/sub butterflies with a rotation.
    for colpass in [false, true] {
        counted_loop(&mut b, 8, |b, r| {
            counted_loop(b, 4, |b, k| {
                let eight = b.iconst(8);
                let seven = b.iconst(7);
                let (i0, i1) = if colpass {
                    let a0 = b.mul(k, eight);
                    let i0 = b.add(a0, r);
                    let rk = b.sub(seven, k);
                    let a1 = b.mul(rk, eight);
                    let i1 = b.add(a1, r);
                    (i0, i1)
                } else {
                    let base = b.mul(r, eight);
                    let i0 = b.add(base, k);
                    let rk = b.sub(seven, k);
                    let i1 = b.add(base, rk);
                    (i0, i1)
                };
                let x = load_elem4(b, block, i0);
                let y = load_elem4(b, block, i1);
                let s = b.add(x, y);
                let d = b.sub(x, y);
                // Fixed-point rotation by a coefficient depending on k.
                let c0 = b.iconst(181);
                let ck = b.mul(k, c0);
                let cc = b.iconst(724);
                let coef = b.add(ck, cc);
                let rd = b.mul(d, coef);
                let ten = b.iconst(10);
                let rot = b.shr(rd, ten);
                if inverse {
                    let one = b.iconst(1);
                    let hs = b.shr(s, one);
                    store_elem4(b, block, i0, hs);
                    store_elem4(b, block, i1, rot);
                } else {
                    store_elem4(b, block, i0, s);
                    store_elem4(b, block, i1, rot);
                }
            });
        });
    }
    b.ret(None);
    b.func_id()
}

fn build(name: &'static str, decode: bool) -> Program {
    let mut p = Program::new(name);
    let o = add_objects(&mut p);
    let frame = p.add_object(DataObject::heap_site("frameBuffer"));
    let coded = p.add_object(DataObject::heap_site("codedStream"));
    let dct = build_dct(&mut p, o.block, decode);
    let mut b = FunctionBuilder::entry(&mut p);
    init_tables(&mut b, &o);
    let sz = b.iconst(W * H * 4);
    let fb = b.malloc(frame, sz);
    let sz2 = b.iconst(W * H * 4);
    let cs = b.malloc(coded, sz2);
    counted_loop(&mut b, W * H, |b, i| {
        let k = b.iconst(if decode { 27 } else { 63 });
        let v0 = b.mul(i, k);
        let m = b.iconst(0xFF);
        let v1 = b.and(v0, m);
        let h = b.iconst(128);
        let v = b.sub(v1, h);
        store_ptr4(b, fb, i, v);
    });
    counted_loop(&mut b, BLOCKS, |b, blk| {
        // Gather the 8x8 block from the frame.
        unrolled_loop(b, 64, 4, |b, i| {
            let eight = b.iconst(8);
            let three = b.iconst(3);
            let row = b.shr(i, three);
            let seven = b.iconst(7);
            let col = b.and(i, seven);
            let bw = b.iconst(W / 8);
            let brow = b.ibin(mcpart_ir::IntBinOp::Div, blk, bw);
            let bcol = b.ibin(mcpart_ir::IntBinOp::Rem, blk, bw);
            let py0 = b.mul(brow, eight);
            let py = b.add(py0, row);
            let px0 = b.mul(bcol, eight);
            let px = b.add(px0, col);
            let wc = b.iconst(W);
            let fidx0 = b.mul(py, wc);
            let fidx = b.add(fidx0, px);
            let v = load_ptr4(b, fb, fidx);
            store_elem4(b, o.block, i, v);
        });
        b.call(dct, vec![], 0);
        // Quantize + zig-zag into the coded stream (or dequantize for
        // the decoder).
        let qa = b.addrof(o.rc_quant);
        let q = b.load(MemWidth::B4, qa);
        unrolled_loop(b, 64, 4, |b, i| {
            let zz = load_elem4(b, o.zigzag, i);
            let v = load_elem4(b, o.block, zz);
            let qm = if decode { load_elem4(b, o.inter_q, i) } else { load_elem4(b, o.intra_q, i) };
            let qs = b.mul(qm, q);
            let out = if decode {
                let r0 = b.mul(v, qs);
                let five = b.iconst(5);
                b.shr(r0, five)
            } else {
                let sat = clamp_const(b, qs, 1, i64::MAX);
                b.ibin(mcpart_ir::IntBinOp::Div, v, sat)
            };
            let c64 = b.iconst(64);
            let base = b.mul(blk, c64);
            let dst = b.add(base, i);
            store_ptr4(b, cs, dst, out);
            // Rate control: count "bits" as |out| folded into rc.bits.
            let z = b.iconst(0);
            let nout = b.sub(z, out);
            let mag = b.ibin(mcpart_ir::IntBinOp::Max, out, nout);
            let ra = b.addrof(o.rc_bits);
            let bits = b.load(MemWidth::B4, ra);
            let b1 = b.add(bits, mag);
            b.store(MemWidth::B4, ra, b1);
        });
        // Adapt the quantizer from the bit budget.
        let ra = b.addrof(o.rc_bits);
        let bits = b.load(MemWidth::B4, ra);
        let twelve = b.iconst(12);
        let over = b.shr(bits, twelve);
        let q1 = b.add(q, over);
        let q2 = clamp_const(b, q1, 2, 31);
        b.store(MemWidth::B4, qa, q2);
    });
    let ra = b.addrof(o.rc_bits);
    let bits = b.load(MemWidth::B4, ra);
    b.ret(Some(bits));
    p
}

/// Builds the `mpeg2enc` program.
pub fn mpeg2enc() -> Program {
    build("mpeg2enc", false)
}

/// Builds the `mpeg2dec` program.
pub fn mpeg2dec() -> Program {
    build("mpeg2dec", true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;

    #[test]
    fn mpeg2_pair_builds() {
        let e = by_name("mpeg2enc").unwrap();
        let d = by_name("mpeg2dec").unwrap();
        assert!(e.num_objects() >= 8);
        assert_eq!(e.program.functions.len(), 2, "entry + dct callee");
        assert!(d.num_ops() > 150);
    }

    #[test]
    fn dct_callee_is_hot() {
        let w = by_name("mpeg2enc").unwrap();
        // The DCT function's blocks execute once per macroblock.
        let dct_fid =
            w.program.functions.iter().find(|(_, f)| f.name == "fdct").map(|(id, _)| id).unwrap();
        let entry_block = w.program.functions[dct_fid].entry;
        assert_eq!(w.profile.block_freq(dct_fid, entry_block), BLOCKS as u64);
    }
}
