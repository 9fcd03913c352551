//! ADPCM audio coder kernels: `rawcaudio` (encode) and `rawdaudio`
//! (decode), modeled on the Mediabench ADPCM benchmark.
//!
//! The data objects mirror the original: the 89-entry step-size table,
//! the 16-entry index-adjustment table, predictor state scalars, and
//! heap-allocated sample buffers. These are the two benchmarks the paper
//! enumerates exhaustively in Figure 9 (small object count).

use crate::gen::{
    clamp_const, counted_loop, load_elem4, load_ptr4, store_elem4, store_ptr4, unrolled_loop,
};
use mcpart_ir::{Cmp, DataObject, FunctionBuilder, IntBinOp, MemWidth, Program};

/// Samples per buffer.
const SAMPLES: i64 = 256;
/// Kernel passes over the buffer (media codecs stream many frames
/// through the same buffers, so the kernel dominates the profile the
/// way it does with the paper's real inputs).
const PASSES: i64 = 8;

fn build_tables(
    b: &mut FunctionBuilder<'_>,
    stepsize: mcpart_ir::ObjectId,
    indextab: mcpart_ir::ObjectId,
) {
    // stepsizeTable[i] = 7 + 3*i + (i*i >> 2): positive, monotone-ish,
    // like the real exponential table.
    counted_loop(b, 89, |b, i| {
        let three = b.iconst(3);
        let seven = b.iconst(7);
        let ii = b.mul(i, i);
        let two = b.iconst(2);
        let q = b.shr(ii, two);
        let t = b.mul(i, three);
        let t2 = b.add(t, seven);
        let v = b.add(t2, q);
        store_elem4(b, stepsize, i, v);
    });
    // indexTable[0..8] = {-1,-1,-1,-1,2,4,6,8}, mirrored for 8..16.
    counted_loop(b, 16, |b, i| {
        let seven = b.iconst(7);
        let low = b.and(i, seven);
        let four = b.iconst(4);
        let c = b.icmp(Cmp::Lt, low, four);
        let minus1 = b.iconst(-1);
        let fourc = b.iconst(4);
        let lo4 = b.sub(low, fourc);
        let two = b.iconst(2);
        let pos = b.mul(lo4, two);
        let twoc = b.iconst(2);
        let pos2 = b.add(pos, twoc);
        let v = b.select(c, minus1, pos2);
        store_elem4(b, indextab, i, v);
    });
}

/// Builds the `rawcaudio` (ADPCM encode) program.
pub fn rawcaudio() -> Program {
    let mut p = Program::new("rawcaudio");
    let stepsize = p.add_object(DataObject::global("stepsizeTable", 89 * 4));
    let indextab = p.add_object(DataObject::global("indexTable", 16 * 4));
    // The coder state is one struct (valprev at offset 0, index at 4),
    // matching the original `struct adpcm_state`.
    let state = p.add_object(DataObject::global("state", 8));
    let n_encoded = p.add_object(DataObject::global("numEncoded", 4));
    let inbuf = p.add_object(DataObject::heap_site("inbuf"));
    let outbuf = p.add_object(DataObject::heap_site("outbuf"));

    let mut b = FunctionBuilder::entry(&mut p);
    build_tables(&mut b, stepsize, indextab);
    let size = b.iconst(SAMPLES * 4);
    let inp = b.malloc(inbuf, size);
    let size2 = b.iconst(SAMPLES * 4);
    let outp = b.malloc(outbuf, size2);
    // Synthetic 16-bit waveform.
    counted_loop(&mut b, SAMPLES, |b, i| {
        let k = b.iconst(37);
        let m = b.iconst(0x3FF);
        let half = b.iconst(512);
        let v0 = b.mul(i, k);
        let v1 = b.and(v0, m);
        let v = b.sub(v1, half);
        store_ptr4(b, inp, i, v);
    });
    // Encoder main loop (unrolled x2 for ILP), streaming PASSES frames.
    counted_loop(&mut b, PASSES, |b, _pass| {
        unrolled_loop(b, SAMPLES, 2, |b, i| {
            let spred = b.addrof(state);
            let valpred = b.load(MemWidth::B4, spred);
            let sbase = b.addrof(state);
            let four_off = b.iconst(4);
            let sidx = b.add(sbase, four_off);
            let index = b.load(MemWidth::B4, sidx);
            let sample = load_ptr4(b, inp, i);
            let diff0 = b.sub(sample, valpred);
            let zero = b.iconst(0);
            let neg = b.icmp(Cmp::Lt, diff0, zero);
            let negd = b.sub(zero, diff0);
            let diff = b.select(neg, negd, diff0);
            let step = load_elem4(b, stepsize, index);
            let four = b.iconst(4);
            let scaled = b.mul(diff, four);
            let delta0 = b.ibin(IntBinOp::Div, scaled, step);
            let delta = clamp_const(b, delta0, 0, 7);
            // Index update via the index table.
            let adj = load_elem4(b, indextab, delta);
            let index1 = b.add(index, adj);
            let index2 = clamp_const(b, index1, 0, 88);
            b.store(MemWidth::B4, sidx, index2);
            // Predictor update.
            let dstep = b.mul(delta, step);
            let two = b.iconst(2);
            let vpdiff = b.shr(dstep, two);
            let vplus = b.add(valpred, vpdiff);
            let vminus = b.sub(valpred, vpdiff);
            let valpred1 = b.select(neg, vminus, vplus);
            let valpred2 = clamp_const(b, valpred1, -32768, 32767);
            b.store(MemWidth::B4, spred, valpred2);
            // Output nibble: delta | sign bit.
            let eight = b.iconst(8);
            let sbit = b.select(neg, eight, zero);
            let nibble = b.or(delta, sbit);
            store_ptr4(b, outp, i, nibble);
            // Count encoded samples.
            let cnt = b.addrof(n_encoded);
            let c0 = b.load(MemWidth::B4, cnt);
            let one = b.iconst(1);
            let c1 = b.add(c0, one);
            b.store(MemWidth::B4, cnt, c1);
        });
    });
    let cnt = b.addrof(n_encoded);
    let total = b.load(MemWidth::B4, cnt);
    b.ret(Some(total));
    p
}

/// Builds the `rawdaudio` (ADPCM decode) program.
pub fn rawdaudio() -> Program {
    let mut p = Program::new("rawdaudio");
    let stepsize = p.add_object(DataObject::global("stepsizeTable", 89 * 4));
    let indextab = p.add_object(DataObject::global("indexTable", 16 * 4));
    let state = p.add_object(DataObject::global("state", 8));
    let checksum = p.add_object(DataObject::global("checksum", 4));
    let inbuf = p.add_object(DataObject::heap_site("deltas"));
    let outbuf = p.add_object(DataObject::heap_site("pcmout"));

    let mut b = FunctionBuilder::entry(&mut p);
    build_tables(&mut b, stepsize, indextab);
    let size = b.iconst(SAMPLES * 4);
    let inp = b.malloc(inbuf, size);
    let size2 = b.iconst(SAMPLES * 4);
    let outp = b.malloc(outbuf, size2);
    // Synthetic 4-bit code stream.
    counted_loop(&mut b, SAMPLES, |b, i| {
        let k = b.iconst(11);
        let m = b.iconst(15);
        let v0 = b.mul(i, k);
        let v = b.and(v0, m);
        store_ptr4(b, inp, i, v);
    });
    // Decoder main loop (unrolled x2 for ILP), streaming PASSES frames.
    counted_loop(&mut b, PASSES, |b, _pass| {
        unrolled_loop(b, SAMPLES, 2, |b, i| {
            let spred = b.addrof(state);
            let valpred = b.load(MemWidth::B4, spred);
            let sbase = b.addrof(state);
            let four_off = b.iconst(4);
            let sidx = b.add(sbase, four_off);
            let index = b.load(MemWidth::B4, sidx);
            let code = load_ptr4(b, inp, i);
            let seven = b.iconst(7);
            let delta = b.and(code, seven);
            let eight = b.iconst(8);
            let signbit = b.and(code, eight);
            let zero = b.iconst(0);
            let neg = b.icmp(Cmp::Ne, signbit, zero);
            let step = load_elem4(b, stepsize, index);
            let adj = load_elem4(b, indextab, delta);
            let index1 = b.add(index, adj);
            let index2 = clamp_const(b, index1, 0, 88);
            b.store(MemWidth::B4, sidx, index2);
            let dstep = b.mul(delta, step);
            let two = b.iconst(2);
            let vpdiff = b.shr(dstep, two);
            let vplus = b.add(valpred, vpdiff);
            let vminus = b.sub(valpred, vpdiff);
            let valpred1 = b.select(neg, vminus, vplus);
            let valpred2 = clamp_const(b, valpred1, -32768, 32767);
            b.store(MemWidth::B4, spred, valpred2);
            store_ptr4(b, outp, i, valpred2);
            // Fold into a checksum.
            let csa = b.addrof(checksum);
            let cs = b.load(MemWidth::B4, csa);
            let cs1 = b.add(cs, valpred2);
            b.store(MemWidth::B4, csa, cs1);
        });
    });
    let csa = b.addrof(checksum);
    let cs = b.load(MemWidth::B4, csa);
    b.ret(Some(cs));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;

    #[test]
    fn rawcaudio_runs_and_profiles() {
        let w = by_name("rawcaudio").unwrap();
        assert_eq!(w.name, "rawcaudio");
        assert_eq!(w.num_objects(), 6);
        // Encoder counted every sample.
        let r = mcpart_sim::run(&w.program, &[], mcpart_sim::ExecConfig::default()).unwrap();
        assert_eq!(r.return_value, Some(mcpart_sim::Value::Int(SAMPLES * PASSES)));
        // Heap profile recorded both buffers.
        let heap_total: u64 = w.profile.heap_bytes.values().sum();
        assert_eq!(heap_total, 2 * SAMPLES as u64 * 4);
    }

    #[test]
    fn rawdaudio_runs_deterministically() {
        let a = by_name("rawdaudio").unwrap();
        let b = by_name("rawdaudio").unwrap();
        let ra = mcpart_sim::run(&a.program, &[], mcpart_sim::ExecConfig::default()).unwrap();
        let rb = mcpart_sim::run(&b.program, &[], mcpart_sim::ExecConfig::default()).unwrap();
        assert_eq!(ra.return_value, rb.return_value);
        assert_eq!(ra.memory, rb.memory);
    }
}
