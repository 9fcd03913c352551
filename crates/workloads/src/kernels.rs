//! DSP kernels: `fir`, `fft`, `fsed`, `sobel`, `latnrm`, `matmul`.

use crate::gen::{
    clamp_const, counted_loop, load_elem4, load_ptr4, store_elem4, store_ptr4, unrolled_loop,
};
use mcpart_ir::{Cmp, DataObject, FunctionBuilder, IntBinOp, MemWidth, Program};

/// FIR filter: 16 coefficients over 512 samples, with a circular delay
/// line held in a global array.
pub fn fir() -> Program {
    const TAPS: i64 = 16;
    const N: i64 = 128;
    const PASSES: i64 = 8;
    let mut p = Program::new("fir");
    let coefs = p.add_object(DataObject::global("coefs", (TAPS * 4) as u64));
    let delay = p.add_object(DataObject::global("delayLine", (TAPS * 4) as u64));
    let energy = p.add_object(DataObject::global("energy", 4));
    let input = p.add_object(DataObject::heap_site("input"));
    let output = p.add_object(DataObject::heap_site("output"));
    let mut b = FunctionBuilder::entry(&mut p);
    counted_loop(&mut b, TAPS, |b, i| {
        let k = b.iconst(13);
        let c0 = b.mul(i, k);
        let m = b.iconst(0x3F);
        let c1 = b.and(c0, m);
        let off = b.iconst(-31);
        let c = b.add(c1, off);
        store_elem4(b, coefs, i, c);
    });
    let sz = b.iconst(N * 4);
    let inp = b.malloc(input, sz);
    let sz2 = b.iconst(N * 4);
    let outp = b.malloc(output, sz2);
    counted_loop(&mut b, N, |b, i| {
        let k = b.iconst(29);
        let v0 = b.mul(i, k);
        let m = b.iconst(0xFF);
        let v1 = b.and(v0, m);
        let h = b.iconst(128);
        let v = b.sub(v1, h);
        store_ptr4(b, inp, i, v);
    });
    counted_loop(&mut b, PASSES, |b, _pass| {
        counted_loop(b, N, |b, i| {
            // Shift the delay line and insert the new sample.
            let x = load_ptr4(b, inp, i);
            counted_loop(b, TAPS - 1, |b, j| {
                let taps1 = b.iconst(TAPS - 2);
                let rev = b.sub(taps1, j); // TAPS-2 .. 0
                let v = load_elem4(b, delay, rev);
                let one = b.iconst(1);
                let dst = b.add(rev, one);
                store_elem4(b, delay, dst, v);
            });
            let zero = b.iconst(0);
            store_elem4(b, delay, zero, x);
            // Convolution.
            let acc_init = b.iconst(0);
            let acc = b.mov(acc_init);
            unrolled_loop(b, TAPS, 4, |b, j| {
                let c = load_elem4(b, coefs, j);
                let d = load_elem4(b, delay, j);
                let prod = b.mul(c, d);
                let sum = b.add(acc, prod);
                b.mov_to(acc, sum);
            });
            let five = b.iconst(5);
            let y = b.shr(acc, five);
            store_ptr4(b, outp, i, y);
            let ea = b.addrof(energy);
            let e = b.load(MemWidth::B4, ea);
            let z = b.iconst(0);
            let ny = b.sub(z, y);
            let ay = b.ibin(IntBinOp::Max, y, ny);
            let e1 = b.add(e, ay);
            b.store(MemWidth::B4, ea, e1);
        });
    });
    let ea = b.addrof(energy);
    let e = b.load(MemWidth::B4, ea);
    b.ret(Some(e));
    p
}

/// Integer FFT-like kernel: log2(N) stages of butterflies over separate
/// real/imaginary arrays with a twiddle table.
pub fn fft() -> Program {
    const N: i64 = 256;
    const STAGES: i64 = 8;
    let mut p = Program::new("fft");
    let re = p.add_object(DataObject::global("re", (N * 4) as u64));
    let im = p.add_object(DataObject::global("im", (N * 4) as u64));
    let tw_re = p.add_object(DataObject::global("twiddleRe", (N / 2 * 4) as u64));
    let tw_im = p.add_object(DataObject::global("twiddleIm", (N / 2 * 4) as u64));
    let check = p.add_object(DataObject::global("checksum", 4));
    let mut b = FunctionBuilder::entry(&mut p);
    for (obj, mul, mask) in [(re, 17, 0x1FF), (im, 23, 0x1FF), (tw_re, 7, 0xFF), (tw_im, 5, 0xFF)] {
        let elems = if obj == re || obj == im { N } else { N / 2 };
        counted_loop(&mut b, elems, |b, i| {
            let k = b.iconst(mul);
            let v0 = b.mul(i, k);
            let m = b.iconst(mask);
            let v1 = b.and(v0, m);
            let h = b.iconst(mask / 2 + 1);
            let v = b.sub(v1, h);
            store_elem4(b, obj, i, v);
        });
    }
    counted_loop(&mut b, STAGES, |b, s| {
        unrolled_loop(b, N / 2, 2, |b, k| {
            // Butterfly indices: i = (k << 1) stage-skewed, j = i + span.
            let one = b.iconst(1);
            let span = b.shl(one, s);
            let nm = b.iconst(N - 1);
            let i0 = b.shl(k, one);
            let i = b.and(i0, nm);
            let j0 = b.add(i, span);
            let j = b.and(j0, nm);
            let half = b.iconst(N / 2 - 1);
            let tidx = b.and(k, half);
            let wr = load_elem4(b, tw_re, tidx);
            let wi = load_elem4(b, tw_im, tidx);
            let ar = load_elem4(b, re, i);
            let ai = load_elem4(b, im, i);
            let br = load_elem4(b, re, j);
            let bi = load_elem4(b, im, j);
            // t = w * b (complex, fixed point >> 8)
            let t1 = b.mul(wr, br);
            let t2 = b.mul(wi, bi);
            let t3 = b.mul(wr, bi);
            let t4 = b.mul(wi, br);
            let eight = b.iconst(8);
            let trd = b.sub(t1, t2);
            let tr = b.shr(trd, eight);
            let tid = b.add(t3, t4);
            let ti = b.shr(tid, eight);
            let or_ = b.add(ar, tr);
            let oi = b.add(ai, ti);
            let pr = b.sub(ar, tr);
            let pi = b.sub(ai, ti);
            store_elem4(b, re, i, or_);
            store_elem4(b, im, i, oi);
            store_elem4(b, re, j, pr);
            store_elem4(b, im, j, pi);
        });
    });
    // Checksum over the spectrum.
    counted_loop(&mut b, N, |b, i| {
        let r = load_elem4(b, re, i);
        let im_v = load_elem4(b, im, i);
        let x = b.ibin(IntBinOp::Xor, r, im_v);
        let ca = b.addrof(check);
        let c = b.load(MemWidth::B4, ca);
        let c1 = b.add(c, x);
        b.store(MemWidth::B4, ca, c1);
    });
    let ca = b.addrof(check);
    let c = b.load(MemWidth::B4, ca);
    b.ret(Some(c));
    p
}

/// Floyd–Steinberg error diffusion over a small grayscale image — the
/// kernel the paper singles out for the largest intercluster-move
/// increase.
pub fn fsed() -> Program {
    const W: i64 = 64;
    const H: i64 = 48;
    let mut p = Program::new("fsed");
    let image = p.add_object(DataObject::heap_site("image"));
    let out = p.add_object(DataObject::heap_site("halftone"));
    let err_cur = p.add_object(DataObject::global("errCur", (W * 4) as u64 + 8));
    let err_next = p.add_object(DataObject::global("errNext", (W * 4) as u64 + 8));
    let thresh = p.add_object(DataObject::global("threshold", 4));
    let ink = p.add_object(DataObject::global("inkCount", 4));
    let mut b = FunctionBuilder::entry(&mut p);
    let sz = b.iconst(W * H * 4);
    let img = b.malloc(image, sz);
    let sz2 = b.iconst(W * H * 4);
    let outp = b.malloc(out, sz2);
    let ta = b.addrof(thresh);
    let t128 = b.iconst(128);
    b.store(MemWidth::B4, ta, t128);
    counted_loop(&mut b, W * H, |b, i| {
        let k = b.iconst(41);
        let v0 = b.mul(i, k);
        let m = b.iconst(0xFF);
        let v = b.and(v0, m);
        store_ptr4(b, img, i, v);
    });
    counted_loop(&mut b, H, |b, y| {
        counted_loop(b, W, |b, x| {
            let wc = b.iconst(W);
            let row = b.mul(y, wc);
            let idx = b.add(row, x);
            let pix = load_ptr4(b, img, idx);
            let e = load_elem4(b, err_cur, x);
            let four = b.iconst(4);
            let eq = b.shr(e, four);
            let v = b.add(pix, eq);
            let ta = b.addrof(thresh);
            let t = b.load(MemWidth::B4, ta);
            let is_ink = b.icmp(Cmp::Ge, v, t);
            // Data-dependent branch: ink vs no ink.
            let then_b = b.block("ink");
            let else_b = b.block("white");
            let merge = b.block("diffuse");
            b.branch(is_ink, then_b, else_b);
            b.switch_to(then_b);
            let one = b.iconst(1);
            store_ptr4(b, outp, idx, one);
            let ia = b.addrof(ink);
            let ic = b.load(MemWidth::B4, ia);
            let ic1 = b.add(ic, one);
            b.store(MemWidth::B4, ia, ic1);
            b.jump(merge);
            b.switch_to(else_b);
            let zero = b.iconst(0);
            store_ptr4(b, outp, idx, zero);
            b.jump(merge);
            b.switch_to(merge);
            // Quantization error diffusion: 7/16 right, 9/16 next row.
            let z = b.iconst(0);
            let full = b.iconst(255);
            let target = b.select(is_ink, full, z);
            let qerr = b.sub(v, target);
            let seven = b.iconst(7);
            let er = b.mul(qerr, seven);
            let onec = b.iconst(1);
            let xr = b.add(x, onec);
            let ecur = load_elem4(b, err_cur, xr);
            let ecur1 = b.add(ecur, er);
            store_elem4(b, err_cur, xr, ecur1);
            let nine = b.iconst(9);
            let ed = b.mul(qerr, nine);
            let enext = load_elem4(b, err_next, x);
            let enext1 = b.add(enext, ed);
            store_elem4(b, err_next, x, enext1);
        });
        // Swap rows: copy next into cur, clear next.
        counted_loop(b, W, |b, x| {
            let e = load_elem4(b, err_next, x);
            store_elem4(b, err_cur, x, e);
            let z = b.iconst(0);
            store_elem4(b, err_next, x, z);
        });
    });
    let ia = b.addrof(ink);
    let total = b.load(MemWidth::B4, ia);
    b.ret(Some(total));
    p
}

/// Sobel edge detection over a small image with 3x3 kernel tables.
pub fn sobel() -> Program {
    const W: i64 = 64;
    const H: i64 = 48;
    let mut p = Program::new("sobel");
    let image = p.add_object(DataObject::heap_site("image"));
    let edges = p.add_object(DataObject::heap_site("edges"));
    let gx = p.add_object(DataObject::global("kernelGx", 9 * 4));
    let gy = p.add_object(DataObject::global("kernelGy", 9 * 4));
    let maxg = p.add_object(DataObject::global("maxGradient", 4));
    let mut b = FunctionBuilder::entry(&mut p);
    // Gx = [-1 0 1; -2 0 2; -1 0 1], Gy = transpose.
    for (obj, vals) in
        [(gx, [-1i64, 0, 1, -2, 0, 2, -1, 0, 1]), (gy, [-1, -2, -1, 0, 0, 0, 1, 2, 1])]
    {
        for (i, v) in vals.into_iter().enumerate() {
            let idx = b.iconst(i as i64);
            let val = b.iconst(v);
            store_elem4(&mut b, obj, idx, val);
        }
    }
    let sz = b.iconst(W * H * 4);
    let img = b.malloc(image, sz);
    let sz2 = b.iconst(W * H * 4);
    let out = b.malloc(edges, sz2);
    counted_loop(&mut b, W * H, |b, i| {
        let k = b.iconst(57);
        let v0 = b.mul(i, k);
        let m = b.iconst(0xFF);
        let v = b.and(v0, m);
        store_ptr4(b, img, i, v);
    });
    counted_loop(&mut b, H - 2, |b, y| {
        counted_loop(b, W - 2, |b, x| {
            let accx0 = b.iconst(0);
            let accx = b.mov(accx0);
            let accy0 = b.iconst(0);
            let accy = b.mov(accy0);
            counted_loop(b, 3, |b, ky| {
                unrolled_loop(b, 3, 3, |b, kx| {
                    let wc = b.iconst(W);
                    let yy = b.add(y, ky);
                    let xx = b.add(x, kx);
                    let row = b.mul(yy, wc);
                    let idx = b.add(row, xx);
                    let pix = load_ptr4(b, img, idx);
                    let three = b.iconst(3);
                    let krow = b.mul(ky, three);
                    let kidx = b.add(krow, kx);
                    let wx = load_elem4(b, gx, kidx);
                    let wy = load_elem4(b, gy, kidx);
                    let px = b.mul(pix, wx);
                    let py = b.mul(pix, wy);
                    let nx = b.add(accx, px);
                    b.mov_to(accx, nx);
                    let ny = b.add(accy, py);
                    b.mov_to(accy, ny);
                });
            });
            // |gx| + |gy|, clamped to 255.
            let z = b.iconst(0);
            let nx = b.sub(z, accx);
            let ax = b.ibin(IntBinOp::Max, accx, nx);
            let ny = b.sub(z, accy);
            let ay = b.ibin(IntBinOp::Max, accy, ny);
            let g0 = b.add(ax, ay);
            let g = clamp_const(b, g0, 0, 255);
            let wc = b.iconst(W);
            let one = b.iconst(1);
            let yy = b.add(y, one);
            let xx = b.add(x, one);
            let row = b.mul(yy, wc);
            let idx = b.add(row, xx);
            store_ptr4(b, out, idx, g);
            let ma = b.addrof(maxg);
            let cur = b.load(MemWidth::B4, ma);
            let mx = b.ibin(IntBinOp::Max, cur, g);
            b.store(MemWidth::B4, ma, mx);
        });
    });
    let ma = b.addrof(maxg);
    let m = b.load(MemWidth::B4, ma);
    b.ret(Some(m));
    p
}

/// Normalized lattice filter (`latnrm`): reflection-coefficient and
/// state arrays updated per sample.
pub fn latnrm() -> Program {
    const ORDER: i64 = 8;
    const N: i64 = 512;
    let mut p = Program::new("latnrm");
    let kcoef = p.add_object(DataObject::global("reflection", (ORDER * 4) as u64));
    let state = p.add_object(DataObject::global("latticeState", (ORDER * 4) as u64));
    let gain = p.add_object(DataObject::global("gain", 4));
    let input = p.add_object(DataObject::heap_site("samples"));
    let output = p.add_object(DataObject::heap_site("filtered"));
    let mut b = FunctionBuilder::entry(&mut p);
    counted_loop(&mut b, ORDER, |b, i| {
        let k = b.iconst(19);
        let v0 = b.mul(i, k);
        let m = b.iconst(0x7F);
        let v1 = b.and(v0, m);
        let h = b.iconst(64);
        let v = b.sub(v1, h);
        store_elem4(b, kcoef, i, v);
    });
    let ga = b.addrof(gain);
    let g4 = b.iconst(4);
    b.store(MemWidth::B4, ga, g4);
    let sz = b.iconst(N * 4);
    let inp = b.malloc(input, sz);
    let sz2 = b.iconst(N * 4);
    let outp = b.malloc(output, sz2);
    counted_loop(&mut b, N, |b, i| {
        let k = b.iconst(31);
        let v0 = b.mul(i, k);
        let m = b.iconst(0x1FF);
        let v1 = b.and(v0, m);
        let h = b.iconst(256);
        let v = b.sub(v1, h);
        store_ptr4(b, inp, i, v);
    });
    counted_loop(&mut b, N, |b, i| {
        let x = load_ptr4(b, inp, i);
        let f0 = b.mov(x);
        counted_loop(b, ORDER, |b, j| {
            let kj = load_elem4(b, kcoef, j);
            let sj = load_elem4(b, state, j);
            let t1 = b.mul(kj, sj);
            let seven = b.iconst(7);
            let t1s = b.shr(t1, seven);
            let fnew = b.sub(f0, t1s);
            let t2 = b.mul(kj, fnew);
            let t2s = b.shr(t2, seven);
            let snew = b.add(sj, t2s);
            store_elem4(b, state, j, snew);
            b.mov_to(f0, fnew);
        });
        let ga = b.addrof(gain);
        let g = b.load(MemWidth::B4, ga);
        let scaled = b.mul(f0, g);
        let two = b.iconst(2);
        let y = b.shr(scaled, two);
        store_ptr4(b, outp, i, y);
    });
    let last = b.iconst(N - 1);
    let y = load_ptr4(&mut b, outp, last);
    b.ret(Some(y));
    p
}

/// Blocked integer matrix multiply (`matmul`): `C = A × B` for 24×24
/// matrices.
pub fn matmul() -> Program {
    const N: i64 = 24;
    let mut p = Program::new("matmul");
    let a = p.add_object(DataObject::global("A", (N * N * 4) as u64));
    let b_m = p.add_object(DataObject::global("B", (N * N * 4) as u64));
    let c_m = p.add_object(DataObject::global("C", (N * N * 4) as u64));
    let trace = p.add_object(DataObject::global("trace", 4));
    let mut b = FunctionBuilder::entry(&mut p);
    for (obj, mul) in [(a, 13), (b_m, 7)] {
        counted_loop(&mut b, N * N, |b, i| {
            let k = b.iconst(mul);
            let v0 = b.mul(i, k);
            let m = b.iconst(0x3F);
            let v1 = b.and(v0, m);
            let h = b.iconst(32);
            let v = b.sub(v1, h);
            store_elem4(b, obj, i, v);
        });
    }
    counted_loop(&mut b, N, |b, i| {
        counted_loop(b, N, |b, j| {
            let acc0 = b.iconst(0);
            let acc = b.mov(acc0);
            unrolled_loop(b, N, 4, |b, k| {
                let nc = b.iconst(N);
                let arow = b.mul(i, nc);
                let aidx = b.add(arow, k);
                let av = load_elem4(b, a, aidx);
                let brow = b.mul(k, nc);
                let bidx = b.add(brow, j);
                let bv = load_elem4(b, b_m, bidx);
                let prod = b.mul(av, bv);
                let sum = b.add(acc, prod);
                b.mov_to(acc, sum);
            });
            let nc = b.iconst(N);
            let crow = b.mul(i, nc);
            let cidx = b.add(crow, j);
            store_elem4(b, c_m, cidx, acc);
        });
        // Accumulate the trace as the checksum.
        let nc = b.iconst(N);
        let row = b.mul(i, nc);
        let diag = b.add(row, i);
        let cv = load_elem4(b, c_m, diag);
        let ta = b.addrof(trace);
        let t = b.load(MemWidth::B4, ta);
        let t1 = b.add(t, cv);
        b.store(MemWidth::B4, ta, t1);
    });
    let ta = b.addrof(trace);
    let t = b.load(MemWidth::B4, ta);
    b.ret(Some(t));
    p
}

#[cfg(test)]
mod tests {
    use crate::{by_name, Suite};

    #[test]
    fn all_kernels_build_and_run() {
        for name in ["fir", "fft", "fsed", "sobel", "latnrm", "matmul"] {
            let w = by_name(name).unwrap();
            assert!(w.num_ops() > 40, "{} too small: {} ops", w.name, w.num_ops());
            assert!(w.num_objects() >= 4, "{}", w.name);
            assert_eq!(w.suite, Suite::Dsp);
        }
    }

    #[test]
    fn fsed_branches_both_ways() {
        let w = by_name("fsed").unwrap();
        // The ink/white blocks must both execute (data-dependent branch).
        let f = w.program.entry;
        let func = w.program.entry_function();
        let mut ink_freq = 0;
        let mut white_freq = 0;
        for (bid, block) in func.blocks.iter() {
            if block.label == "ink" {
                ink_freq = w.profile.block_freq(f, bid);
            }
            if block.label == "white" {
                white_freq = w.profile.block_freq(f, bid);
            }
        }
        assert!(ink_freq > 0, "no ink pixels");
        assert!(white_freq > 0, "no white pixels");
    }

    #[test]
    fn matmul_trace_is_stable() {
        let a = by_name("matmul").unwrap();
        let b = by_name("matmul").unwrap();
        let ra = mcpart_sim::run(&a.program, &[], mcpart_sim::ExecConfig::default()).unwrap();
        let rb = mcpart_sim::run(&b.program, &[], mcpart_sim::ExecConfig::default()).unwrap();
        assert_eq!(ra.return_value, rb.return_value);
    }
}
