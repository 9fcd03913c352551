//! JPEG codec kernels: `cjpeg` (compress) and `djpeg` (decompress),
//! modeled on the Mediabench JPEG benchmark.
//!
//! Object mix: luminance/chrominance quantization tables, DC and AC
//! Huffman code-length tables, the sample MCU workspace, the component
//! state (previous DC values), and heap image/stream buffers.

use crate::gen::{
    clamp_const, counted_loop, load_elem4, load_ptr4, store_elem4, store_ptr4, unrolled_loop,
};
use mcpart_ir::{Cmp, DataObject, FunctionBuilder, IntBinOp, MemWidth, ObjectId, Program};

const W: i64 = 48;
const H: i64 = 32;
const MCUS: i64 = (W / 8) * (H / 8);

struct JpegObjects {
    qtbl_luma: ObjectId,
    qtbl_chroma: ObjectId,
    dc_huff: ObjectId,
    ac_huff: ObjectId,
    mcu: ObjectId,
    last_dc: ObjectId,
    bit_count: ObjectId,
}

fn add_objects(p: &mut Program) -> JpegObjects {
    JpegObjects {
        qtbl_luma: p.add_object(DataObject::global("std_luminance_quant_tbl", 64 * 4)),
        qtbl_chroma: p.add_object(DataObject::global("std_chrominance_quant_tbl", 64 * 4)),
        dc_huff: p.add_object(DataObject::global("dc_huff_bits", 17 * 4)),
        ac_huff: p.add_object(DataObject::global("ac_huff_bits", 256 * 4)),
        mcu: p.add_object(DataObject::global("MCU_buffer", 64 * 4)),
        last_dc: p.add_object(DataObject::global("last_dc_val", 3 * 4)),
        bit_count: p.add_object(DataObject::global("bytes_emitted", 4)),
    }
}

fn init_tables(b: &mut FunctionBuilder<'_>, o: &JpegObjects) {
    counted_loop(b, 64, |b, i| {
        // Luma table rises with frequency; chroma is coarser.
        let two = b.iconst(2);
        let sixteen = b.iconst(16);
        let l0 = b.mul(i, two);
        let l = b.add(l0, sixteen);
        store_elem4(b, o.qtbl_luma, i, l);
        let three = b.iconst(3);
        let c0 = b.mul(i, three);
        let seventeen = b.iconst(17);
        let c = b.add(c0, seventeen);
        store_elem4(b, o.qtbl_chroma, i, c);
    });
    counted_loop(b, 17, |b, i| {
        let one = b.iconst(1);
        let v = b.add(i, one);
        store_elem4(b, o.dc_huff, i, v);
    });
    counted_loop(b, 256, |b, i| {
        // Code length grows with the symbol's run/size class.
        let four = b.iconst(4);
        let hi = b.shr(i, four);
        let fifteen = b.iconst(15);
        let lo = b.and(i, fifteen);
        let sum = b.add(hi, lo);
        let two = b.iconst(2);
        let len0 = b.add(sum, two);
        let len = clamp_const(b, len0, 2, 16);
        store_elem4(b, o.ac_huff, i, len);
    });
}

fn build(name: &'static str, decode: bool) -> Program {
    let mut p = Program::new(name);
    let o = add_objects(&mut p);
    let image = p.add_object(DataObject::heap_site("imageBuffer"));
    let stream = p.add_object(DataObject::heap_site("jpegStream"));
    let mut b = FunctionBuilder::entry(&mut p);
    init_tables(&mut b, &o);
    let sz = b.iconst(W * H * 4);
    let img = b.malloc(image, sz);
    let sz2 = b.iconst(W * H * 4);
    let strm = b.malloc(stream, sz2);
    counted_loop(&mut b, W * H, |b, i| {
        let k = b.iconst(if decode { 77 } else { 45 });
        let v0 = b.mul(i, k);
        let m = b.iconst(0xFF);
        let v = b.and(v0, m);
        store_ptr4(b, img, i, v);
    });
    counted_loop(&mut b, MCUS, |b, mcu_idx| {
        // Component cycles 0,1,2 (Y, Cb, Cr) with chroma every 3rd MCU.
        let three = b.iconst(3);
        let comp = b.ibin(IntBinOp::Rem, mcu_idx, three);
        // Load MCU from the image.
        unrolled_loop(b, 64, 4, |b, i| {
            let c64 = b.iconst(64);
            let base = b.mul(mcu_idx, c64);
            let src0 = b.add(base, i);
            let limit = b.iconst(W * H - 1);
            let src = b.ibin(IntBinOp::Min, src0, limit);
            let v = load_ptr4(b, img, src);
            let shifted = {
                let c128 = b.iconst(128);
                b.sub(v, c128)
            };
            store_elem4(b, o.mcu, i, shifted);
        });
        // Quantize (or dequantize) against the component's table.
        unrolled_loop(b, 64, 4, |b, i| {
            let zero = b.iconst(0);
            let is_luma = b.icmp(Cmp::Eq, comp, zero);
            let ql = load_elem4(b, o.qtbl_luma, i);
            let qc = load_elem4(b, o.qtbl_chroma, i);
            let q = b.select(is_luma, ql, qc);
            let v = load_elem4(b, o.mcu, i);
            let out = if decode {
                let r = b.mul(v, q);
                let four = b.iconst(4);
                b.shr(r, four)
            } else {
                b.ibin(IntBinOp::Div, v, q)
            };
            store_elem4(b, o.mcu, i, out);
        });
        // DC differential + Huffman "bit cost" accounting.
        let z = b.iconst(0);
        let dc = load_elem4(b, o.mcu, z);
        let prev = load_elem4(b, o.last_dc, comp);
        let diff = b.sub(dc, prev);
        store_elem4(b, o.last_dc, comp, dc);
        let nd = b.sub(z, diff);
        let mag = b.ibin(IntBinOp::Max, diff, nd);
        let size_class = clamp_const(b, mag, 0, 16);
        let dc_bits = load_elem4(b, o.dc_huff, size_class);
        let ba = b.addrof(o.bit_count);
        let bits0 = b.load(MemWidth::B4, ba);
        let bits1 = b.add(bits0, dc_bits);
        b.store(MemWidth::B4, ba, bits1);
        // AC coefficients: look up the run/size symbol cost and write
        // the coefficient to the output stream.
        unrolled_loop(b, 63, 3, |b, i| {
            let one = b.iconst(1);
            let idx = b.add(i, one);
            let v = load_elem4(b, o.mcu, idx);
            let z2 = b.iconst(0);
            let nv = b.sub(z2, v);
            let m = b.ibin(IntBinOp::Max, v, nv);
            let sym = clamp_const(b, m, 0, 255);
            let cost = load_elem4(b, o.ac_huff, sym);
            let ba = b.addrof(o.bit_count);
            let bits = b.load(MemWidth::B4, ba);
            let nb = b.add(bits, cost);
            b.store(MemWidth::B4, ba, nb);
            let c64 = b.iconst(64);
            let base = b.mul(mcu_idx, c64);
            let dst = b.add(base, idx);
            store_ptr4(b, strm, dst, v);
        });
    });
    let ba = b.addrof(o.bit_count);
    let bits = b.load(MemWidth::B4, ba);
    b.ret(Some(bits));
    p
}

/// Builds the `cjpeg` program.
pub fn cjpeg() -> Program {
    build("cjpeg", false)
}

/// Builds the `djpeg` program.
pub fn djpeg() -> Program {
    build("djpeg", true)
}

#[cfg(test)]
mod tests {
    use crate::by_name;

    #[test]
    fn jpeg_pair_builds() {
        let c = by_name("cjpeg").unwrap();
        let d = by_name("djpeg").unwrap();
        assert!(c.num_objects() >= 9);
        assert!(d.num_ops() > 120);
        let r = mcpart_sim::run(&c.program, &[], mcpart_sim::ExecConfig::default()).unwrap();
        match r.return_value {
            Some(mcpart_sim::Value::Int(bits)) => assert!(bits > 0),
            other => panic!("unexpected {other:?}"),
        }
    }
}
