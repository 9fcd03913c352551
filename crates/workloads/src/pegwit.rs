//! `pegwit`: public-key encryption over GF(2^255), modeled on the
//! Mediabench Pegwit benchmark.
//!
//! The dominant computation is Galois-field polynomial arithmetic over
//! word arrays plus a square-hash over the message. Objects: the field
//! reduction table, the hash round-constant table, key and accumulator
//! word arrays, and heap message/ciphertext buffers.

use crate::gen::{counted_loop, load_elem4, load_ptr4, store_elem4, store_ptr4, unrolled_loop};
use mcpart_ir::{Cmp, DataObject, FunctionBuilder, IntBinOp, Program};

const WORDS: i64 = 16; // GF element size in 32-bit words
const MSG_WORDS: i64 = 1024;

/// Builds the `pegwit` program.
pub fn pegwit() -> Program {
    let mut p = Program::new("pegwit");
    let reduction = p.add_object(DataObject::global("gf_reduction_tbl", 256 * 4));
    let round_consts = p.add_object(DataObject::global("hash_round_consts", 32 * 4));
    let key = p.add_object(DataObject::global("secret_key", (WORDS * 4) as u64));
    let acc = p.add_object(DataObject::global("gf_accumulator", (WORDS * 4) as u64));
    let digest = p.add_object(DataObject::global("digest", 8 * 4));
    let message = p.add_object(DataObject::heap_site("message"));
    let cipher = p.add_object(DataObject::heap_site("ciphertext"));

    let mut b = FunctionBuilder::entry(&mut p);
    counted_loop(&mut b, 256, |b, i| {
        let k = b.iconst(0x1D);
        let v0 = b.mul(i, k);
        let m = b.iconst(0xFF);
        let v = b.and(v0, m);
        store_elem4(b, reduction, i, v);
    });
    counted_loop(&mut b, 32, |b, i| {
        let k = b.iconst(0x9E37);
        let v0 = b.mul(i, k);
        let m = b.iconst(0xFFFF);
        let v = b.and(v0, m);
        store_elem4(b, round_consts, i, v);
    });
    counted_loop(&mut b, WORDS, |b, i| {
        let k = b.iconst(0x6A09);
        let v0 = b.mul(i, k);
        let m = b.iconst(0xFFFF);
        let v = b.and(v0, m);
        store_elem4(b, key, i, v);
    });
    let sz = b.iconst(MSG_WORDS * 4);
    let msg = b.malloc(message, sz);
    let sz2 = b.iconst(MSG_WORDS * 4);
    let ct = b.malloc(cipher, sz2);
    counted_loop(&mut b, MSG_WORDS, |b, i| {
        let k = b.iconst(0x5851);
        let v0 = b.mul(i, k);
        let m = b.iconst(0xFFFF);
        let v = b.and(v0, m);
        store_ptr4(b, msg, i, v);
    });
    // Square hash of the message into the digest.
    unrolled_loop(&mut b, MSG_WORDS, 4, |b, i| {
        let seven = b.iconst(7);
        let slot = b.and(i, seven);
        let m_word = load_ptr4(b, msg, i);
        let thirty1 = b.iconst(31);
        let rc_idx = b.and(i, thirty1);
        let rc = load_elem4(b, round_consts, rc_idx);
        let d0 = load_elem4(b, digest, slot);
        let mixed0 = b.ibin(IntBinOp::Xor, d0, m_word);
        let sq = b.mul(mixed0, mixed0);
        let nine = b.iconst(9);
        let sqh = b.shr(sq, nine);
        let mixed = b.add(sqh, rc);
        let m16 = b.iconst(0xFFFF);
        let folded = b.and(mixed, m16);
        store_elem4(b, digest, slot, folded);
    });
    // GF "multiply-accumulate" encryption: for each message word,
    // shift-and-reduce the accumulator against the key, XOR in the
    // message, emit ciphertext.
    unrolled_loop(&mut b, MSG_WORDS, 4, |b, i| {
        let wmask = b.iconst(WORDS - 1);
        let w = b.and(i, wmask);
        let a = load_elem4(b, acc, w);
        let kv = load_elem4(b, key, w);
        // Carry-out byte selects the reduction entry.
        let eight = b.iconst(8);
        let carry = b.shr(a, eight);
        let cmask = b.iconst(0xFF);
        let cidx = b.and(carry, cmask);
        let red = load_elem4(b, reduction, cidx);
        let one = b.iconst(1);
        let shifted = b.shl(a, one);
        let reduced = b.ibin(IntBinOp::Xor, shifted, red);
        let mixed = b.ibin(IntBinOp::Xor, reduced, kv);
        let m_word = load_ptr4(b, msg, i);
        let out = b.ibin(IntBinOp::Xor, mixed, m_word);
        let m16 = b.iconst(0xFFFF);
        let folded = b.and(out, m16);
        store_elem4(b, acc, w, folded);
        store_ptr4(b, ct, i, folded);
    });
    // Checksum: fold digest and a sample of the ciphertext.
    let sum0 = b.iconst(0);
    let sum = b.mov(sum0);
    counted_loop(&mut b, 8, |b, i| {
        let d = load_elem4(b, digest, i);
        let s = b.add(sum, d);
        b.mov_to(sum, s);
    });
    let last = b.iconst(MSG_WORDS - 1);
    let c_last = load_ptr4(&mut b, ct, last);
    let zero = b.iconst(0);
    let nonzero = b.icmp(Cmp::Ne, c_last, zero);
    let bumped = b.add(sum, nonzero);
    b.ret(Some(bumped));
    p
}

#[cfg(test)]
mod tests {
    use crate::by_name;

    #[test]
    fn pegwit_builds_and_runs() {
        let w = by_name("pegwit").unwrap();
        assert!(w.num_objects() >= 7);
        let r = mcpart_sim::run(&w.program, &[], mcpart_sim::ExecConfig::default()).unwrap();
        match r.return_value {
            Some(mcpart_sim::Value::Int(v)) => assert!(v > 0),
            other => panic!("unexpected {other:?}"),
        }
    }
}
