//! Additional DSP kernels: `viterbi`, `autcor`, `histogram`.

use crate::gen::{
    clamp_const, counted_loop, load_elem4, load_ptr4, store_elem4, store_ptr4, unrolled_loop,
};
use mcpart_ir::{Cmp, DataObject, FunctionBuilder, IntBinOp, MemWidth, Program};

/// Viterbi decoder kernel: a 16-state trellis walked over a symbol
/// stream, with branch-metric tables and double-buffered path metrics.
pub fn viterbi() -> Program {
    const STATES: i64 = 16;
    const SYMBOLS: i64 = 128;
    let mut p = Program::new("viterbi");
    let metric0 = p.add_object(DataObject::global("pathMetricA", (STATES * 4) as u64));
    let metric1 = p.add_object(DataObject::global("pathMetricB", (STATES * 4) as u64));
    let branch_tbl = p.add_object(DataObject::global("branchMetric", (STATES * 2 * 4) as u64));
    let trace = p.add_object(DataObject::heap_site("traceback"));
    let input = p.add_object(DataObject::heap_site("symbols"));
    let best_state = p.add_object(DataObject::global("bestState", 4));
    let mut b = FunctionBuilder::entry(&mut p);
    // Branch metrics: per (state, bit) cost table.
    counted_loop(&mut b, STATES * 2, |b, i| {
        let k = b.iconst(23);
        let v0 = b.mul(i, k);
        let m = b.iconst(0x3F);
        let v = b.and(v0, m);
        store_elem4(b, branch_tbl, i, v);
    });
    let sz = b.iconst(SYMBOLS * 4);
    let inp = b.malloc(input, sz);
    let sz2 = b.iconst(SYMBOLS * 4);
    let tb = b.malloc(trace, sz2);
    counted_loop(&mut b, SYMBOLS, |b, i| {
        let k = b.iconst(45);
        let v0 = b.mul(i, k);
        let one = b.iconst(1);
        let v = b.and(v0, one);
        store_ptr4(b, inp, i, v);
    });
    // Trellis: for each symbol, update all states from their two
    // predecessors (add-compare-select), writing the winner and its
    // decision bit.
    counted_loop(&mut b, SYMBOLS, |b, t| {
        let sym = load_ptr4(b, inp, t);
        let decisions0 = b.iconst(0);
        let decisions = b.mov(decisions0);
        unrolled_loop(b, STATES, 4, |b, s| {
            // Predecessors: (s*2) % STATES and (s*2+1) % STATES.
            let two = b.iconst(2);
            let p0r = b.mul(s, two);
            let mask = b.iconst(STATES - 1);
            let p0 = b.and(p0r, mask);
            let one = b.iconst(1);
            let p1r = b.add(p0r, one);
            let p1 = b.and(p1r, mask);
            // Alternate metric buffers by symbol parity.
            let parity = b.and(t, one);
            let m0a = load_elem4(b, metric0, p0);
            let m0b = load_elem4(b, metric1, p0);
            let m0 = b.select(parity, m0b, m0a);
            let m1a = load_elem4(b, metric0, p1);
            let m1b = load_elem4(b, metric1, p1);
            let m1 = b.select(parity, m1b, m1a);
            // Branch costs keyed by (state, received symbol).
            let bi0 = b.mul(s, two);
            let bi = b.add(bi0, sym);
            let cost = load_elem4(b, branch_tbl, bi);
            let c0 = b.add(m0, cost);
            let c1 = b.add(m1, cost);
            let take1 = b.icmp(Cmp::Lt, c1, c0);
            let best = b.select(take1, c1, c0);
            let capped = clamp_const(b, best, 0, 1 << 20);
            // Write into the other buffer.
            let winner_a = b.select(parity, capped, capped);
            store_elem4(b, metric1, s, winner_a);
            store_elem4(b, metric0, s, capped);
            // Fold the decision bit into this symbol's word.
            let shifted = b.shl(take1, s);
            let acc = b.or(decisions, shifted);
            b.mov_to(decisions, acc);
        });
        store_ptr4(b, tb, t, decisions);
    });
    // Pick the best final state.
    let besti0 = b.iconst(0);
    let besti = b.mov(besti0);
    let bestm0 = b.iconst(1 << 20);
    let bestm = b.mov(bestm0);
    counted_loop(&mut b, STATES, |b, s| {
        let m = load_elem4(b, metric0, s);
        let better = b.icmp(Cmp::Lt, m, bestm);
        let nm = b.select(better, m, bestm);
        b.mov_to(bestm, nm);
        let ns = b.select(better, s, besti);
        b.mov_to(besti, ns);
    });
    let ba = b.addrof(best_state);
    b.store(MemWidth::B4, ba, besti);
    b.ret(Some(besti));
    p
}

/// Autocorrelation kernel (`autcor`, after the EEMBC telecom kernel):
/// `r[k] = Σ_i x[i]·x[i+k]` for a handful of lags.
pub fn autcor() -> Program {
    const N: i64 = 256;
    const LAGS: i64 = 16;
    let mut p = Program::new("autcor");
    let result = p.add_object(DataObject::global("autocorr", (LAGS * 4) as u64));
    let window = p.add_object(DataObject::global("windowTable", 16 * 4));
    let energy = p.add_object(DataObject::global("energy", 4));
    let input = p.add_object(DataObject::heap_site("samples"));
    let mut b = FunctionBuilder::entry(&mut p);
    // Triangular window coefficients.
    counted_loop(&mut b, 16, |b, i| {
        let eight = b.iconst(8);
        let d = b.sub(i, eight);
        let zero = b.iconst(0);
        let nd = b.sub(zero, d);
        let mag = b.ibin(IntBinOp::Max, d, nd);
        let w = b.sub(eight, mag);
        let two = b.iconst(2);
        let w2 = b.add(w, two);
        store_elem4(b, window, i, w2);
    });
    let sz = b.iconst(N * 4);
    let inp = b.malloc(input, sz);
    counted_loop(&mut b, N, |b, i| {
        let k = b.iconst(37);
        let v0 = b.mul(i, k);
        let m = b.iconst(0xFF);
        let v1 = b.and(v0, m);
        let h = b.iconst(128);
        let raw = b.sub(v1, h);
        let fifteen = b.iconst(15);
        let wi = b.and(i, fifteen);
        let w = load_elem4(b, window, wi);
        let scaled = b.mul(raw, w);
        let three = b.iconst(3);
        let v = b.shr(scaled, three);
        store_ptr4(b, inp, i, v);
    });
    counted_loop(&mut b, LAGS, |b, lag| {
        let acc0 = b.iconst(0);
        let acc = b.mov(acc0);
        unrolled_loop(b, N - LAGS, 4, |b, i| {
            let x = load_ptr4(b, inp, i);
            let ik = b.add(i, lag);
            let y = load_ptr4(b, inp, ik);
            let prod = b.mul(x, y);
            let eight = b.iconst(8);
            let scaled = b.shr(prod, eight);
            let sum = b.add(acc, scaled);
            b.mov_to(acc, sum);
        });
        store_elem4(b, result, lag, acc);
        let ea = b.addrof(energy);
        let e = b.load(MemWidth::B4, ea);
        let zero = b.iconst(0);
        let nacc = b.sub(zero, acc);
        let mag = b.ibin(IntBinOp::Max, acc, nacc);
        let e1 = b.add(e, mag);
        b.store(MemWidth::B4, ea, e1);
    });
    let zero = b.iconst(0);
    let r0 = load_elem4(&mut b, result, zero);
    b.ret(Some(r0));
    p
}

/// Histogram kernel: data-dependent scatter increments into a bin
/// table — the access pattern the paper's object-granularity placement
/// handles well (one hot indivisible table).
pub fn histogram() -> Program {
    const N: i64 = 1024;
    const BINS: i64 = 64;
    let mut p = Program::new("histogram");
    let bins = p.add_object(DataObject::global("bins", (BINS * 4) as u64));
    let cdf = p.add_object(DataObject::global("cdf", (BINS * 4) as u64));
    let stats = p.add_object(DataObject::global("stats", 8));
    let input = p.add_object(DataObject::heap_site("pixels"));
    let mut b = FunctionBuilder::entry(&mut p);
    let sz = b.iconst(N * 4);
    let inp = b.malloc(input, sz);
    counted_loop(&mut b, N, |b, i| {
        let k = b.iconst(97);
        let v0 = b.mul(i, k);
        let m = b.iconst(0xFF);
        let v = b.and(v0, m);
        store_ptr4(b, inp, i, v);
    });
    // Binning: bins[pixel >> 2] += 1.
    unrolled_loop(&mut b, N, 4, |b, i| {
        let v = load_ptr4(b, inp, i);
        let two = b.iconst(2);
        let bin = b.shr(v, two);
        let cur = load_elem4(b, bins, bin);
        let one = b.iconst(1);
        let next = b.add(cur, one);
        store_elem4(b, bins, bin, next);
    });
    // Prefix sum into the CDF, tracking the max bin.
    let run0 = b.iconst(0);
    let run = b.mov(run0);
    let maxv0 = b.iconst(0);
    let maxv = b.mov(maxv0);
    counted_loop(&mut b, BINS, |b, i| {
        let c = load_elem4(b, bins, i);
        let acc = b.add(run, c);
        b.mov_to(run, acc);
        store_elem4(b, cdf, i, acc);
        let nm = b.ibin(IntBinOp::Max, maxv, c);
        b.mov_to(maxv, nm);
    });
    let sa = b.addrof(stats);
    b.store(MemWidth::B4, sa, maxv);
    let four = b.iconst(4);
    let sa2 = b.add(sa, four);
    b.store(MemWidth::B4, sa2, run);
    b.ret(Some(run));
    p
}

#[cfg(test)]
mod tests {
    use crate::by_name;

    #[test]
    fn extra_kernels_build_and_run() {
        for name in ["viterbi", "autcor", "histogram"] {
            let w = by_name(name).unwrap();
            assert!(w.num_ops() > 60, "{}: {} ops", w.name, w.num_ops());
            assert!(w.num_objects() >= 4, "{}", w.name);
        }
    }

    #[test]
    fn histogram_counts_all_samples() {
        let w = by_name("histogram").unwrap();
        let r = mcpart_sim::run(&w.program, &[], mcpart_sim::ExecConfig::default()).unwrap();
        // The CDF total equals the sample count.
        assert_eq!(r.return_value, Some(mcpart_sim::Value::Int(1024)));
    }

    #[test]
    fn viterbi_returns_a_state() {
        let w = by_name("viterbi").unwrap();
        let r = mcpart_sim::run(&w.program, &[], mcpart_sim::ExecConfig::default()).unwrap();
        match r.return_value {
            Some(mcpart_sim::Value::Int(s)) => assert!((0..16).contains(&s), "{s}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
