// Test code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Differential equivalence tests: the streaming operator fold and merges
//! against the whole-buffer reference model.
//!
//! The reference ([`reference::execute`] and [`reference::merge`]) is the
//! operator set as first written: one pass over a whole stripe buffer, a
//! full sort for top-k, and concatenate-then-sort merges. These tests cut
//! random stripes into random element-aligned runs, zero some runs and
//! lend those as [`ReadRun::Zeros`], fold the runs with
//! [`Operator::fold`], and assert that every stripe's partial, and every
//! stripe-order merge of partials, equals the reference's over the same
//! bytes exactly. Any divergence would change a pushdown result, and with
//! it every digest that folds one.

use lmp_compute::operator::reference;
use lmp_compute::{OpOutput, Operator, Predicate, ReduceOp};
use lmp_core::pool::ReadRun;
use lmp_core::prelude::*;
use lmp_mem::{DramProfile, FRAME_BYTES};
use proptest::prelude::*;

/// Value ranges: the full `u64` range (0), or values modulo a small
/// number, which makes duplicates common.
const MODULI: [u64; 4] = [0, 2, 7, 64];

/// One generated stripe: element values, tail length, run cut points, and
/// a mask of the runs to zero (bit `i` for run `i`).
type RawStripe = (Vec<u64>, u8, Vec<u64>, u8);

/// One run of a built stripe: its byte range, and whether it is all zeros
/// and lent as [`ReadRun::Zeros`].
type Run = (std::ops::Range<usize>, bool);

/// A stripe's bytes and its runs (element-aligned but for the tail).
fn stripe(raw: &RawStripe, modulus: u64, order: u8, tail: u64) -> (Vec<u8>, Vec<Run>) {
    let (vals, tail_len, cuts, zeros) = raw;
    let mut vals: Vec<u64> = vals
        .iter()
        .map(|&v| if modulus == 0 { v } else { v % modulus })
        .collect();
    match order {
        1 => vals.sort_unstable(),
        2 => vals.sort_unstable_by(|a, b| b.cmp(a)),
        _ => {}
    }
    let mut bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
    // A 1–7-byte tail (or none) that no operator may read as an element.
    bytes.extend_from_slice(&tail.to_le_bytes()[..usize::from(*tail_len % 8)]);
    let mut bounds: Vec<usize> = cuts
        .iter()
        .map(|&c| (c as usize % (vals.len() + 1)) * 8)
        .collect();
    bounds.sort_unstable();
    bounds.push(bytes.len());
    // Repeated bounds give empty runs; a zeroed run may hold the tail.
    let mut at = 0;
    let mut runs = Vec::with_capacity(bounds.len());
    for (i, &b) in bounds.iter().enumerate() {
        let zero = (*zeros >> (i % 8)) & 1 == 1;
        if zero {
            bytes[at..b].fill(0);
        }
        runs.push((at..b, zero));
        at = b;
    }
    (bytes, runs)
}

/// The runs of a built stripe as a pool read lends them.
fn runs<'a>(bytes: &'a [u8], runs: &[Run]) -> Vec<ReadRun<'a>> {
    runs.iter()
        .map(|(r, zero)| {
            if *zero {
                ReadRun::Zeros(r.len())
            } else {
                ReadRun::Bytes(&bytes[r.clone()])
            }
        })
        .collect()
}

/// Every operator under test: Sum, Min and Max; Count and Filter under all
/// three predicates and under one that always matches 0; TopK with k = 0,
/// 1, n − 1, n, n + 5 and `total + 1`, where n counts the first stripe's
/// elements and `total` every stripe's.
fn operators(pick: u64, mask: u64, modulus: u64, n: usize, total: usize) -> Vec<Operator> {
    let t = if modulus == 0 { pick } else { pick % modulus };
    let mut ops = vec![
        Operator::Aggregate(ReduceOp::Sum),
        Operator::Aggregate(ReduceOp::Min),
        Operator::Aggregate(ReduceOp::Max),
    ];
    for p in [
        Predicate::Greater(t),
        Predicate::Less(t),
        Predicate::EqMasked {
            mask,
            value: t & mask,
        },
        Predicate::EqMasked { mask, value: 0 },
    ] {
        ops.push(Operator::Count(p));
        ops.push(Operator::Filter(p));
    }
    for k in [0, 1, n.saturating_sub(1), n, n + 5, total + 1] {
        ops.push(Operator::TopK(k as u32));
    }
    ops
}

fn check(stripes: &[RawStripe], range: usize, order: u8, pick: u64, mask: u64) {
    let modulus = MODULI[range % MODULI.len()];
    let built: Vec<(Vec<u8>, Vec<Run>)> = stripes
        .iter()
        .map(|s| stripe(s, modulus, order, pick))
        .collect();
    let n = stripes[0].0.len();
    let total: usize = stripes.iter().map(|s| s.0.len()).sum();
    for op in operators(pick, mask, modulus, n, total) {
        let mut merged = op.identity();
        let mut want = op.identity();
        for (i, (bytes, spec)) in built.iter().enumerate() {
            let part = op.fold(runs(bytes, spec));
            let expect = reference::execute(&op, bytes);
            prop_assert_eq!(
                &part,
                &expect,
                "{:?} partial of stripe {} ({:?})",
                op,
                i,
                spec
            );
            merged = op.merge(merged, part).unwrap();
            want = reference::merge(&op, want, expect).unwrap();
            prop_assert_eq!(&merged, &want, "{:?} merge through stripe {}", op, i);
        }
        if let (Operator::TopK(k), OpOutput::Top(top)) = (op, &merged) {
            prop_assert_eq!(top.len(), total.min(k as usize));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random stripes, cut into random element-aligned runs of which
    /// random ones are zeros lent as `Zeros`, fold to the reference's
    /// partials and merge to its results, stripe by stripe.
    #[test]
    fn fold_and_merge_match_the_reference(
        stripes in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u64>(), 0..300),
                any::<u8>(),
                proptest::collection::vec(any::<u64>(), 0..6),
                any::<u8>(),
            ),
            1..5,
        ),
        range in 0usize..4,
        order in 0u8..3,
        pick in any::<u64>(),
        mask in any::<u64>(),
    ) {
        check(&stripes, range, order, pick, mask);
    }
}

/// Hand-picked edges: empty stripes, a tail-only stripe, one element,
/// runs that split exactly at the filter's stack-block and lane edges, and
/// zero runs: empty, tail-only, holding the tail, and whole stripes.
#[test]
fn edge_stripes_match_the_reference() {
    let seq: Vec<u64> = (0..200).collect();
    let cases: Vec<Vec<RawStripe>> = vec![
        vec![(vec![], 0, vec![], 0)],
        vec![(vec![], 7, vec![0, 0], 0b101)],
        vec![(vec![u64::MAX], 3, vec![1], 0b10)],
        vec![(vec![u64::MAX], 3, vec![], 1)],
        vec![
            (seq.clone(), 0, vec![4, 64, 128], 0b1010),
            (seq.clone(), 5, vec![63, 65], 0b100),
        ],
        vec![
            (vec![5; 130], 1, vec![3, 67], 0),
            (vec![], 0, vec![], 1),
            (seq, 0, vec![], 0),
        ],
    ];
    for stripes in &cases {
        for order in 0..3 {
            check(stripes, 0, order, 100, 0xf0);
            check(stripes, 3, order, 100, 0x3);
        }
    }
}

/// A stripe read from the pool whose frame was written only in its first
/// 100 bytes: the read yields the frame's one-page prefix and then zeros,
/// and every operator folds it to the reference's result over the
/// zero-padded bytes, whether the stripe ends inside the prefix, just
/// past it, further into the zeros, or on the frame's end.
#[test]
fn sparse_frame_folds_like_its_zero_padded_bytes() {
    let mut pool = LogicalPool::new(PoolConfig {
        servers: 2,
        capacity_per_server: 4 * FRAME_BYTES,
        shared_per_server: 2 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 64,
    });
    let seg = pool
        .alloc(FRAME_BYTES, Placement::On(lmp_fabric::NodeId(1)))
        .unwrap();
    let written: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
    pool.write_bytes(LogicalAddr::new(seg, 0), &written)
        .unwrap();
    for len in [100, 4096 + 13, 40_003, FRAME_BYTES as usize] {
        let mut padded = vec![0u8; len];
        padded[..100].copy_from_slice(&written);
        for op in operators(0x3c, 0xff, 0, len / 8, len / 8) {
            let runs = pool
                .read_runs(LogicalAddr::new(seg, 0), len as u64)
                .unwrap();
            assert_eq!(
                op.fold(runs),
                reference::execute(&op, &padded),
                "{op:?} over {len} bytes"
            );
        }
    }
}
