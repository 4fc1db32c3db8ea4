//! Property-based tests on core invariants: DWRF round-trips for arbitrary
//! data, codec round-trips, transform invariants, and planner laws.

use bytes::Bytes;
use dsi::prelude::*;
use dsi_types::WorkerId;
use dwrf::plan::IoPlan;
use dwrf::{cipher::StreamCipher, compress, FileReader};
use proptest::prelude::*;
use wire::codec::{decode_envelope, encode_envelope, WireEnvelope};

/// Per-thread heap accounting, so a decoder test can bound what one call
/// allocates.
mod heap {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static LIVE: Cell<usize> = const { Cell::new(0) };
        static PEAK: Cell<usize> = const { Cell::new(0) };
    }

    fn grow(bytes: usize) {
        let _ = LIVE.try_with(|live| {
            let now = live.get() + bytes;
            live.set(now);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
        });
    }

    fn shrink(bytes: usize) {
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
    }

    /// The system allocator, counting live bytes per thread.
    pub struct Counting;

    // SAFETY: every call forwards to `System` unchanged; the counters are
    // const-initialised thread-locals without destructors, so touching
    // them never allocates or re-enters the allocator.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc(layout);
            if !ptr.is_null() {
                grow(layout.size());
            }
            ptr
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc_zeroed(layout);
            if !ptr.is_null() {
                grow(layout.size());
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            shrink(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let moved = System.realloc(ptr, layout, new_size);
            if !moved.is_null() {
                shrink(layout.size());
                grow(new_size);
            }
            moved
        }
    }

    /// Runs `f` and returns its result with the most heap bytes this
    /// thread held at once during the call, above what it held before.
    pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let base = LIVE.with(Cell::get);
        PEAK.with(|peak| peak.set(base));
        let out = f();
        (out, PEAK.with(Cell::get).saturating_sub(base))
    }
}

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Heap a decoder may take for `input_len` bytes of input: a constant
/// factor per input byte (each decoded element costs at least one input
/// byte) plus fixed slack, never the length a corrupt header claims.
fn decode_heap_bound(input_len: usize) -> usize {
    256 * input_len + 4096
}

/// An envelope whose sparse ids all need `width` bytes (1..=4 selects the
/// slab width, 0 forces ids past `u32::MAX` onto the varint path).
fn id_envelope(width: usize, raw_ids: &[u64], rows: usize) -> WireEnvelope {
    let ids: Vec<u64> = raw_ids
        .iter()
        .map(|&v| match width {
            0 => v | 1 << 40,
            w => v >> (64 - 8 * w),
        })
        .collect();
    let mut batch = Batch::new();
    for row in 0..rows {
        let mut s = Sample::new(row as f32);
        s.set_dense(FeatureId(1), row as f32 * 0.5);
        let take: Vec<u64> = ids.iter().copied().skip(row).step_by(rows).collect();
        s.set_sparse(FeatureId(2), SparseList::from_ids(take));
        batch.push(s);
    }
    WireEnvelope {
        split: 3,
        seq: 1,
        last: false,
        worker: WorkerId(1),
        trace_id: 0,
        parent_span: 0,
        tensor: batch.materialize(&[FeatureId(1)], &[FeatureId(2)]),
    }
}

fn arb_unscored_list() -> impl Strategy<Value = SparseList> {
    proptest::collection::vec(any::<u64>(), 0..20).prop_map(SparseList::from_ids)
}

fn arb_scored_list() -> impl Strategy<Value = SparseList> {
    proptest::collection::vec((any::<u64>(), -1e6f32..1e6f32), 0..20).prop_map(|pairs| {
        let (ids, scores): (Vec<u64>, Vec<f32>) = pairs.into_iter().unzip();
        SparseList::from_scored(ids, scores)
    })
}

/// Samples respecting the schema invariant that scored-ness is a property
/// of the feature column: ids 40..60 are unscored sparse, 60..80 scored.
fn arb_sample() -> impl Strategy<Value = Sample> {
    (
        -1e6f32..1e6f32,
        proptest::collection::btree_map(0u64..40, -1e6f32..1e6f32, 0..10),
        proptest::collection::btree_map(40u64..60, arb_unscored_list(), 0..6),
        proptest::collection::btree_map(60u64..80, arb_scored_list(), 0..6),
    )
        .prop_map(|(label, dense, unscored, scored)| {
            let mut s = Sample::new(label);
            for (id, v) in dense {
                s.set_dense(FeatureId(id), v);
            }
            for (id, l) in unscored.into_iter().chain(scored) {
                s.set_sparse(FeatureId(id), l);
            }
            s
        })
}

/// Random transform ops over the [`arb_sample`] feature id space: sparse
/// normalization on 40..80, dense normalization on 0..40, generation ops
/// deriving into 80..90 (forcing a row-path residue), and sampling.
fn arb_plan_op() -> impl Strategy<Value = TransformOp> {
    prop_oneof![
        (40u64..80, any::<u64>(), 1u64..100_000).prop_map(|(f, salt, modulus)| {
            TransformOp::SigridHash {
                input: FeatureId(f),
                salt,
                modulus,
            }
        }),
        (40u64..80, 1u64..1_000).prop_map(|(f, modulus)| TransformOp::PositiveModulus {
            input: FeatureId(f),
            modulus,
        }),
        (40u64..80, 0usize..15).prop_map(|(f, x)| TransformOp::FirstX {
            input: FeatureId(f),
            x,
        }),
        (60u64..80, -2.0f32..2.0, -1.0f32..1.0).prop_map(|(f, scale, offset)| {
            TransformOp::ComputeScore {
                input: FeatureId(f),
                scale,
                offset,
            }
        }),
        (0u64..40, -10.0f32..0.0, 0.0f32..10.0).prop_map(|(f, min, max)| TransformOp::Clamp {
            input: FeatureId(f),
            min,
            max,
        }),
        (0u64..40).prop_map(|f| TransformOp::Logit {
            input: FeatureId(f)
        }),
        (0u64..40, 0.1f64..3.0).prop_map(|(f, lambda)| TransformOp::BoxCox {
            input: FeatureId(f),
            lambda,
        }),
        (0u64..40, -43_200i32..43_200).prop_map(|(f, tz_offset_secs)| {
            TransformOp::GetLocalHour {
                input: FeatureId(f),
                tz_offset_secs,
            }
        }),
        (40u64..60, 40u64..60, 80u64..90).prop_map(|(a, b, output)| TransformOp::Cartesian {
            a: FeatureId(a),
            b: FeatureId(b),
            output: FeatureId(output),
        }),
        (40u64..60, 1usize..4, 80u64..90).prop_map(|(f, n, output)| TransformOp::NGram {
            input: FeatureId(f),
            n,
            output: FeatureId(output),
        }),
        (0u64..40, 80u64..90).prop_map(|(f, output)| TransformOp::Bucketize {
            input: FeatureId(f),
            borders: vec![-0.5, 0.0, 0.5],
            output: FeatureId(output),
        }),
        (0.3f64..1.0, any::<u64>()).prop_map(|(rate, seed)| TransformOp::Sampling { rate, seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dwrf_round_trips_arbitrary_samples(
        samples in proptest::collection::vec(arb_sample(), 1..60),
        rows_per_stripe in 1usize..40,
        flattened: bool,
        compressed: bool,
        encrypted: bool,
    ) {
        let opts = WriterOptions {
            flattened,
            compressed,
            encrypted,
            rows_per_stripe,
            ..Default::default()
        };
        let mut w = FileWriter::new(opts);
        for s in &samples {
            w.push(s.clone());
        }
        let file = w.finish().expect("non-empty file");
        let reader = FileReader::open(file.bytes().clone()).expect("valid file");
        let decoded = reader.read_all_unprojected().expect("decodable");
        prop_assert_eq!(&decoded, &samples);
    }

    #[test]
    fn dwrf_projection_is_a_filter(
        samples in proptest::collection::vec(arb_sample(), 1..30),
        keep in proptest::collection::btree_set(0u64..80, 0..20),
    ) {
        let mut w = FileWriter::new(WriterOptions::default());
        for s in &samples {
            w.push(s.clone());
        }
        let file = w.finish().expect("non-empty file");
        let reader = FileReader::open(file.bytes().clone()).expect("valid file");
        let projection = Projection::new(keep.iter().map(|&k| FeatureId(k)).collect());
        let decoded = reader.read_all(&projection).expect("decodable");
        for (orig, got) in samples.iter().zip(&decoded) {
            let mut expect = orig.clone();
            expect.project(|id| projection.contains(id));
            prop_assert_eq!(&expect, got);
        }
    }

    #[test]
    fn compression_round_trips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let enc = compress::compress(&data);
        prop_assert!(enc.len() <= data.len() + 16);
        prop_assert_eq!(compress::decompress(&enc).expect("decompressable"), data);
    }

    #[test]
    fn cipher_round_trips(key: u64, nonce: u64, data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let c = StreamCipher::new(key);
        let enc = c.encrypt(nonce, &data);
        prop_assert_eq!(c.decrypt(nonce, &enc), data);
    }

    #[test]
    fn io_plan_covers_every_wanted_byte(
        ranges in proptest::collection::vec((0u64..100_000, 1u64..5_000), 1..40),
        window in prop_oneof![Just(None), (0u64..1_000_000).prop_map(Some)],
    ) {
        let policy = match window {
            None => CoalescePolicy::None,
            Some(w) => CoalescePolicy::Window(w),
        };
        let plan = IoPlan::build(ranges.clone(), policy);
        // Every wanted byte is covered by some read.
        for (off, len) in &ranges {
            let covered = plan.reads.iter().any(|r| r.covers(*off, *len))
                // A range may be split across merged reads only if reads
                // are contiguous over it; verify byte-wise on endpoints.
                || {
                    let mut pos = *off;
                    let end = off + len;
                    let mut ok = true;
                    while pos < end {
                        match plan.reads.iter().find(|r| r.offset <= pos && pos < r.end()) {
                            Some(r) => pos = r.end(),
                            None => { ok = false; break; }
                        }
                    }
                    ok
                };
            prop_assert!(covered, "range ({off}, {len}) not covered");
        }
        // Reads are disjoint and sorted.
        for w in plan.reads.windows(2) {
            prop_assert!(w[0].end() <= w[1].offset);
        }
        prop_assert!(plan.read_bytes >= plan.wanted_bytes);
        if matches!(policy, CoalescePolicy::None) {
            prop_assert_eq!(plan.over_read_bytes(), 0);
        }
    }

    #[test]
    fn sigrid_hash_bounds_and_determinism(
        ids in proptest::collection::vec(any::<u64>(), 0..30),
        salt: u64,
        modulus in 1u64..1_000_000,
    ) {
        let op = TransformOp::SigridHash { input: FeatureId(1), salt, modulus };
        let mut a = Sample::new(0.0);
        a.set_sparse(FeatureId(1), SparseList::from_ids(ids.clone()));
        let mut b = a.clone();
        op.apply(&mut a);
        op.apply(&mut b);
        prop_assert_eq!(a.sparse(FeatureId(1)), b.sparse(FeatureId(1)));
        prop_assert!(a.sparse(FeatureId(1)).expect("list present").ids().iter().all(|&i| i < modulus));
        prop_assert_eq!(a.sparse(FeatureId(1)).expect("list present").len(), ids.len());
    }

    #[test]
    fn first_x_never_grows(
        ids in proptest::collection::vec(any::<u64>(), 0..40),
        x in 0usize..50,
    ) {
        let op = TransformOp::FirstX { input: FeatureId(1), x };
        let mut s = Sample::new(0.0);
        s.set_sparse(FeatureId(1), SparseList::from_ids(ids.clone()));
        op.apply(&mut s);
        let got = s.sparse(FeatureId(1)).expect("list present");
        prop_assert_eq!(got.len(), ids.len().min(x));
        prop_assert_eq!(got.ids(), &ids[..ids.len().min(x)]);
    }

    #[test]
    fn positive_modulus_stays_in_range(
        ids in proptest::collection::vec(any::<u64>(), 0..40),
        modulus in 1u64..1_000,
    ) {
        let op = TransformOp::PositiveModulus { input: FeatureId(1), modulus };
        let mut s = Sample::new(0.0);
        s.set_sparse(FeatureId(1), SparseList::from_ids(ids));
        op.apply(&mut s);
        prop_assert!(s.sparse(FeatureId(1)).expect("list present").ids().iter().all(|&i| i < modulus));
    }

    #[test]
    fn clamp_is_idempotent_and_bounded(
        v in -1e9f32..1e9f32,
        (min, max) in (-100f32..0.0, 0f32..100.0),
    ) {
        let op = TransformOp::Clamp { input: FeatureId(1), min, max };
        let mut s = Sample::new(0.0);
        s.set_dense(FeatureId(1), v);
        op.apply(&mut s);
        let once = s.dense(FeatureId(1)).expect("value present");
        prop_assert!((min..=max).contains(&once));
        op.apply(&mut s);
        prop_assert_eq!(s.dense(FeatureId(1)).expect("value present"), once);
    }

    #[test]
    fn dedup_stream_round_trips_sessionized_samples(
        samples in proptest::collection::vec(arb_sample(), 1..40),
        session_len in 1usize..6,
        rows_per_stripe in 1usize..40,
        window in 1usize..80,
    ) {
        // Expand each sample into a session whose members share its sparse
        // payload (session_len == 1 is the degenerate no-duplication case:
        // every row is its own canonical payload and the refs stream is
        // the identity).
        let rows: Vec<Sample> = samples
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                (0..session_len).map(move |m| {
                    let mut member = s.clone();
                    member.set_dense(FeatureId(90), (i * 7 + m) as f32);
                    member
                })
            })
            .collect();
        let mut w = FileWriter::new(WriterOptions {
            dedup: true,
            dedup_window: window,
            rows_per_stripe,
            ..Default::default()
        });
        for s in &rows {
            w.push(s.clone());
        }
        let file = w.finish().expect("non-empty file");
        let reader = FileReader::open(file.bytes().clone()).expect("valid file");
        let decoded = reader.read_all_unprojected().expect("decodable");
        prop_assert_eq!(&decoded, &rows);
        let stats = file.dedup_stats();
        prop_assert_eq!(stats.rows, rows.len() as u64);
        prop_assert!(stats.canonicals <= stats.rows);
        // Dedup is per-stripe: savings are only guaranteed when a whole
        // session (consecutive rows sharing a payload) fits in one stripe.
        // session_len == 1 is the degenerate no-duplication case — nothing
        // to save, but the round trip above must still be exact.
        if session_len > 1 && rows_per_stripe >= session_len {
            prop_assert!(stats.canonicals < stats.rows);
        }
    }

    #[test]
    fn dedup_codec_round_trips_and_saves_exactly(
        samples in proptest::collection::vec(arb_sample(), 1..30),
        window in 1usize..64,
    ) {
        use dwrf::stream::{decode_dedup_sparse, encode_dedup_sparse};
        let (refs, data, stats) = encode_dedup_sparse(&samples, window);
        let decoded = decode_dedup_sparse(&refs, &data, samples.len()).expect("decodable");
        for (row, got) in samples.iter().zip(&decoded) {
            let expect: Vec<(FeatureId, SparseList)> =
                row.sparse_iter().map(|(f, l)| (f, l.clone())).collect();
            prop_assert_eq!(&expect, got);
        }
        prop_assert_eq!(stats.rows, samples.len() as u64);
        prop_assert!(stats.canonicals >= 1);
        prop_assert!(stats.canonicals <= stats.rows);
    }

    #[test]
    fn cluster_sessions_expand_is_lossless(
        samples in proptest::collection::vec(arb_sample(), 0..40),
        session_window in 1usize..8,
        max_set_size in 1usize..12,
    ) {
        let cfg = dedup::DedupConfig {
            session_window,
            max_set_size,
            ..Default::default()
        };
        let (sets, stats) = dedup::cluster_sessions(&samples, &cfg);
        prop_assert_eq!(dedup::expand_sets(&sets), samples.clone());
        prop_assert_eq!(stats.rows, samples.len() as u64);
        prop_assert_eq!(stats.sets, sets.len() as u64);
        for set in &sets {
            prop_assert!(set.len() <= max_set_size);
        }
    }

    #[test]
    fn dictionary_encoding_round_trips_repetitive_ids(
        hot in proptest::collection::vec(0u64..16, 1..8),
        rows in 8usize..80,
    ) {
        // Every row draws from a small hot set: the encoder should pick a
        // dictionary and the round trip must be exact.
        let samples: Vec<Sample> = (0..rows)
            .map(|r| {
                let mut s = Sample::new(r as f32);
                let ids: Vec<u64> = hot.iter().map(|&h| h * 1_000_003).collect();
                s.set_sparse(FeatureId(1), SparseList::from_ids(ids));
                s
            })
            .collect();
        let mut w = FileWriter::new(WriterOptions::default());
        for s in &samples {
            w.push(s.clone());
        }
        let file = w.finish().expect("non-empty");
        let reader = FileReader::open(file.bytes().clone()).expect("valid");
        let decoded = reader.read_all_unprojected().expect("decodable");
        prop_assert_eq!(&decoded, &samples);
    }

    #[test]
    fn columnar_equals_row_path_for_normalization(
        ids in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..12), 1..40),
        salt: u64,
        modulus in 1u64..100_000,
        x in 1usize..10,
        dense_vals in proptest::collection::vec(0.01f32..0.99, 1..40),
    ) {
        use dsi_types::Batch;
        use transforms::ColumnarPlan;
        let n = ids.len().min(dense_vals.len());
        let batch: Batch = (0..n)
            .map(|i| {
                let mut s = Sample::new(0.0);
                s.set_dense(FeatureId(0), dense_vals[i]);
                s.set_sparse(FeatureId(1), SparseList::from_ids(ids[i].clone()));
                s
            })
            .collect();
        let plan = TransformPlan::new(vec![
            TransformOp::SigridHash { input: FeatureId(1), salt, modulus },
            TransformOp::FirstX { input: FeatureId(1), x },
            TransformOp::Logit { input: FeatureId(0) },
        ]);
        let dense_ids = [FeatureId(0)];
        let sparse_ids = [FeatureId(1)];
        let mut row_batch = batch.clone();
        for s in row_batch.samples_mut() {
            plan.apply_sample(s);
        }
        let row = row_batch.materialize(&dense_ids, &sparse_ids);
        let columnar = ColumnarPlan::try_from_plan(&plan).expect("normalization plan");
        let mut col = batch.materialize(&dense_ids, &sparse_ids);
        columnar.apply(&mut col, &dense_ids);
        prop_assert_eq!(row, col);
    }

    #[test]
    fn unrolled_varint_matches_scalar_reference(
        data in proptest::collection::vec(any::<u8>(), 0..32),
        start in 0usize..32,
    ) {
        use dwrf::encoding::{read_varint, read_varint_scalar};
        // Arbitrary bytes from an arbitrary start: exercises truncated,
        // over-long, and boundary-straddling windows (start near the end
        // forces the scalar fallback; start deep inside hits the unrolled
        // 10-byte path).
        let start = start.min(data.len());
        let mut fast_pos = start;
        let mut slow_pos = start;
        let fast = read_varint(&data, &mut fast_pos);
        let slow = read_varint_scalar(&data, &mut slow_pos);
        match (fast, slow) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a, b);
                prop_assert_eq!(fast_pos, slow_pos);
            }
            // Error *messages* may differ (the unrolled path reports
            // overflow where the scalar runs off the buffer first), but
            // Ok-vs-Err must agree on every input.
            (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
        }
    }

    #[test]
    fn chunked_varint_sequence_matches_scalar_reference(
        values in proptest::collection::vec(
            prop_oneof![0u64..128, any::<u64>()], // single-byte heavy: trigger the 8-wide word path
            0..64,
        ),
        trailing in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        use dwrf::encoding::{read_varint_scalar, read_varints_into, write_varint};
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        buf.extend_from_slice(&trailing); // slack after the sequence must not confuse the word path
        let mut pos = 0;
        let mut chunked = Vec::new();
        read_varints_into(&buf, &mut pos, values.len(), &mut chunked).expect("valid sequence");
        let mut ref_pos = 0;
        let scalar: Vec<u64> = (0..values.len())
            .map(|_| read_varint_scalar(&buf, &mut ref_pos).expect("valid sequence"))
            .collect();
        prop_assert_eq!(&chunked, &scalar);
        prop_assert_eq!(&chunked, &values);
        prop_assert_eq!(pos, ref_pos);
        // Truncation: asking for one more varint than encoded must fail
        // once the slack runs out of decodable bytes.
        if trailing.is_empty() {
            let mut p = 0;
            let mut over = Vec::new();
            prop_assert!(
                read_varints_into(&buf, &mut p, values.len() + 1, &mut over).is_err()
            );
        }
    }

    #[test]
    fn bulk_varint_writer_matches_scalar_reference(
        values in proptest::collection::vec(
            prop_oneof![0u64..128, any::<u64>()], // single-byte heavy: trigger the 8-wide slab path
            0..300, // cross the 256-byte slab flush boundary
        ),
        prefix in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        use dwrf::encoding::{write_varint, write_varints};
        let mut scalar = prefix.clone();
        for &v in &values {
            write_varint(&mut scalar, v);
        }
        let mut bulk = prefix; // appends after existing bytes, like the codec does
        write_varints(&mut bulk, &values);
        prop_assert_eq!(&bulk, &scalar);
    }

    #[test]
    fn rle_decode_matches_reference_and_caps_before_alloc(
        values in proptest::collection::vec(
            prop_oneof![0u64..4, any::<u64>()], // small domain: force repeat runs
            0..120,
        ),
    ) {
        use dwrf::encoding::{read_varint_scalar, rle_decode, rle_decode_capped, rle_encode};
        let buf = rle_encode(&values);
        // Scalar reference decoder: byte-at-a-time varints, per-element pushes.
        let mut reference = Vec::new();
        let mut pos = 0;
        while pos < buf.len() {
            let header = read_varint_scalar(&buf, &mut pos).expect("header");
            let count = (header >> 1) as usize;
            if header & 1 == 0 {
                let v = read_varint_scalar(&buf, &mut pos).expect("value");
                for _ in 0..count {
                    reference.push(v);
                }
            } else {
                for _ in 0..count {
                    reference.push(read_varint_scalar(&buf, &mut pos).expect("literal"));
                }
            }
        }
        prop_assert_eq!(&reference, &values);
        prop_assert_eq!(&rle_decode(&buf).expect("decodable"), &values);
        prop_assert_eq!(&rle_decode_capped(&buf, values.len()).expect("decodable"), &values);
        if !values.is_empty() {
            // A cap below the true count must reject (before allocating).
            prop_assert!(rle_decode_capped(&buf, values.len() - 1).is_err());
        }
        // Truncating the encoded buffer anywhere must never panic.
        for cut in 0..buf.len() {
            let _ = rle_decode_capped(&buf[..cut], values.len());
        }
    }

    #[test]
    fn f32_stream_round_trips_and_rejects_ragged_tails(
        values in proptest::collection::vec(any::<f32>(), 0..80),
    ) {
        use dwrf::encoding::{read_f32s, write_f32s};
        let mut buf = Vec::new();
        write_f32s(&mut buf, &values);
        let decoded = read_f32s(&buf).expect("aligned stream");
        prop_assert_eq!(decoded.len(), values.len());
        // Bitwise comparison (NaN-safe): the chunked reader must preserve
        // every payload exactly, including NaN bit patterns.
        for (a, b) in decoded.iter().zip(&values) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        if !values.is_empty() {
            for ragged in 1..4 {
                prop_assert!(read_f32s(&buf[..buf.len() - ragged]).is_err());
            }
        }
    }

    #[test]
    fn split_plan_columnar_equals_row_path_over_random_plans(
        samples in proptest::collection::vec(arb_sample(), 1..24),
        ops in proptest::collection::vec(arb_plan_op(), 0..12),
        base_row in 0u64..1_000_000,
    ) {
        use dsi_types::Batch;
        use transforms::ColumnarPlan;
        let plan = TransformPlan::new(ops);
        let dense_ids: Vec<FeatureId> = (0..40).map(FeatureId).collect();
        // Materialize only part of the sparse id space: ops on 72..80 hit
        // the shadow-length accounting path (cost without tensor data).
        let sparse_ids: Vec<FeatureId> = (40..72).map(FeatureId).collect();
        let batch: Batch = samples.into_iter().collect();

        let (full_out, full_cost) = plan.apply_batch(batch.clone(), base_row);
        let row_tensor = full_out.materialize(&dense_ids, &sparse_ids);

        let (residue, columnar) = ColumnarPlan::split_plan(&plan);
        let (half_out, half_cost) = residue.apply_batch(batch, base_row);
        let ctx = columnar.capture_ctx(half_out.samples(), &dense_ids, &sparse_ids);
        let mut col_tensor = half_out.materialize(&dense_ids, &sparse_ids);
        let applied = columnar.apply_with_cost(
            &mut col_tensor,
            &dense_ids,
            &ctx,
            plan.cost_model(),
        );

        prop_assert_eq!(&row_tensor, &col_tensor, "split execution must be bitwise-equal");
        prop_assert_eq!(
            full_cost.elements,
            half_cost.elements + applied.cost.elements,
            "element accounting must be exact across the split"
        );
        let split_cycles = half_cost.cycles + applied.cost.cycles;
        prop_assert!(
            (full_cost.cycles - split_cycles).abs() <= 1e-6 * full_cost.cycles.max(1.0),
            "cycle accounting must match: {} vs {}",
            full_cost.cycles,
            split_cycles
        );

        // The production path additionally pushes the columnar plan's
        // FirstX caps into materialization (prefix truncation commutes
        // with every columnar kernel): same bitwise result, same exact
        // cost accounting, without ever copying the truncated-away tail.
        let caps = columnar.sparse_caps(&sparse_ids);
        let mut capped_tensor = half_out.materialize_capped(&dense_ids, &sparse_ids, &caps);
        let capped = columnar.apply_with_cost(
            &mut capped_tensor,
            &dense_ids,
            &ctx,
            plan.cost_model(),
        );
        prop_assert_eq!(
            &row_tensor,
            &capped_tensor,
            "capped materialization must stay bitwise-equal"
        );
        prop_assert_eq!(
            applied.cost.elements,
            capped.cost.elements,
            "capped materialization must not change cost accounting"
        );
        prop_assert!(
            (applied.cost.cycles - capped.cost.cycles).abs()
                <= 1e-6 * applied.cost.cycles.max(1.0),
            "capped cycles must match uncapped: {} vs {}",
            applied.cost.cycles,
            capped.cost.cycles
        );
    }

    #[test]
    fn tectonic_read_returns_written_bytes(
        len in 1usize..20_000,
        reads in proptest::collection::vec((0.0f64..1.0, 1usize..512), 1..10),
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let cluster = TectonicCluster::new(ClusterConfig {
            nodes: 5,
            block_size: 700,
            replication: 3,
            hdd: true,
        });
        cluster.append("f", Bytes::from(data.clone())).expect("capacity available");
        for (frac, rlen) in reads {
            let off = (frac * len as f64) as usize;
            let rlen = rlen.min(len - off.min(len));
            if rlen == 0 { continue; }
            let got = cluster.read("f", off as u64, rlen as u64).expect("in-range read");
            prop_assert_eq!(&got[..], &data[off..off + rlen]);
        }
    }
}

proptest! {
    // Decoder robustness: cheap cases, so many of them.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn envelope_decoder_rejects_corruption_with_bounded_heap(
        width in 0usize..5,
        raw_ids in proptest::collection::vec(any::<u64>(), 0..40),
        rows in 1usize..6,
        flips in proptest::collection::vec((0.0f64..1.0, 1u8..255), 0..4),
        splice in proptest::collection::vec(0.0f64..1.0, 0..2),
        cut in 0.0f64..1.5,
    ) {
        let env = id_envelope(width, &raw_ids, rows);
        let mut bytes = encode_envelope(&env);
        prop_assert_eq!(&decode_envelope(&bytes).expect("round trip"), &env);
        for (at, xor) in flips {
            let i = (at * bytes.len() as f64) as usize;
            bytes[i] ^= xor;
        }
        // Overwrite a varint claiming 2^35 elements plus a valid slab
        // mode: where it lands on an id count, the decoder must refuse
        // rather than reserve for it.
        const CLAIM: [u8; 7] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x01];
        for at in splice {
            let i = (at * bytes.len() as f64) as usize;
            let end = (i + CLAIM.len()).min(bytes.len());
            bytes[i..end].copy_from_slice(&CLAIM[..end - i]);
        }
        bytes.truncate((cut * bytes.len() as f64) as usize);
        // Whatever the damage, the decoder returns (a value or a typed
        // error) without panicking, and its heap stays proportional to
        // the bytes it was handed.
        let (_, peak) = heap::peak_during(|| decode_envelope(&bytes));
        prop_assert!(peak <= decode_heap_bound(bytes.len()), "{} bytes of heap for {} input bytes", peak, bytes.len());
    }

    #[test]
    fn envelope_decoder_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let (_, peak) = heap::peak_during(|| decode_envelope(&bytes));
        prop_assert!(peak <= decode_heap_bound(bytes.len()), "{} bytes of heap for {} input bytes", peak, bytes.len());
    }

    #[test]
    fn decompress_rejects_corruption_with_bounded_heap(
        data in proptest::collection::vec(prop_oneof![0u8..4, any::<u8>()], 0..600),
        flips in proptest::collection::vec((0.0f64..1.0, 1u8..255), 0..4),
        cut in 0.0f64..1.5,
        lz_tag: bool,
    ) {
        let mut block = compress::compress(&data);
        for (at, xor) in flips {
            let i = (at * block.len() as f64) as usize;
            block[i] ^= xor;
        }
        block.truncate((cut * block.len() as f64) as usize);
        if lz_tag && !block.is_empty() {
            block[0] = 1; // reach the token decoder on arbitrary bytes too
        }
        let (_, peak) = heap::peak_during(|| compress::decompress(&block));
        prop_assert!(peak <= decode_heap_bound(block.len()), "{} bytes of heap for {} input bytes", peak, block.len());
    }
}
