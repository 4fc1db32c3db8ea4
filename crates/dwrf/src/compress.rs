//! An LZ77-style block compressor for DWRF streams.
//!
//! Streams are compressed before encryption. The codec favors encode speed
//! over ratio (storage bytes in the paper's tables are "compressed sizes",
//! and extraction cost includes decompression, so the work must be real).
//!
//! Format: a 1-byte mode tag (`0` = stored, `1` = LZ), then for LZ blocks a
//! varint uncompressed length followed by a token stream. Each token is a
//! control byte: `0x00..=0x7f` means a literal run of `ctl + 1` bytes;
//! `0x80..=0xff` means a match of length `(ctl & 0x7f) + MIN_MATCH` at a
//! varint back-distance.

use crate::encoding::{read_varint, write_varint};
use dsi_types::{DsiError, Result};

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 0x7f + MIN_MATCH;
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// The compressor's hash table of recent positions, kept per thread and
/// reused across calls. A slot holds `base + position`; anything below
/// the current `base` was written by an earlier call and reads as empty,
/// so a call costs no table fill (DWRF streams are a few hundred bytes,
/// against a 32k-slot table). `base` advances past each input and the
/// slots are zeroed only when it would wrap.
struct MatchTable {
    slots: Vec<u32>,
    base: u32,
}

impl MatchTable {
    fn new() -> Self {
        Self {
            slots: vec![0; 1 << HASH_BITS],
            base: 1,
        }
    }

    /// Makes room for an input of `len` bytes (`len < u32::MAX`) and
    /// returns the base its positions are stamped from.
    fn begin(&mut self, len: usize) -> u32 {
        if (u32::MAX - self.base) as usize <= len {
            self.slots.fill(0);
            self.base = 1;
        }
        let base = self.base;
        self.base += len as u32;
        base
    }
}

thread_local! {
    static TABLE: std::cell::RefCell<MatchTable> = std::cell::RefCell::new(MatchTable::new());
}

/// Length of the common prefix of `a[from..]` and `b[from..]`, capped at
/// `limit` (both slices at least `limit` long), compared a word at a time.
#[inline]
fn match_len(a: &[u8], b: &[u8], from: usize, limit: usize) -> usize {
    let mut len = from;
    while len + 8 <= limit {
        let x = u64::from_le_bytes(a[len..len + 8].try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(b[len..len + 8].try_into().expect("8 bytes"));
        if x != 0 {
            return len + (x.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && a[len] == b[len] {
        len += 1;
    }
    len
}

/// Compresses `input`, returning the encoded block.
///
/// Falls back to a stored block when compression does not help, and for
/// inputs of 4 GiB or more (positions would not fit the match table).
pub fn compress(input: &[u8]) -> Vec<u8> {
    if input.len() < MIN_MATCH * 2 || input.len() >= u32::MAX as usize {
        return stored_block(input);
    }
    TABLE.with(|table| compress_with(&mut table.borrow_mut(), input))
}

fn compress_with(table: &mut MatchTable, input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.push(1u8);
    write_varint(&mut out, input.len() as u64);

    let base = table.begin(input.len());
    let slots = &mut table.slots;
    let mut i = 0;
    let mut literal_start = 0;
    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let stamp = slots[h];
        slots[h] = base + i as u32;
        // Every stamp at or above `base` is a position this call indexed
        // earlier, so the candidate always precedes `i`.
        if stamp >= base {
            let candidate = (stamp - base) as usize;
            if input[candidate..candidate + MIN_MATCH] == input[i..i + MIN_MATCH] {
                let limit = (input.len() - i).min(MAX_MATCH);
                let len = match_len(&input[candidate..], &input[i..], MIN_MATCH, limit);
                flush_literals(&mut out, &input[literal_start..i]);
                let dist = i - candidate;
                out.push(0x80 | (len - MIN_MATCH) as u8);
                write_varint(&mut out, dist as u64);
                // Index a few positions inside the match to keep the table warm.
                let end = i + len;
                let mut j = i + 1;
                while j + MIN_MATCH <= input.len() && j < end {
                    slots[hash4(&input[j..])] = base + j as u32;
                    j += 2;
                }
                i = end;
                literal_start = i;
                continue;
            }
        }
        i += 1;
    }
    flush_literals(&mut out, &input[literal_start..]);

    if out.len() > input.len() {
        stored_block(input)
    } else {
        out
    }
}

fn stored_block(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() + 1);
    out.push(0u8);
    out.extend_from_slice(input);
    out
}

fn flush_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let n = lits.len().min(0x80);
        out.push((n - 1) as u8);
        out.extend_from_slice(&lits[..n]);
        lits = &lits[n..];
    }
}

/// If `block` is a stored (uncompressed) block, returns the byte range of
/// its payload within `block`. Zero-copy readers slice this range out of
/// the shared stripe buffer instead of decompressing into fresh scratch.
pub fn stored_payload_range(block: &[u8]) -> Option<std::ops::Range<usize>> {
    (block.first() == Some(&0)).then_some(1..block.len())
}

/// Decompresses a block produced by [`compress`].
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] on malformed input.
pub fn decompress(block: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    decompress_into(block, &mut out)?;
    Ok(out)
}

/// Decompresses a block produced by [`compress`] into `out` (cleared
/// first), so pooled scratch buffers can absorb the output allocation.
///
/// # Errors
///
/// Returns [`DsiError::Corrupt`] on malformed input.
pub fn decompress_into(block: &[u8], out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    let (&mode, rest) = block
        .split_first()
        .ok_or_else(|| DsiError::corrupt("empty compressed block"))?;
    match mode {
        0 => {
            out.extend_from_slice(rest);
            Ok(())
        }
        1 => {
            let mut pos = 0;
            let expect = read_varint(rest, &mut pos)?;
            // A literal token never expands and a match token of two or
            // more bytes emits at most MAX_MATCH, so the remaining bytes
            // bound the output; a larger claim is corrupt, and rejecting it
            // here keeps the reservation proportional to the input.
            if expect > ((rest.len() - pos) / 2 * MAX_MATCH) as u64 {
                return Err(DsiError::corrupt(format!(
                    "block claims {expect} bytes from {} compressed bytes",
                    rest.len() - pos
                )));
            }
            let expect = expect as usize;
            out.reserve(expect);
            while pos < rest.len() {
                let ctl = rest[pos];
                pos += 1;
                if ctl & 0x80 == 0 {
                    let n = ctl as usize + 1;
                    if pos + n > rest.len() {
                        return Err(DsiError::corrupt("truncated literal run"));
                    }
                    out.extend_from_slice(&rest[pos..pos + n]);
                    pos += n;
                } else {
                    let len = (ctl & 0x7f) as usize + MIN_MATCH;
                    let dist = read_varint(rest, &mut pos)? as usize;
                    if dist == 0 || dist > out.len() {
                        return Err(DsiError::corrupt("match distance out of range"));
                    }
                    let start = out.len() - dist;
                    if dist >= len {
                        out.extend_from_within(start..start + len);
                    } else {
                        // Overlapping copies are legal (repeat patterns).
                        for k in 0..len {
                            let b = out[start + k];
                            out.push(b);
                        }
                    }
                }
            }
            if out.len() != expect {
                return Err(DsiError::corrupt(format!(
                    "decompressed {} bytes, expected {expect}",
                    out.len()
                )));
            }
            Ok(())
        }
        _ => Err(DsiError::corrupt("unknown compression mode")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::rng::SplitMix64;

    fn round_trip(data: &[u8]) {
        let enc = compress(data);
        let dec = decompress(&enc).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn empty_and_tiny() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_data_compresses() {
        let data: Vec<u8> = b"featurefeaturefeature".repeat(100);
        let enc = compress(&data);
        assert!(
            enc.len() < data.len() / 3,
            "len {} vs {}",
            enc.len(),
            data.len()
        );
        round_trip(&data);
    }

    #[test]
    fn random_data_stored_without_blowup() {
        let mut r = SplitMix64::new(1);
        let data: Vec<u8> = (0..4096).map(|_| r.next_u64() as u8).collect();
        let enc = compress(&data);
        assert!(enc.len() <= data.len() + 1);
        round_trip(&data);
    }

    #[test]
    fn overlapping_match_round_trip() {
        // "abab" repeated produces distance-2 overlapping matches.
        let data = b"ab".repeat(500);
        round_trip(&data);
    }

    #[test]
    fn structured_columnar_like_data() {
        // Simulates varint-heavy columnar content: small ints with runs.
        let mut data = Vec::new();
        for i in 0u32..2000 {
            data.extend_from_slice(&(i % 17).to_le_bytes());
        }
        let enc = compress(&data);
        assert!(enc.len() < data.len());
        round_trip(&data);
    }

    #[test]
    fn stored_payload_range_identifies_stored_blocks() {
        let stored = compress(&[7u8; 4]); // too short to match: stored
        let range = stored_payload_range(&stored).expect("stored block");
        assert_eq!(&stored[range], &[7u8; 4]);
        let lz = compress(&b"featurefeaturefeature".repeat(50));
        assert!(stored_payload_range(&lz).is_none());
        assert!(stored_payload_range(&[]).is_none());
    }

    #[test]
    fn decompress_into_reuses_and_clears_scratch() {
        let data = b"ab".repeat(300);
        let enc = compress(&data);
        let mut scratch = vec![0xee; 17];
        decompress_into(&enc, &mut scratch).unwrap();
        assert_eq!(scratch, data);
    }

    #[test]
    fn corrupt_inputs_error() {
        assert!(decompress(&[]).is_err());
        assert!(decompress(&[9, 1, 2]).is_err());
        // LZ block claiming length but with bad match distance.
        let mut bad = vec![1u8];
        write_varint(&mut bad, 8);
        bad.push(0x80); // match of MIN_MATCH at distance...
        write_varint(&mut bad, 99); // ...out of range
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn oversized_length_claim_is_rejected_before_allocating() {
        // Ten bytes claiming a terabyte of output: the claim exceeds what
        // one literal byte can expand to, so it must be a typed error
        // rather than an allocation abort.
        let mut bomb = vec![1u8];
        write_varint(&mut bomb, 1 << 40);
        bomb.extend_from_slice(&[0x00, 0x41]);
        assert!(matches!(decompress(&bomb), Err(DsiError::Corrupt(_))));
        // The largest claim the remaining bytes can honour still decodes.
        let mut max = vec![1u8];
        write_varint(&mut max, 4 + MAX_MATCH as u64);
        max.extend_from_slice(&[0x03, b'a', b'b', b'c', b'd', 0xff, 0x01]);
        assert_eq!(decompress(&max).unwrap().len(), 4 + MAX_MATCH);
    }

    /// Fixed inputs covering stored, short, highly repetitive, random,
    /// low-entropy, id-slab, columnar and long mixed data.
    fn golden_inputs() -> Vec<Vec<u8>> {
        let mut r = SplitMix64::new(0x5eed);
        let random: Vec<u8> = (0..4096).map(|_| r.next_u64() as u8).collect();
        let low_entropy: Vec<u8> = (0..20_000).map(|_| (r.next_u64() % 4) as u8).collect();
        let mut ids = Vec::new();
        for _ in 0..5_000 {
            let id = (r.next_u64() % 1_000) as u32 * 997;
            ids.extend_from_slice(&id.to_le_bytes());
        }
        let mut columnar = Vec::new();
        for i in 0u32..2_000 {
            columnar.extend_from_slice(&(i % 17).to_le_bytes());
        }
        let mut mixed = Vec::new();
        while mixed.len() < 200_000 {
            let run = (r.next_u64() % 300) as usize;
            if r.next_u64().is_multiple_of(2) {
                mixed.extend((0..run).map(|_| r.next_u64() as u8));
            } else if mixed.len() > 1_000 {
                let back = 1 + (r.next_u64() % 1_000) as usize;
                let start = mixed.len() - back;
                for k in 0..run {
                    let b = mixed[start + k];
                    mixed.push(b);
                }
            }
        }
        vec![
            Vec::new(),
            b"abcdefg".to_vec(),
            b"featurefeaturefeature".repeat(100),
            b"ab".repeat(500),
            vec![0u8; 10_000],
            random,
            low_entropy,
            ids,
            columnar,
            mixed,
        ]
    }

    /// `(len, checksum64)` of `compress(x)` for each golden input, as the
    /// original per-call-table, byte-at-a-time compressor produced them.
    /// DWRF files must stay byte-identical, so these never change.
    const GOLDEN: [(usize, u64); 10] = [
        (1, 0x8b2d37787d5c4ca5),
        (8, 0xfd4d689154a42e76),
        (43, 0x4027290419c4e20b),
        (22, 0xef25b3bc3812b8a4),
        (159, 0xf5916c4161e18467),
        (4097, 0x87010d89ca78b604),
        (12493, 0xd070a77b1d3d6a30),
        (15997, 0xc193194bab9dd8ef),
        (324, 0x61e232c09dfb0082),
        (104974, 0xfe45a6af31acfe3d),
    ];

    fn fingerprint(block: &[u8]) -> (usize, u64) {
        (block.len(), crate::stream::checksum64(block))
    }

    #[test]
    fn output_matches_golden_checksums() {
        // Twice over, so the second pass runs on a table stamped by the
        // first and stale slots must read as empty.
        for _ in 0..2 {
            for (x, golden) in golden_inputs().iter().zip(GOLDEN) {
                let block = compress(x);
                assert_eq!(fingerprint(&block), golden, "input of {} bytes", x.len());
                assert_eq!(&decompress(&block).unwrap(), x);
            }
        }
    }

    #[test]
    fn table_wrap_resets_without_changing_output() {
        let inputs = golden_inputs();
        let mut table = MatchTable::new();
        // Stamp the table, then push the base to the edge of the u32
        // range so the next inputs straddle and then trigger the reset.
        compress_with(&mut table, &inputs[9]);
        table.base = u32::MAX - 150_000;
        for (x, golden) in inputs.iter().zip(GOLDEN).skip(2) {
            let block = compress_with(&mut table, x);
            assert_eq!(fingerprint(&block), golden, "input of {} bytes", x.len());
        }
        assert!(table.base < 1 << 20, "base reset on wrap");
    }
}
