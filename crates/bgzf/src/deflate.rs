//! DEFLATE compression (RFC 1951): stored, fixed-Huffman, and
//! dynamic-Huffman block emission over the hash-chain LZ77 tokenizer.

use crate::bits::BitWriter;
use crate::huffman::{build_lengths, Encoder};
use crate::inflate::{
    fixed_dist_lengths, fixed_lit_lengths, CLC_ORDER, DIST_BASE, DIST_EXTRA, LENGTH_BASE,
    LENGTH_EXTRA,
};
use crate::lz77::{MatchParams, Matcher, Token, MAX_MATCH, MIN_MATCH};

/// Block-strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Uncompressed stored blocks (level 0).
    Stored,
    /// LZ77 + the fixed Huffman tables.
    Fixed,
    /// LZ77 + per-block optimal dynamic Huffman tables; falls back to the
    /// cheaper of {dynamic, fixed, stored} per block.
    Dynamic,
}

/// Compression configuration.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Block strategy.
    pub strategy: Strategy,
    /// Match-finder effort, zlib-style 0..=9.
    pub level: u8,
}

impl Default for Options {
    fn default() -> Self {
        Options { strategy: Strategy::Dynamic, level: 6 }
    }
}

impl Options {
    /// Maps a zlib-style level to options (0 = stored).
    pub fn from_level(level: u8) -> Self {
        if level == 0 {
            Options { strategy: Strategy::Stored, level: 0 }
        } else {
            Options { strategy: Strategy::Dynamic, level: level.min(9) }
        }
    }
}

/// Compresses `input` into a standalone DEFLATE stream.
pub fn deflate(input: &[u8], opts: Options) -> Vec<u8> {
    let mut w = BitWriter::with_capacity(input.len() / 2 + 64);
    deflate_into(&mut w, input, opts);
    w.into_bytes()
}

/// Compresses `input`, appending the stream to `w`. Emits exactly one
/// logical stream (BFINAL set on the last block).
pub fn deflate_into(w: &mut BitWriter, input: &[u8], opts: Options) {
    match opts.strategy {
        Strategy::Stored => emit_stored_stream(w, input),
        Strategy::Fixed | Strategy::Dynamic => {
            let mut tokens = Vec::with_capacity(input.len() / 3 + 16);
            Matcher::new(input, MatchParams::for_level(opts.level)).tokenize(|t| tokens.push(t));
            if opts.strategy == Strategy::Fixed {
                emit_fixed_block(w, &tokens, true);
            } else {
                emit_best_block(w, input, &tokens, true);
            }
        }
    }
}

/// `LENGTH_CODE[len - MIN_MATCH]`: the length-code index (0..=28) of every
/// legal match length.
const LENGTH_CODE: [u8; MAX_MATCH - MIN_MATCH + 1] = {
    let mut t = [0u8; MAX_MATCH - MIN_MATCH + 1];
    let mut code = 0;
    let mut len = MIN_MATCH;
    while len <= MAX_MATCH {
        while code < 28 && len >= LENGTH_BASE[code + 1] as usize {
            code += 1;
        }
        t[len - MIN_MATCH] = code as u8;
        len += 1;
    }
    t
};

/// Distance-code index (0..=29) by [`dist_slot`]`(dist - 1)`.
const DIST_CODE: [u8; 512] = {
    let mut t = [0u8; 512];
    let mut code = 0;
    let mut d = 0;
    while d < 32768 {
        while code < 29 && d + 1 >= DIST_BASE[code + 1] as usize {
            code += 1;
        }
        t[dist_slot(d)] = code as u8;
        d += 1;
    }
    t
};

/// zlib's two-part distance table layout: `d = dist - 1` below 256 has a
/// slot of its own, the rest share one slot per 128 (every code from 16
/// up starts on a multiple of 128).
const fn dist_slot(d: usize) -> usize {
    if d < 256 {
        d
    } else {
        256 + (d >> 7)
    }
}

/// Length code (257..=285) and extra-bit payload for a match length.
#[inline]
fn length_code(len: usize) -> (usize, u32, u32) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    let code = LENGTH_CODE[len - MIN_MATCH] as usize;
    let extra_bits = LENGTH_EXTRA[code] as u32;
    let extra_val = (len - LENGTH_BASE[code] as usize) as u32;
    (257 + code, extra_val, extra_bits)
}

/// Distance code (0..=29) and extra-bit payload for a match distance.
#[inline]
fn distance_code(dist: usize) -> (usize, u32, u32) {
    debug_assert!((1..=32768).contains(&dist));
    let code = DIST_CODE[dist_slot(dist - 1)] as usize;
    let extra_bits = DIST_EXTRA[code] as u32;
    let extra_val = (dist - DIST_BASE[code] as usize) as u32;
    (code, extra_val, extra_bits)
}

/// Splits `input` into ≤65535-byte stored blocks.
fn emit_stored_stream(w: &mut BitWriter, input: &[u8]) {
    let chunks: Vec<&[u8]> = if input.is_empty() {
        vec![&[][..]]
    } else {
        input.chunks(65535).collect()
    };
    let last = chunks.len() - 1;
    for (i, chunk) in chunks.iter().enumerate() {
        w.write_bits((i == last) as u32, 1);
        w.write_bits(0b00, 2);
        w.align_to_byte();
        let len = chunk.len() as u32;
        w.write_bits(len & 0xFFFF, 16);
        w.write_bits(!len & 0xFFFF, 16);
        w.write_aligned_bytes(chunk);
    }
}

/// Histograms of literal/length and distance code usage for a token stream.
fn histogram(tokens: &[Token]) -> (Vec<u64>, Vec<u64>) {
    let mut lit = vec![0u64; 286];
    let mut dist = vec![0u64; 30];
    for &t in tokens {
        match t {
            Token::Literal(b) => lit[b as usize] += 1,
            Token::Match { len, dist: d } => {
                let (lc, _, _) = length_code(len as usize);
                lit[lc] += 1;
                let (dc, _, _) = distance_code(d as usize);
                dist[dc] += 1;
            }
        }
    }
    lit[256] += 1; // end of block
    (lit, dist)
}

fn emit_tokens(w: &mut BitWriter, tokens: &[Token], lit: &Encoder, dist: &Encoder) {
    for &t in tokens {
        match t {
            Token::Literal(b) => lit.encode(w, b as usize),
            Token::Match { len, dist: d } => {
                let (lc, lv, lb) = length_code(len as usize);
                lit.encode(w, lc);
                w.write_bits(lv, lb);
                let (dc, dv, db) = distance_code(d as usize);
                dist.encode(w, dc);
                w.write_bits(dv, db);
            }
        }
    }
    lit.encode(w, 256);
}

fn emit_fixed_block(w: &mut BitWriter, tokens: &[Token], final_block: bool) {
    let lit = Encoder::from_lengths(&fixed_lit_lengths()).expect("fixed tables are valid");
    let dist = Encoder::from_lengths(&fixed_dist_lengths()).expect("fixed tables are valid");
    w.write_bits(final_block as u32, 1);
    w.write_bits(0b01, 2);
    emit_tokens(w, tokens, &lit, &dist);
}

/// Run-length encodes a lengths array into code-length-code symbols, as
/// `(symbol, extra_value, extra_bits)` triples.
fn rle_code_lengths(lengths: &[u8]) -> Vec<(u8, u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < lengths.len() {
        let v = lengths[i];
        let mut run = 1;
        while i + run < lengths.len() && lengths[i + run] == v {
            run += 1;
        }
        if v == 0 {
            let mut rem = run;
            while rem >= 11 {
                let take = rem.min(138);
                out.push((18, (take - 11) as u32, 7));
                rem -= take;
            }
            if rem >= 3 {
                out.push((17, (rem - 3) as u32, 3));
                rem = 0;
            }
            for _ in 0..rem {
                out.push((0, 0, 0));
            }
        } else {
            out.push((v, 0, 0));
            let mut rem = run - 1;
            while rem >= 3 {
                let take = rem.min(6);
                out.push((16, (take - 3) as u32, 2));
                rem -= take;
            }
            for _ in 0..rem {
                out.push((v, 0, 0));
            }
        }
        i += run;
    }
    out
}

/// Emits a dynamic block; returns `None` (and writes nothing) only if the
/// dynamic tables cannot beat fixed/stored — the caller compares costs, so
/// this helper just always writes once the caller decided.
fn emit_dynamic_block(
    w: &mut BitWriter,
    tokens: &[Token],
    lit_lengths: &[u8],
    dist_lengths: &[u8],
    final_block: bool,
) {
    // DEFLATE requires at least one distance code length slot and at least
    // the end-of-block literal.
    let hlit = {
        let mut n = 286;
        while n > 257 && lit_lengths[n - 1] == 0 {
            n -= 1;
        }
        n
    };
    let hdist = {
        let mut n = 30;
        while n > 1 && dist_lengths[n - 1] == 0 {
            n -= 1;
        }
        n
    };

    let mut all = Vec::with_capacity(hlit + hdist);
    all.extend_from_slice(&lit_lengths[..hlit]);
    all.extend_from_slice(&dist_lengths[..hdist]);
    let rle = rle_code_lengths(&all);

    let mut clc_freq = vec![0u64; 19];
    for &(sym, _, _) in &rle {
        clc_freq[sym as usize] += 1;
    }
    let clc_lengths = build_lengths(&clc_freq, 7);
    let clc_enc = Encoder::from_lengths(&clc_lengths).expect("clc lengths valid");

    let hclen = {
        let mut n = 19;
        while n > 4 && clc_lengths[CLC_ORDER[n - 1]] == 0 {
            n -= 1;
        }
        n
    };

    w.write_bits(final_block as u32, 1);
    w.write_bits(0b10, 2);
    w.write_bits((hlit - 257) as u32, 5);
    w.write_bits((hdist - 1) as u32, 5);
    w.write_bits((hclen - 4) as u32, 4);
    for &idx in CLC_ORDER.iter().take(hclen) {
        w.write_bits(clc_lengths[idx] as u32, 3);
    }
    for &(sym, val, bits) in &rle {
        clc_enc.encode(w, sym as usize);
        if bits > 0 {
            w.write_bits(val, bits);
        }
    }

    let lit_enc = Encoder::from_lengths(lit_lengths).expect("lit lengths valid");
    let dist_enc = Encoder::from_lengths(dist_lengths).expect("dist lengths valid");
    emit_tokens(w, tokens, &lit_enc, &dist_enc);
}

/// Estimated cost (bits) of encoding `tokens` with the given code lengths.
fn body_cost(tokens: &[Token], lit_lengths: &[u8], dist_lengths: &[u8]) -> usize {
    let mut bits = 0usize;
    for &t in tokens {
        match t {
            Token::Literal(b) => bits += lit_lengths[b as usize] as usize,
            Token::Match { len, dist } => {
                let (lc, _, lb) = length_code(len as usize);
                bits += lit_lengths[lc] as usize + lb as usize;
                let (dc, _, db) = distance_code(dist as usize);
                bits += dist_lengths[dc] as usize + db as usize;
            }
        }
    }
    bits + lit_lengths[256] as usize
}

/// Chooses the cheapest of dynamic/fixed/stored for the block and emits it.
fn emit_best_block(w: &mut BitWriter, input: &[u8], tokens: &[Token], final_block: bool) {
    let (lit_freq, dist_freq) = histogram(tokens);
    let lit_lengths = build_lengths(&lit_freq, 15);
    let mut dist_lengths = build_lengths(&dist_freq, 15);
    // A dynamic header must declare ≥1 distance code even if none is used.
    if dist_lengths.iter().all(|&l| l == 0) {
        dist_lengths[0] = 1;
    }
    // Ensure end-of-block exists (histogram() guarantees freq>0, so it does).
    debug_assert!(lit_lengths[256] > 0);

    // Header cost estimate for the dynamic variant.
    let mut all = Vec::new();
    all.extend_from_slice(&lit_lengths);
    all.extend_from_slice(&dist_lengths);
    let rle = rle_code_lengths(&all);
    let mut clc_freq = vec![0u64; 19];
    for &(sym, _, bits) in &rle {
        clc_freq[sym as usize] += 1;
        let _ = bits;
    }
    let clc_lengths = build_lengths(&clc_freq, 7);
    let dyn_header_bits: usize = 17
        + 19 * 3
        + rle
            .iter()
            .map(|&(sym, _, bits)| clc_lengths[sym as usize] as usize + bits as usize)
            .sum::<usize>();
    let dyn_cost = dyn_header_bits + body_cost(tokens, &lit_lengths, &dist_lengths);

    let fixed_cost = 3 + body_cost(tokens, &fixed_lit_lengths(), &fixed_dist_lengths());
    // Stored: 3 bits + padding + 4 header bytes per 65535 chunk + payload.
    let stored_cost = 8 * (input.len() + 5 * (input.len() / 65535 + 1)) + 3;

    if stored_cost < dyn_cost && stored_cost < fixed_cost {
        emit_stored_stream(w, input);
    } else if fixed_cost <= dyn_cost {
        emit_fixed_block(w, tokens, final_block);
    } else {
        emit_dynamic_block(w, tokens, &lit_lengths, &dist_lengths, final_block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::inflate;

    fn roundtrip(data: &[u8], opts: Options) {
        let compressed = deflate(data, opts);
        let decompressed = inflate(&compressed, data.len()).unwrap();
        assert_eq!(decompressed, data, "opts {opts:?}");
    }

    #[test]
    fn roundtrip_empty() {
        for s in [Strategy::Stored, Strategy::Fixed, Strategy::Dynamic] {
            roundtrip(b"", Options { strategy: s, level: 6 });
        }
    }

    #[test]
    fn roundtrip_text() {
        let data = b"SRR001\t99\tchr1\t12345\t60\t90M\t=\t12500\t245\tACGT\n".repeat(500);
        for s in [Strategy::Stored, Strategy::Fixed, Strategy::Dynamic] {
            roundtrip(&data, Options { strategy: s, level: 6 });
        }
    }

    #[test]
    fn roundtrip_binary() {
        let data: Vec<u8> = (0..50_000u32).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect();
        roundtrip(&data, Options::default());
    }

    #[test]
    fn roundtrip_all_levels() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        for level in 0..=9u8 {
            roundtrip(&data, Options::from_level(level));
        }
    }

    #[test]
    fn compresses_repetitive_data() {
        let data = vec![b'A'; 100_000];
        let out = deflate(&data, Options::default());
        assert!(out.len() < 1000, "len {} too big", out.len());
    }

    #[test]
    fn dynamic_beats_fixed_on_skewed_text() {
        let data = b"aaaaaaaaaabbbbbcccc".repeat(1000);
        let dynamic = deflate(&data, Options { strategy: Strategy::Dynamic, level: 6 });
        let fixed = deflate(&data, Options { strategy: Strategy::Fixed, level: 6 });
        assert!(dynamic.len() <= fixed.len());
    }

    #[test]
    fn length_code_boundaries() {
        assert_eq!(length_code(3).0, 257);
        assert_eq!(length_code(10).0, 264);
        assert_eq!(length_code(11).0, 265);
        assert_eq!(length_code(257).0, 284);
        assert_eq!(length_code(258).0, 285);
        // Round-trip every legal length through code + extra.
        for len in MIN_MATCH..=MAX_MATCH {
            let (code, extra, _bits) = length_code(len);
            let rebuilt = LENGTH_BASE[code - 257] as usize + extra as usize;
            assert_eq!(rebuilt, len);
        }
    }

    #[test]
    fn distance_code_boundaries() {
        for dist in 1..=32768usize {
            let (code, extra, _bits) = distance_code(dist);
            let rebuilt = DIST_BASE[code] as usize + extra as usize;
            assert_eq!(rebuilt, dist, "dist {dist}");
        }
    }

    #[test]
    fn stored_large_input_multi_chunk() {
        let data = vec![7u8; 70_000];
        let out = deflate(&data, Options { strategy: Strategy::Stored, level: 0 });
        assert_eq!(inflate(&out, data.len()).unwrap(), data);
    }

    #[test]
    fn single_distinct_byte_input() {
        roundtrip(b"z", Options::default());
    }
}
