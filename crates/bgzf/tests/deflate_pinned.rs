//! Byte-identity contract of the DEFLATE encoder.
//!
//! Every shard and BGZF file this workspace writes is a function of the
//! exact bytes `deflate` emits, so a faster match finder or entropy coder
//! must not change a single output bit. This suite pins `(length, crc32)`
//! of the compressed stream for seeded inputs shaped like the payloads the
//! codec really sees (SAM text, 4-bit packed bases, quality strings) plus
//! random and repetitive bytes, at every level and every block strategy.
//! The expected values were recorded from the reference encoder and must
//! never be edited to make a change pass.

use ngs_bgzf::crc32::crc32;
use ngs_bgzf::deflate::{deflate, Options, Strategy};
use ngs_bgzf::inflate::inflate;

/// splitmix64: a tiny seeded generator so the inputs never depend on
/// another crate's notion of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn genome(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| b"ACGT"[rng.below(4) as usize]).collect()
}

/// Tab-separated SAM lines whose reads are drawn from one small genome,
/// so sequence substrings repeat at long distances as in a sorted file.
fn sam_text(seed: u64, target: usize) -> Vec<u8> {
    let mut rng = Rng(seed);
    let g = genome(&mut rng, 6000);
    let mut out = Vec::with_capacity(target + 512);
    let mut pos = 1u64;
    let mut n = 0u64;
    while out.len() < target {
        n += 1;
        pos += rng.below(40);
        let start = (pos as usize) % (g.len() - 100);
        let flag = [0u16, 16, 99, 147, 83, 163, 4][rng.below(7) as usize];
        let mapq = [0u8, 60, 60, 60, 37][rng.below(5) as usize];
        let qual: String = (0..100).map(|_| (b'!' + 20 + rng.below(21) as u8) as char).collect();
        let line = format!(
            "SRR0{}.{}\t{}\tchr{}\t{}\t{}\t100M\t=\t{}\t{}\t{}\t{}\tNM:i:{}\n",
            1000 + n / 50,
            n,
            flag,
            1 + n / 400,
            pos,
            mapq,
            pos + 150 + rng.below(200),
            250 + rng.below(100),
            std::str::from_utf8(&g[start..start + 100]).unwrap(),
            qual,
            rng.below(3),
        );
        out.extend_from_slice(line.as_bytes());
    }
    out.truncate(target);
    out
}

/// BAM-style 4-bit packed reads sampled from one genome.
fn packed_seq(seed: u64, target: usize) -> Vec<u8> {
    let mut rng = Rng(seed);
    let g = genome(&mut rng, 8000);
    let mut out = Vec::with_capacity(target + 64);
    while out.len() < target {
        let start = rng.below((g.len() - 100) as u64) as usize;
        for pair in g[start..start + 100].chunks(2) {
            let code = |b: u8| match b {
                b'A' => 1u8,
                b'C' => 2,
                b'G' => 4,
                _ => 8,
            };
            out.push(code(pair[0]) << 4 | code(pair[1]));
        }
    }
    out.truncate(target);
    out
}

/// Phred scores as a bounded random walk, the usual shape of a QUAL run.
fn qual(seed: u64, target: usize) -> Vec<u8> {
    let mut rng = Rng(seed);
    let mut q = 30i32;
    (0..target)
        .map(|_| {
            q = (q + rng.below(7) as i32 - 3).clamp(2, 41);
            q as u8
        })
        .collect()
}

fn random(seed: u64, target: usize) -> Vec<u8> {
    let mut rng = Rng(seed);
    (0..target).map(|_| rng.next() as u8).collect()
}

/// A short motif with sparse point mutations, then long single-byte runs.
fn repetitive(seed: u64, target: usize) -> Vec<u8> {
    let mut rng = Rng(seed);
    let motif = b"chr1\t12345\t60\t90M\tACGTTGCA\n";
    let mut out = Vec::with_capacity(target);
    while out.len() < target / 2 {
        out.extend_from_slice(motif);
        if rng.below(5) == 0 {
            let i = out.len() - 1 - rng.below(motif.len() as u64) as usize;
            out[i] = rng.next() as u8;
        }
    }
    while out.len() < target {
        let b = rng.next() as u8;
        let run = 1 + rng.below(600) as usize;
        out.extend(std::iter::repeat_n(b, run));
    }
    out.truncate(target);
    out
}

fn inputs() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("sam_text", sam_text(11, 48 * 1024)),
        ("packed_seq", packed_seq(12, 24 * 1024)),
        ("qual", qual(13, 32 * 1024)),
        ("random", random(14, 16 * 1024)),
        ("repetitive", repetitive(15, 40 * 1024)),
        ("tiny", b"ACGTACGTA".to_vec()),
        ("empty", Vec::new()),
    ]
}

/// Levels 0–9 as the writers select them, then each block strategy
/// forced explicitly.
fn option_sets() -> Vec<(String, Options)> {
    let mut v: Vec<(String, Options)> =
        (0..=9u8).map(|l| (format!("level{l}"), Options::from_level(l))).collect();
    v.push(("stored".into(), Options { strategy: Strategy::Stored, level: 6 }));
    for l in [1u8, 4, 6, 9] {
        v.push((format!("fixed{l}"), Options { strategy: Strategy::Fixed, level: l }));
    }
    v.push(("dynamic2".into(), Options { strategy: Strategy::Dynamic, level: 2 }));
    v
}

/// `(input, options, compressed length, crc32 of the compressed bytes)`.
const EXPECTED: &[(&str, &str, usize, u32)] = &[
    ("sam_text", "level0", 49157, 0xe1e2e893),
    ("sam_text", "level1", 19225, 0x7f0e2018),
    ("sam_text", "level2", 19171, 0x5191d01f),
    ("sam_text", "level3", 19171, 0x5191d01f),
    ("sam_text", "level4", 18884, 0xab6b1669),
    ("sam_text", "level5", 18884, 0xab6b1669),
    ("sam_text", "level6", 18815, 0x7a913144),
    ("sam_text", "level7", 18811, 0x14721e2c),
    ("sam_text", "level8", 18811, 0x14721e2c),
    ("sam_text", "level9", 18811, 0x14721e2c),
    ("sam_text", "stored", 49157, 0xe1e2e893),
    ("sam_text", "fixed1", 25522, 0x61378343),
    ("sam_text", "fixed4", 24713, 0xc83f7d42),
    ("sam_text", "fixed6", 24626, 0x8bc34b0f),
    ("sam_text", "fixed9", 24613, 0x18040699),
    ("sam_text", "dynamic2", 19171, 0x5191d01f),
    ("packed_seq", "level0", 24581, 0x3db1cc9b),
    ("packed_seq", "level1", 6939, 0x859ee500),
    ("packed_seq", "level2", 6657, 0x2d1cc95f),
    ("packed_seq", "level3", 6657, 0x2d1cc95f),
    ("packed_seq", "level4", 6482, 0x460dc88c),
    ("packed_seq", "level5", 6482, 0x460dc88c),
    ("packed_seq", "level6", 6431, 0x7acb1a2a),
    ("packed_seq", "level7", 6431, 0x7acb1a2a),
    ("packed_seq", "level8", 6431, 0x7acb1a2a),
    ("packed_seq", "level9", 6431, 0x7acb1a2a),
    ("packed_seq", "stored", 24581, 0x3db1cc9b),
    ("packed_seq", "fixed1", 9289, 0x4860e25e),
    ("packed_seq", "fixed4", 8644, 0x9e486283),
    ("packed_seq", "fixed6", 8592, 0xe4da0d31),
    ("packed_seq", "fixed9", 8592, 0xe4da0d31),
    ("packed_seq", "dynamic2", 6657, 0x2d1cc95f),
    ("qual", "level0", 32773, 0x85268127),
    ("qual", "level1", 17231, 0x09b0f34e),
    ("qual", "level2", 17048, 0x834183de),
    ("qual", "level3", 17048, 0x834183de),
    ("qual", "level4", 17058, 0x94952685),
    ("qual", "level5", 17058, 0x94952685),
    ("qual", "level6", 17055, 0xd1c5b7aa),
    ("qual", "level7", 17057, 0x4e7ad2ff),
    ("qual", "level8", 17057, 0x4e7ad2ff),
    ("qual", "level9", 17057, 0x4e7ad2ff),
    ("qual", "stored", 32773, 0x85268127),
    ("qual", "fixed1", 24265, 0x6ef72150),
    ("qual", "fixed4", 22161, 0x0596376c),
    ("qual", "fixed6", 22134, 0xf3694e8a),
    ("qual", "fixed9", 22132, 0x28dbdc68),
    ("qual", "dynamic2", 17048, 0x834183de),
    ("random", "level0", 16389, 0xb18ac16e),
    ("random", "level1", 16389, 0xb18ac16e),
    ("random", "level2", 16389, 0xb18ac16e),
    ("random", "level3", 16389, 0xb18ac16e),
    ("random", "level4", 16389, 0xb18ac16e),
    ("random", "level5", 16389, 0xb18ac16e),
    ("random", "level6", 16389, 0xb18ac16e),
    ("random", "level7", 16389, 0xb18ac16e),
    ("random", "level8", 16389, 0xb18ac16e),
    ("random", "level9", 16389, 0xb18ac16e),
    ("random", "stored", 16389, 0xb18ac16e),
    ("random", "fixed1", 17286, 0xc0269547),
    ("random", "fixed4", 17286, 0xc0269547),
    ("random", "fixed6", 17286, 0xc0269547),
    ("random", "fixed9", 17286, 0xc0269547),
    ("random", "dynamic2", 16389, 0xb18ac16e),
    ("repetitive", "level0", 40965, 0xce353f04),
    ("repetitive", "level1", 1103, 0x4ea30b0b),
    ("repetitive", "level2", 1092, 0x0cd2070f),
    ("repetitive", "level3", 1092, 0x0cd2070f),
    ("repetitive", "level4", 962, 0x0938ba5e),
    ("repetitive", "level5", 962, 0x0938ba5e),
    ("repetitive", "level6", 972, 0xcd83beb4),
    ("repetitive", "level7", 938, 0x1211bc35),
    ("repetitive", "level8", 938, 0x1211bc35),
    ("repetitive", "level9", 864, 0x210881b6),
    ("repetitive", "stored", 40965, 0xce353f04),
    ("repetitive", "fixed1", 1393, 0xb60aa7d4),
    ("repetitive", "fixed4", 1137, 0x7ced651b),
    ("repetitive", "fixed6", 1120, 0x038e31d3),
    ("repetitive", "fixed9", 934, 0xa3c43f69),
    ("repetitive", "dynamic2", 1092, 0x0cd2070f),
    ("tiny", "level0", 14, 0x75b3cf07),
    ("tiny", "level1", 7, 0xb1bc0d75),
    ("tiny", "level2", 7, 0xb1bc0d75),
    ("tiny", "level3", 7, 0xb1bc0d75),
    ("tiny", "level4", 7, 0xb1bc0d75),
    ("tiny", "level5", 7, 0xb1bc0d75),
    ("tiny", "level6", 7, 0xb1bc0d75),
    ("tiny", "level7", 7, 0xb1bc0d75),
    ("tiny", "level8", 7, 0xb1bc0d75),
    ("tiny", "level9", 7, 0xb1bc0d75),
    ("tiny", "stored", 14, 0x75b3cf07),
    ("tiny", "fixed1", 7, 0xb1bc0d75),
    ("tiny", "fixed4", 7, 0xb1bc0d75),
    ("tiny", "fixed6", 7, 0xb1bc0d75),
    ("tiny", "fixed9", 7, 0xb1bc0d75),
    ("tiny", "dynamic2", 7, 0xb1bc0d75),
    ("empty", "level0", 5, 0x4564cc52),
    ("empty", "level1", 2, 0x6af4413c),
    ("empty", "level2", 2, 0x6af4413c),
    ("empty", "level3", 2, 0x6af4413c),
    ("empty", "level4", 2, 0x6af4413c),
    ("empty", "level5", 2, 0x6af4413c),
    ("empty", "level6", 2, 0x6af4413c),
    ("empty", "level7", 2, 0x6af4413c),
    ("empty", "level8", 2, 0x6af4413c),
    ("empty", "level9", 2, 0x6af4413c),
    ("empty", "stored", 5, 0x4564cc52),
    ("empty", "fixed1", 2, 0x6af4413c),
    ("empty", "fixed4", 2, 0x6af4413c),
    ("empty", "fixed6", 2, 0x6af4413c),
    ("empty", "fixed9", 2, 0x6af4413c),
    ("empty", "dynamic2", 2, 0x6af4413c),
];

#[test]
fn deflate_output_bytes_are_pinned() {
    let mut actual = Vec::new();
    for (name, data) in inputs() {
        for (label, opts) in option_sets() {
            let out = deflate(&data, opts);
            assert_eq!(inflate(&out, data.len()).unwrap(), data, "{name}/{label} round-trip");
            actual.push((name, label, out.len(), crc32(&out)));
        }
    }
    let table: String = actual
        .iter()
        .map(|(n, l, len, crc)| format!("    (\"{n}\", \"{l}\", {len}, 0x{crc:08x}),\n"))
        .collect();
    assert_eq!(actual.len(), EXPECTED.len(), "pinned table size; actual:\n{table}");
    for ((n, l, len, crc), &(en, el, elen, ecrc)) in actual.iter().zip(EXPECTED) {
        assert_eq!((*n, l.as_str()), (en, el), "pinned table order; actual:\n{table}");
        assert_eq!((*len, *crc), (elen, ecrc), "{n}/{l} output changed; actual:\n{table}");
    }
}
