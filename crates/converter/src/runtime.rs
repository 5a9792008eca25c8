//! Shared converter runtime pieces: configuration, reports, the rank
//! executor, header scanning, and the per-rank buffered output writer.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ngs_cluster::{run_ranks, run_ranks_alone, Communicator};
use ngs_formats::error::Result;
use ngs_formats::header::SamHeader;

use crate::partition::{partition_distributed, partition_serial, ByteRange, Variant};
use crate::source::ByteSource;

/// Converter runtime configuration.
#[derive(Debug, Clone)]
pub struct ConvertConfig {
    /// Number of ranks (the paper's "processors").
    pub ranks: usize,
    /// Read-buffer size per rank.
    pub read_buffer: usize,
    /// Output write-buffer size per rank.
    pub write_buffer: usize,
    /// Boundary-adjustment variant for Algorithm 1.
    pub variant: Variant,
}

impl Default for ConvertConfig {
    fn default() -> Self {
        ConvertConfig {
            ranks: 4,
            read_buffer: 4 << 20,
            write_buffer: 1 << 20,
            variant: Variant::Forward,
        }
    }
}

impl ConvertConfig {
    /// A config with `ranks` ranks and defaults elsewhere.
    pub fn with_ranks(ranks: usize) -> Self {
        ConvertConfig { ranks, ..Default::default() }
    }
}

/// Per-rank statistics.
#[derive(Debug, Clone, Default)]
pub struct RankStats {
    /// Rank id.
    pub rank: usize,
    /// Input records parsed.
    pub records_in: u64,
    /// Target objects emitted (≤ records_in; some formats skip records).
    pub records_out: u64,
    /// Input bytes consumed.
    pub bytes_in: u64,
    /// Output bytes written.
    pub bytes_out: u64,
    /// Wall time of this rank's work loop.
    pub elapsed: Duration,
}

/// Whole-conversion report.
#[derive(Debug, Clone, Default)]
pub struct ConvertReport {
    /// Time spent in preprocessing (zero when not applicable).
    pub preprocess_time: Duration,
    /// Time spent partitioning.
    pub partition_time: Duration,
    /// Makespan of the parallel conversion phase.
    pub convert_time: Duration,
    /// Per-rank breakdown.
    pub per_rank: Vec<RankStats>,
    /// Paths of the files produced.
    pub outputs: Vec<PathBuf>,
}

impl ConvertReport {
    /// Total records parsed across ranks.
    pub fn records_in(&self) -> u64 {
        self.per_rank.iter().map(|r| r.records_in).sum()
    }

    /// Total target objects emitted.
    pub fn records_out(&self) -> u64 {
        self.per_rank.iter().map(|r| r.records_out).sum()
    }

    /// Total output bytes.
    pub fn bytes_out(&self) -> u64 {
        self.per_rank.iter().map(|r| r.bytes_out).sum()
    }

    /// End-to-end time (preprocess + partition + convert).
    pub fn total_time(&self) -> Duration {
        self.preprocess_time + self.partition_time + self.convert_time
    }
}

/// Where a converter runs its ranks. Every entry point and its
/// `*_simulated` twin share one setup and one per-rank body; only the
/// executor differs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Executor {
    /// All ranks at once on OS threads ([`run_ranks`]); the phase time
    /// is wall clock.
    Threads,
    /// One rank at a time, each timed alone ([`run_ranks_alone`]); the
    /// phase time is the simulated makespan (DESIGN.md §4b).
    Simulated,
}

impl Executor {
    /// Runs `body(rank, comm)` for every rank; returns the results in
    /// rank order and the phase time. `comm` is the rank's communicator
    /// on threads and `None` for a rank that runs alone.
    pub(crate) fn run<R: Send>(
        self,
        ranks: usize,
        body: impl Fn(usize, Option<&Communicator>) -> R + Sync,
    ) -> (Vec<R>, Duration) {
        match self {
            Executor::Threads => {
                let t = Instant::now();
                let results = run_ranks(ranks, |comm| body(comm.rank(), Some(comm)));
                (results, t.elapsed())
            }
            Executor::Simulated => {
                let (results, timing) = run_ranks_alone(ranks, |rank| body(rank, None));
                (results, timing.makespan())
            }
        }
    }

    /// Algorithm 1 ahead of the run, for ranks that run alone:
    /// [`partition_serial`], property-tested equal to the distributed
    /// version. Threaded ranks partition collectively inside the run
    /// (see [`rank_slice`]), so this is empty for them.
    pub(crate) fn presplit<S: ByteSource + ?Sized>(
        self,
        source: &S,
        config: &ConvertConfig,
    ) -> Result<Vec<ByteRange>> {
        match self {
            Executor::Threads => Ok(Vec::new()),
            Executor::Simulated => partition_serial(source, config.ranks, config.variant),
        }
    }
}

/// One rank's slice of SAM text: Algorithm 1 run collectively when the
/// rank has a communicator (every rank must join), else its entry of
/// [`Executor::presplit`].
pub(crate) fn rank_slice<S: ByteSource + ?Sized>(
    source: &S,
    variant: Variant,
    presplit: &[ByteRange],
    rank: usize,
    comm: Option<&Communicator>,
) -> Result<ByteRange> {
    match comm {
        Some(comm) => partition_distributed(source, comm, variant),
        None => Ok(presplit[rank]),
    }
}

/// Records `[lo, hi)` of rank `rank` out of `ranks` when `len` records
/// split evenly.
pub(crate) fn rank_share(rank: usize, ranks: usize, len: u64) -> Range<u64> {
    rank as u64 * len / ranks as u64..(rank as u64 + 1) * len / ranks as u64
}

/// The file stem of `path`, or `fallback` when it has none; output part
/// files are named after it.
pub(crate) fn stem_of(path: &Path, fallback: &str) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| fallback.to_string())
}

/// Appends per-rank results (in rank order) to `report`; the first rank
/// error wins.
pub(crate) fn collect_ranks(
    report: &mut ConvertReport,
    results: Vec<Result<(RankStats, PathBuf)>>,
) -> Result<()> {
    for r in results {
        let (stats, path) = r?;
        report.per_rank.push(stats);
        report.outputs.push(path);
    }
    Ok(())
}

/// Scans the SAM header (`@`-prefixed lines) from the start of a source.
/// Returns the parsed header and the byte offset of the first alignment
/// line.
pub fn scan_sam_header<S: ByteSource + ?Sized>(source: &S) -> Result<(SamHeader, u64)> {
    let mut text = Vec::new();
    let mut pos = 0u64;
    let mut buf = vec![0u8; 64 * 1024];
    let mut at_line_start = true;
    let mut in_header_line = false;
    'outer: while pos < source.len() {
        let n = source.read_at(pos, &mut buf)?;
        if n == 0 {
            break;
        }
        for (i, &b) in buf[..n].iter().enumerate() {
            if at_line_start {
                if b == b'@' {
                    in_header_line = true;
                } else {
                    pos += i as u64;
                    break 'outer;
                }
                at_line_start = false;
            }
            if in_header_line {
                text.push(b);
            }
            if b == b'\n' {
                at_line_start = true;
                in_header_line = false;
            }
        }
        if !at_line_start || in_header_line || buf[..n].last() != Some(&b'\n') {
            // Continue scanning from the next chunk; `pos` advances by n.
        }
        pos += n as u64;
        if pos >= source.len() {
            break;
        }
        // Loop continues; if the first byte of the next chunk starts a
        // non-header line we exit there.
    }
    let header = SamHeader::parse(&String::from_utf8_lossy(&text))?;
    Ok((header, pos.min(source.len())))
}

/// Per-rank output file with buffered writes and byte accounting.
pub struct RankOutput {
    writer: BufWriter<File>,
    path: PathBuf,
    bytes: u64,
}

impl RankOutput {
    /// Creates `dir/stem.partNNNN.ext`.
    pub fn create(dir: &Path, stem: &str, rank: usize, ext: &str, buffer: usize) -> Result<Self> {
        let path = dir.join(format!("{stem}.part{rank:04}.{ext}"));
        let file = File::create(&path)?;
        Ok(RankOutput { writer: BufWriter::with_capacity(buffer, file), path, bytes: 0 })
    }

    /// Writes bytes.
    pub fn write_all(&mut self, data: &[u8]) -> Result<()> {
        self.writer.write_all(data)?;
        self.bytes += data.len() as u64;
        Ok(())
    }

    /// Flushes and returns `(path, bytes_written)`.
    pub fn finish(mut self) -> Result<(PathBuf, u64)> {
        self.writer.flush()?;
        Ok((self.path, self.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemSource;

    #[test]
    fn scan_header_basic() {
        let text = b"@HD\tVN:1.6\n@SQ\tSN:chr1\tLN:1000\nr1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\n";
        let src = MemSource::new(text.to_vec());
        let (header, offset) = scan_sam_header(&src).unwrap();
        assert_eq!(header.reference_count(), 1);
        assert_eq!(offset, 31);
        assert_eq!(&text[offset as usize..offset as usize + 2], b"r1");
    }

    #[test]
    fn scan_headerless() {
        let text = b"r1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\n";
        let src = MemSource::new(text.to_vec());
        let (header, offset) = scan_sam_header(&src).unwrap();
        assert_eq!(header.reference_count(), 0);
        assert_eq!(offset, 0);
    }

    #[test]
    fn scan_header_only_file() {
        let text = b"@HD\tVN:1.6\n@SQ\tSN:chr1\tLN:1000\n";
        let src = MemSource::new(text.to_vec());
        let (header, offset) = scan_sam_header(&src).unwrap();
        assert_eq!(header.reference_count(), 1);
        assert_eq!(offset, text.len() as u64);
    }

    #[test]
    fn scan_header_spanning_chunks() {
        // Header longer than the 64 KiB scan chunk.
        let mut text = String::from("@HD\tVN:1.6\n");
        for i in 0..3000 {
            text.push_str(&format!("@SQ\tSN:contig{i}\tLN:1000\n"));
        }
        let body_at = text.len() as u64;
        text.push_str("r1\t0\tcontig0\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\n");
        let src = MemSource::new(text.into_bytes());
        let (header, offset) = scan_sam_header(&src).unwrap();
        assert_eq!(header.reference_count(), 3000);
        assert_eq!(offset, body_at);
    }

    #[test]
    fn report_aggregation() {
        let mut report = ConvertReport::default();
        for rank in 0..3 {
            report.per_rank.push(RankStats {
                rank,
                records_in: 10,
                records_out: 8,
                bytes_in: 100,
                bytes_out: 80,
                elapsed: Duration::from_millis(5),
            });
        }
        assert_eq!(report.records_in(), 30);
        assert_eq!(report.records_out(), 24);
        assert_eq!(report.bytes_out(), 240);
    }

    #[test]
    fn rank_output_accounting() {
        let dir = tempfile::tempdir().unwrap();
        let mut out = RankOutput::create(dir.path(), "x", 3, "bed", 4096).unwrap();
        out.write_all(b"hello\n").unwrap();
        let (path, bytes) = out.finish().unwrap();
        assert_eq!(bytes, 6);
        assert!(path.to_string_lossy().contains("x.part0003.bed"));
        assert_eq!(std::fs::read(path).unwrap(), b"hello\n");
    }
}
