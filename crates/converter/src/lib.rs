//! # ngs-converter
//!
//! The paper's parallel sequence data format converter: a *runtime
//! system* (partitioning, buffered loading, parsing, writing) plus *user
//! programs* (per-record target conversion), in three instances:
//!
//! * [`sam_converter::SamConverter`] — text SAM, partitioned with the
//!   boundary-adjusting Algorithm 1 ([`partition`]);
//! * [`bam_converter::BamConverter`] — binary BAM, via *sequential
//!   preprocessing* into BAMX/BAIX then embarrassingly-parallel (full or
//!   region-restricted *partial*) conversion;
//! * [`samx_converter::SamxConverter`] — the preprocessing-optimized SAM
//!   converter whose preprocessing is itself parallel (M shards × N
//!   conversion ranks).
//!
//! [`baseline::PicardLikeConverter`] reproduces the architecture of the
//! paper's sequential comparison target (Picard/SAM-JDK) for Table I.
//!
//! Every parallel entry point has a `*_simulated` twin for the paper's
//! speedup figures on hosts with fewer cores than ranks (DESIGN.md §4b).
//! The twin runs the same setup and the same per-rank body, but each
//! rank runs alone and is timed ([`ngs_cluster::run_ranks_alone`]); the
//! reported phase time is the makespan, `max(rank times)`. SAM text is
//! then split by [`partition_serial`], property-tested equal to the
//! distributed Algorithm 1. Outputs are byte-identical to the threaded
//! run.
//!
//! Targets: SAM, BAM, BED, BEDGRAPH, FASTA, FASTQ, JSON, YAML — or any
//! user type implementing [`target::RecordConverter`].

pub mod bam_converter;
pub mod baseline;
pub mod partition;
pub mod runtime;
pub mod sam_converter;
pub mod samx_converter;
pub mod scan;
pub mod source;
pub mod target;

pub use bam_converter::{BamConverter, PreprocessReport};
pub use baseline::PicardLikeConverter;
pub use partition::{partition_distributed, partition_serial, Variant};
pub use runtime::{ConvertConfig, ConvertReport, RankStats};
pub use sam_converter::SamConverter;
pub use samx_converter::{SamxConverter, SamxPreprocessReport, Shard};
pub use source::{ByteSource, FileSource, MemSource};
pub use target::{RecordConverter, TargetFormat};
