//! The three workloads: lab shape, session spec, writer pool, and the
//! sequential reference every run is checked against.

use chaos::EpochTrace;
use dpp::{SessionSpec, Transport, WireConfig, Worker};
use dsi_bench::{LabConfig, RmLab};
use dsi_types::rng::SplitMix64;
use dsi_types::{Projection, Sample, WorkerId};
use std::sync::Arc;
use synth::{JobProjectionSampler, RmClass, SampleGenerator};

/// Rows per date partition of every lab (4 partitions per lab).
pub const ROWS_PER_DAY: u64 = 16_384;
/// Rows per DWRF stripe, so one split is 1024 rows (4 batches of 256).
pub const ROWS_PER_STRIPE: usize = 1_024;
/// Mini-batch size of every workload.
pub const BATCH: usize = 256;
/// DPP workers per session.
pub const WORKERS: usize = 2;
/// Rows in the writer's pre-generated pool: one file per write.
pub const POOL_ROWS: usize = 2_048;
/// Seed of the RC job's projection sampler. It is fixed so that every
/// lab seed runs the same job shape and only the data values change.
const PROJECTION_SEED: u64 = 0xd51;
/// Cipher key of the secure transport.
const WIRE_KEY: u64 = 0x00D5_1F00;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RM1, RC projection and preset plan, pipelined worker, TCP with
    /// cipher and compression: transforms and the wire tax dominate.
    Rm1SecureTcp,
    /// RM3, every 12th logged feature, sequential worker, in-process:
    /// extract-bound, most bytes read are never used.
    Rm3NarrowInproc,
    /// The RM1 read path over plaintext TCP while one writer thread
    /// writes and drops warehouse partitions (rolling retention).
    Rm1IngestTcp,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "rm1_secure_tcp" => Some(Workload::Rm1SecureTcp),
            "rm3_narrow_inproc" => Some(Workload::Rm3NarrowInproc),
            "rm1_ingest_tcp" => Some(Workload::Rm1IngestTcp),
            _ => None,
        }
    }

    /// Whether a writer thread runs beside the reads.
    pub fn writes(self) -> bool {
        self == Workload::Rm1IngestTcp
    }

    fn class(self) -> RmClass {
        match self {
            Workload::Rm3NarrowInproc => RmClass::Rm3,
            _ => RmClass::Rm1,
        }
    }

    fn transport(self) -> Transport {
        match self {
            Workload::Rm1SecureTcp => Transport::Tcp(WireConfig {
                encrypt: true,
                compress: true,
                key: WIRE_KEY,
            }),
            Workload::Rm3NarrowInproc => Transport::InProcess,
            Workload::Rm1IngestTcp => Transport::Tcp(WireConfig::plaintext()),
        }
    }

    fn read_ahead(self) -> usize {
        match self {
            Workload::Rm3NarrowInproc => 0,
            _ => 2,
        }
    }
}

/// Everything a run needs, built by [`Setup::build`].
pub struct Setup {
    /// The lab: table, schema and sampler.
    pub lab: RmLab,
    /// The session spec every epoch launches.
    pub spec: SessionSpec,
    /// One epoch's expected tensors, built by a single sequential
    /// `dpp::Worker`, independent of threads and transports.
    pub reference: EpochTrace,
    /// The writer's fixed row pool (ingest workload only).
    pub pool: Option<Vec<Sample>>,
}

impl Setup {
    /// Builds the lab for `workload` from `seed` and its reference epoch.
    pub fn build(workload: Workload, seed: u64) -> Setup {
        let lab = RmLab::build(
            workload.class(),
            LabConfig {
                features: 120,
                days: 4,
                rows_per_day: ROWS_PER_DAY,
                rows_per_stripe: ROWS_PER_STRIPE,
                seed,
            },
        );
        let mut spec = match workload {
            Workload::Rm3NarrowInproc => {
                let schema = lab.table.schema();
                let narrow = Projection::new(schema.logged_ids().into_iter().step_by(12).collect());
                lab.session_spec(narrow, BATCH)
            }
            _ => {
                let sampler =
                    JobProjectionSampler::new(&lab.table.schema(), &lab.profile, PROJECTION_SEED);
                let rc = sampler.sample_projection(&mut SplitMix64::new(PROJECTION_SEED ^ 0xabc));
                lab.session_spec(rc, BATCH)
            }
        };
        spec.read_ahead = workload.read_ahead();
        spec.transport = workload.transport();
        let reference = reference_epoch(&lab, &spec);
        let pool = workload.writes().then(|| {
            let schema = lab.table.schema();
            let mut generator = SampleGenerator::new(&schema, seed ^ 0x1_9E57);
            generator.take_samples(POOL_ROWS)
        });
        Setup {
            lab,
            spec,
            reference,
            pool,
        }
    }
}

/// One epoch through a single sequential worker, flushing per split as
/// the session's workers do.
fn reference_epoch(lab: &RmLab, spec: &SessionSpec) -> EpochTrace {
    let scan = lab
        .table
        .scan(spec.partitions(), spec.projection.clone())
        .with_policy(spec.policy)
        .with_decode(spec.decode_mode());
    let mut worker = Worker::new(WorkerId(0), Arc::new(spec.clone()), scan.clone());
    let mut reference = EpochTrace::new();
    for split in scan.plan_splits() {
        let tensors = worker
            .process_split(&split)
            .expect("lab table reads are infallible");
        for t in tensors.iter().chain(worker.flush().as_ref()) {
            reference.push(t);
        }
    }
    reference
}
