//! The end-to-end run: fresh `DppSession`s drained by a closed-loop
//! trainer, one epoch per session, with an optional writer thread.

use crate::workload::{Setup, WORKERS};
use chaos::{check_exactly_once, EpochTrace, InvariantReport};
use dpp::DppSession;
use dsi_obs::{PipelineReport, Registry};
use dsi_types::{PartitionId, Sample};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Partition ids the writer uses start here, far past the lab's days.
const WRITE_BASE: u32 = 1_000;

/// What one epoch measured.
pub struct Epoch {
    /// Samples delivered to the trainer.
    pub samples: u64,
    /// Wall seconds from launch to shutdown.
    pub secs: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_secs: f64,
    /// Storage bytes the workers read (from their `WorkerReport`).
    pub storage_bytes: u64,
    /// Bytes memcpy'd on the decode path.
    pub copied_bytes: u64,
    /// Tensor bytes leaving the workers.
    pub tensor_bytes: u64,
    /// Missing, duplicate or altered tensors against the reference.
    pub errors: u64,
    /// Tensors the reference expects.
    pub expected: u64,
}

/// The whole timed window.
#[derive(Default)]
pub struct Window {
    /// Every epoch, in order.
    pub epochs: Vec<Epoch>,
    /// Nanoseconds the trainer blocked in each `next_batch` that returned
    /// a batch.
    pub waits_ns: Vec<u64>,
    /// Socket bytes written over the window (0 in-process).
    pub wire_bytes: u64,
    /// Warehouse rows the writer finished during the window.
    pub ingest_rows: u64,
    /// Wall seconds of the window.
    pub secs: f64,
}

impl Window {
    /// Samples delivered over the window.
    pub fn samples(&self) -> u64 {
        self.epochs.iter().map(|e| e.samples).sum()
    }

    /// Delivery errors over the window.
    pub fn errors(&self) -> u64 {
        self.epochs.iter().map(|e| e.errors).sum()
    }

    /// Tensors the reference expects over the window.
    pub fn expected(&self) -> u64 {
        self.epochs.iter().map(|e| e.expected).sum()
    }
}

/// Process CPU time (user + system, all threads) in seconds.
pub fn process_cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the 64-bit Linux
    // layout, and the clock id is a valid constant; the call writes only
    // through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Launches one session, drains it through a closed-loop trainer and
/// checks the delivered tensors against the reference.
pub fn run_epoch(setup: &Setup, registry: &Registry, waits_ns: &mut Vec<u64>) -> Epoch {
    let cpu0 = process_cpu_secs();
    let start = Instant::now();
    let session = DppSession::launch_observed_chaos(
        setup.lab.table.clone(),
        setup.spec.clone(),
        WORKERS,
        Some(registry),
        None,
    )
    .expect("lab selection is non-empty");
    let mut client = session.client();
    let mut delivered = EpochTrace::new();
    loop {
        let asked = Instant::now();
        let Some(batch) = client.next_batch() else {
            break;
        };
        waits_ns.push(asked.elapsed().as_nanos() as u64);
        // The trainer's whole consume step: fingerprint every tensor.
        delivered.push(&batch);
    }
    drop(client);
    let report = session.shutdown();
    let secs = start.elapsed().as_secs_f64();
    let cpu_secs = process_cpu_secs() - cpu0;
    let mut errors = delivery_errors(&delivered, &setup.reference);
    if report.samples != setup.reference.samples() as u64 {
        errors = errors.max(1);
    }
    Epoch {
        samples: delivered.samples() as u64,
        secs,
        cpu_secs,
        storage_bytes: report.storage_rx_bytes,
        copied_bytes: report.copied_bytes,
        tensor_bytes: report.transform_tx_bytes,
        errors,
        expected: setup.reference.len() as u64,
    }
}

/// Missing plus unexpected tensors of `delivered` against the reference
/// (an altered tensor counts once in each), with the exactly-once verdict
/// from `chaos::check_exactly_once`.
pub fn delivery_errors(delivered: &EpochTrace, reference: &EpochTrace) -> u64 {
    let mut verdict = InvariantReport::new();
    check_exactly_once(&mut verdict, delivered, reference);
    let (got, want) = (delivered.sorted(), reference.sorted());
    let (mut i, mut j, mut errors) = (0, 0, 0u64);
    while i < got.len() || j < want.len() {
        if j == want.len() || (i < got.len() && got[i] < want[j]) {
            errors += 1;
            i += 1;
        } else if i == got.len() || want[j] < got[i] {
            errors += 1;
            j += 1;
        } else {
            i += 1;
            j += 1;
        }
    }
    if delivered.samples() != reference.samples() || !verdict.ok() {
        errors = errors.max(1);
    }
    errors
}

/// Runs untimed epochs: fills the buffer pool, allocator and sockets.
/// Returns the delivery errors they saw.
pub fn warm_up(setup: &Setup, registry: &Registry, epochs: usize) -> u64 {
    with_writer(setup, |_| {
        (0..epochs)
            .map(|_| run_epoch(setup, registry, &mut Vec::new()).errors)
            .sum()
    })
}

/// Runs epochs until `seconds` have passed (the last epoch completes).
pub fn timed_window(setup: &Setup, registry: &Registry, seconds: f64) -> Window {
    let wire0 = PipelineReport::collect(registry).wire_tx_bytes;
    let mut window = with_writer(setup, |rows| {
        let mut window = Window::default();
        let rows0 = rows.load(Ordering::Relaxed);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let epoch = run_epoch(setup, registry, &mut window.waits_ns);
            window.epochs.push(epoch);
        }
        window.secs = start.elapsed().as_secs_f64();
        window.ingest_rows = rows.load(Ordering::Relaxed) - rows0;
        window
    });
    window.wire_bytes = PipelineReport::collect(registry).wire_tx_bytes - wire0;
    window
}

/// Runs `body` while the ingest workload's writer thread writes beside
/// it (no thread for the other workloads). `body` sees the count of rows
/// written so far.
fn with_writer<T>(setup: &Setup, body: impl FnOnce(&AtomicU64) -> T) -> T {
    /// Stops the writer even when `body` unwinds, so the scope can join.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    let rows = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let _stop = StopOnDrop(&stop);
        if let Some(pool) = &setup.pool {
            scope.spawn(|| write_loop(setup, pool, &stop, &rows));
        }
        body(&rows)
    })
}

/// Writes the fixed row pool as a fresh partition, then drops the
/// partition written before it (rolling retention), until stopped. The
/// last partition is dropped too, so the table ends as it began.
fn write_loop(setup: &Setup, pool: &[Sample], stop: &AtomicBool, rows: &AtomicU64) {
    let table = &setup.lab.table;
    let mut next = WRITE_BASE;
    while !stop.load(Ordering::Relaxed) {
        table
            .write_partition(PartitionId::new(next), pool.to_vec())
            .expect("lab cluster has capacity");
        if next > WRITE_BASE {
            table
                .drop_partition(PartitionId::new(next - 1))
                .expect("the previous partition exists");
        }
        rows.fetch_add(pool.len() as u64, Ordering::Relaxed);
        next += 1;
    }
    if next > WRITE_BASE {
        table
            .drop_partition(PartitionId::new(next - 1))
            .expect("the last partition exists");
    }
}
