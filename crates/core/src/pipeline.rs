//! The DPP Worker loop (§III-B1): extract → transform → load, as three
//! stage functions driven by one loop.
//!
//! - `fetch` requests a split from the Master and reads it (traced when
//!   the split is sampled);
//! - `transform` runs the stateless transform stage;
//! - `deliver` fires the chaos hook, batches the split into tensors and
//!   sends them to the worker's endpoint.
//!
//! [`run_worker`] drives every worker thread. At
//! [`crate::session::SessionSpec::read_ahead`] `== 0` it calls the three
//! stages inline, one split after another, with no extra threads or
//! channels. At `read_ahead > 0` the same functions run as a software
//! pipeline over bounded channels, so storage waits overlap transform CPU:
//!
//! ```text
//!   fetch ──bounded(read_ahead)──▶ transform ──bounded(2)──▶ deliver
//!   (storage I/O thread)           (CPU thread)              (worker thread)
//! ```
//!
//! Only `fetch` requests work and only `deliver` acknowledges or delivers
//! it; `transform` ships its accounting downstream as a [`WorkerReport`]
//! delta. So the exactly-once envelope protocol is the same at every
//! depth: a split is in flight from `request_split` until the client acks
//! its last tensor, wherever it sits in the pipe.

use crate::client::Envelope;
use crate::master::Master;
use crate::worker::{Worker, WorkerReport};
use chaos::{FaultInjector, FaultKind, HookPoint};
use crossbeam::channel::{bounded, Sender};
use dsi_obs::{names, next_span_id, now_ns, Registry, SpanKind, TraceContext, TraceSpan};
use dsi_types::{Batch, Sample, WorkerId};
use dwrf::IoPlan;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use warehouse::{Split, TableScan};

/// A shared, late-bindable chaos injector slot: the deliver stage re-reads
/// it per split so an injector attached after launch still takes effect.
pub(crate) type ChaosSlot = Arc<RwLock<Option<Arc<FaultInjector>>>>;

/// What an injected `WorkerSplit` fault decided for this worker.
enum WorkerFate {
    /// Keep processing (possibly after an injected stall).
    Continue,
    /// The worker "crashed": it has already been failed at the Master (so
    /// its in-flight splits requeue) and its thread must return now.
    Crash,
}

/// Fires the `WorkerSplit` chaos hook for one split at `worker`.
/// `WorkerHang` and `SlowTransform` stall the calling thread in place;
/// `WorkerCrash` fails the worker at the Master and reports `Crash`.
fn fire_worker_chaos(chaos: &ChaosSlot, master: &Master, worker: WorkerId) -> WorkerFate {
    let guard = chaos.read();
    let Some(injector) = guard.as_ref() else {
        return WorkerFate::Continue;
    };
    let mut fate = WorkerFate::Continue;
    for kind in injector.fire(HookPoint::WorkerSplit) {
        match kind {
            FaultKind::WorkerCrash => {
                master.fail_worker(worker);
                fate = WorkerFate::Crash;
            }
            FaultKind::WorkerHang { micros } | FaultKind::SlowTransform { micros } => {
                std::thread::sleep(std::time::Duration::from_micros(micros));
            }
            _ => {}
        }
    }
    fate
}

/// The session-side handles one worker's stages share.
#[derive(Clone)]
pub(crate) struct StageCtx {
    pub master: Master,
    pub id: WorkerId,
    /// Set by a hard crash: stop at once, settle nothing.
    pub kill: Arc<AtomicBool>,
    /// Set by a graceful drain: stop taking new splits.
    pub drain: Arc<AtomicBool>,
    pub obs: Arc<Mutex<Option<Registry>>>,
    pub chaos: ChaosSlot,
}

/// Why the fetch stage stopped taking work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EndReason {
    /// The Master handed out `None`: every split is assigned or done.
    Exhausted,
    /// The drain flag was observed between splits.
    Drained,
    /// `read_split` failed; the split must be requeued elsewhere.
    ReadFailed,
    /// The Master rejected the request (worker deregistered concurrently).
    MasterGone,
    /// Killed, or the deliver stage stopped first: nothing to settle.
    Abandoned,
}

impl StageCtx {
    /// The attached registry when `ctx` is sampled. Re-read per split so a
    /// registry attached after launch still collects this worker's spans.
    fn tracer(&self, ctx: TraceContext) -> Option<Registry> {
        if ctx.is_sampled() {
            self.obs.lock().clone()
        } else {
            None
        }
    }

    /// Records a stage span under the split's schedule context `ctx`.
    /// `start_ns` is captured by the caller just before the stage ran.
    fn record_span(
        &self,
        reg: &Registry,
        ctx: TraceContext,
        span_id: u64,
        kind: SpanKind,
        start_ns: u64,
        split: u64,
    ) {
        reg.record_span(TraceSpan {
            trace_id: ctx.trace_id,
            span_id,
            parent_id: ctx.span_id,
            kind,
            start_ns,
            end_ns: now_ns(),
            split,
            worker: self.id.0,
            seq: 0,
            flags: 0,
        });
    }

    /// Tells the Master how the worker ended, once every split the fetch
    /// stage took has been delivered.
    fn settle(&self, reason: EndReason) {
        match reason {
            // Splits already delivered stay in flight until clients
            // consume and acknowledge them.
            EndReason::Exhausted | EndReason::Drained => self.master.drain_worker(self.id),
            // Requeue the failed split (and anything unacknowledged).
            EndReason::ReadFailed => self.master.fail_worker(self.id),
            EndReason::MasterGone | EndReason::Abandoned => {}
        }
    }
}

/// A split fetched and decoded, waiting for the transform stage.
struct Fetched {
    split: Split,
    rows: Vec<Sample>,
    plan: IoPlan,
    /// Trace context of the split's `Schedule` span (NONE when unsampled);
    /// each stage parents its span under it.
    trace: TraceContext,
    /// When decode finished — the gap until the transform stage picks the
    /// item up is time the stages genuinely overlapped.
    ready_at: Instant,
}

/// A transformed split, waiting for the deliver stage.
struct Transformed {
    split: Split,
    batch: Batch,
    delta: WorkerReport,
    trace: TraceContext,
}

/// Stage 1: requests the next split and reads it, or says why the worker
/// stops taking work.
fn fetch(ctx: &StageCtx, scan: &TableScan) -> Result<Fetched, EndReason> {
    if ctx.kill.load(Ordering::SeqCst) {
        // Hard crash: no deregistration, no acknowledgement. The health
        // monitor requeues this worker's unconsumed splits.
        return Err(EndReason::Abandoned);
    }
    if ctx.drain.load(Ordering::SeqCst) {
        return Err(EndReason::Drained);
    }
    let (split, trace) = match ctx.master.request_split_ctx(ctx.id) {
        Ok(Some(assigned)) => assigned,
        Ok(None) => return Err(EndReason::Exhausted),
        Err(_) => return Err(EndReason::MasterGone),
    };
    // Traced reads hang the storage subtree under a fresh Extract span.
    let read = match ctx.tracer(trace) {
        Some(reg) => {
            let (extract_id, t0) = (next_span_id(), now_ns());
            let extract = TraceContext {
                trace_id: trace.trace_id,
                span_id: extract_id,
            };
            let read = scan.read_split_traced(&split, extract, &reg);
            if read.is_ok() {
                ctx.record_span(&reg, trace, extract_id, SpanKind::Extract, t0, split.index);
            }
            read
        }
        None => scan.read_split(&split),
    };
    let (rows, plan) = read.map_err(|_| EndReason::ReadFailed)?;
    Ok(Fetched {
        split,
        rows,
        plan,
        trace,
        ready_at: Instant::now(),
    })
}

/// The stateless transform stage bound to one worker's plan.
type TransformFn = dyn Fn(&Split, Vec<Sample>, &IoPlan) -> (Batch, WorkerReport);

/// Stage 2: the stateless transform (see [`Worker::transformer`]) plus its
/// span.
fn transform(ctx: &StageCtx, run: &TransformFn, f: Fetched) -> Transformed {
    let t1 = now_ns();
    let (batch, delta) = run(&f.split, f.rows, &f.plan);
    if let Some(reg) = ctx.tracer(f.trace) {
        ctx.record_span(
            &reg,
            f.trace,
            next_span_id(),
            SpanKind::Transform,
            t1,
            f.split.index,
        );
    }
    Transformed {
        split: f.split,
        batch,
        delta,
        trace: f.trace,
    }
}

/// Stage 3, on the worker's own thread: fires the chaos hook, batches the
/// split into tensors and sends them. Returns `false` when the worker must
/// stop at once (crash, kill, or its output closed).
fn deliver(ctx: &StageCtx, worker: &mut Worker, tx: &Sender<Envelope>, t: Transformed) -> bool {
    if ctx.kill.load(Ordering::SeqCst) {
        // Killed with the split in hand: it replays on another worker, and
        // a dead worker fires no chaos.
        return false;
    }
    // A crash here abandons every split still in the pipe, all of which
    // the injected `fail_worker` requeues (they are in flight at this id).
    if let WorkerFate::Crash = fire_worker_chaos(&ctx.chaos, &ctx.master, ctx.id) {
        return false;
    }
    let t2 = now_ns();
    let mut tensors = worker.load_stage(t.batch, t.delta);
    // Per-split flush keeps replay exact under failures (no cross-split
    // rows inside any delivered tensor).
    tensors.extend(worker.flush());
    // All of a split's envelopes carry the Load span as their parent, so
    // wire/client spans attach per delivered tensor.
    let mut parent = TraceContext::NONE;
    if let Some(reg) = ctx.tracer(t.trace) {
        let load_id = next_span_id();
        ctx.record_span(&reg, t.trace, load_id, SpanKind::Load, t2, t.split.index);
        parent = TraceContext {
            trace_id: t.trace.trace_id,
            span_id: load_id,
        };
    }
    if tensors.is_empty() {
        // Nothing to deliver (e.g. sampling filtered every row): safe to
        // acknowledge immediately.
        let _ = ctx.master.complete_split(ctx.id, t.split.index);
        return true;
    }
    let total = tensors.len();
    for (seq, tensor) in tensors.into_iter().enumerate() {
        let env = Envelope {
            split: t.split.index,
            seq: seq as u32,
            last: seq + 1 == total,
            worker: ctx.id,
            trace_id: parent.trace_id,
            parent_span: parent.span_id,
            tensor,
        };
        if tx.send(env).is_err() {
            // Session shut down under us.
            ctx.master.deregister_worker(ctx.id);
            return false;
        }
    }
    // Completion is acknowledged by the Client that consumes the split's
    // last tensor — not here.
    true
}

/// Runs one worker until its splits run out, it drains, or it dies, and
/// returns its telemetry. `read_ahead == 0` runs the stages inline;
/// `read_ahead > 0` pipelines them (see the module docs).
pub(crate) fn run_worker(
    ctx: StageCtx,
    mut worker: Worker,
    tx: Sender<Envelope>,
    read_ahead: usize,
) -> WorkerReport {
    let scan = worker.scan_clone();
    let stage = worker.transformer();
    let reason = if read_ahead == 0 {
        loop {
            match fetch(&ctx, &scan) {
                Ok(f) => {
                    if !deliver(&ctx, &mut worker, &tx, transform(&ctx, &stage, f)) {
                        return worker.report();
                    }
                }
                Err(reason) => break reason,
            }
        }
    } else {
        let (fetch_tx, fetch_rx) = bounded::<Fetched>(read_ahead);
        let (t_tx, t_rx) = bounded::<Transformed>(2);
        let fetcher = {
            let ctx = ctx.clone();
            std::thread::spawn(move || loop {
                match fetch(&ctx, &scan) {
                    Ok(f) => {
                        if fetch_tx.send(f).is_err() {
                            return EndReason::Abandoned; // deliver stopped first
                        }
                    }
                    Err(reason) => return reason,
                }
            })
        };
        let transformer = {
            let ctx = ctx.clone();
            // Sessions share registries under the fleet control plane, so
            // the pipeline gauges carry the job label.
            let job = ctx.master.session().to_string();
            std::thread::spawn(move || {
                while let Ok(f) = fetch_rx.recv() {
                    let reg = ctx.obs.lock().clone();
                    if let Some(reg) = &reg {
                        let labels = [("job", job.as_str())];
                        // How far fetch has run ahead of transform.
                        reg.gauge(names::FASTPATH_PREFETCH_DEPTH, &labels)
                            .set(fetch_rx.len() as f64);
                        reg.histogram(names::FASTPATH_STAGE_OVERLAP_SECONDS, &labels)
                            .record(f.ready_at.elapsed().as_secs_f64());
                    }
                    if t_tx.send(transform(&ctx, &stage, f)).is_err() {
                        return; // deliver stopped (crash, kill or shutdown)
                    }
                }
            })
        };
        while let Ok(t) = t_rx.recv() {
            if !deliver(&ctx, &mut worker, &tx, t) {
                // Return without joining: upstream threads unblock when
                // their sends see the dropped receivers.
                return worker.report();
            }
        }
        // Fetch ended and every item it took has been delivered.
        let _ = transformer.join();
        fetcher.join().unwrap_or(EndReason::Abandoned)
    };
    ctx.settle(reason);
    worker.report()
}
