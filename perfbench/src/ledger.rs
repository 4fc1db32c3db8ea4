//! The traced run: a single-thread pass that calls each layer's public
//! function in the worker's order and charges the time of every call to
//! its layer, so the layer self-times add up to the pass's wall time.

use crate::e2e::delivery_errors;
use crate::workload::{Setup, ROWS_PER_STRIPE};
use chaos::EpochTrace;
use dpp::{Transport, WireConfig};
use dsi_types::{Batch, DsiError, MiniBatchTensor, Sample, WorkerId};
use dwrf::cipher::StreamCipher;
use dwrf::{ChunkSource, FileReader, FileWriter, SourceChunk, WriterOptions};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;
use tectonic::TectonicSource;
use transforms::ColumnarPlan;
use wire::codec::{decode_envelope, encode_envelope_into};
use wire::frame::{fill_header, parse_header, FLAG_COMPRESSED, FLAG_ENCRYPTED};
use wire::{FrameKind, WireEnvelope, HEADER_LEN};

/// Splits read per pool-sized file written in the ingest workload's
/// traced pass (16 splits of 1024 rows per 2048 written rows).
const SPLITS_PER_WRITE: u64 = 16;

/// Self time (seconds) and counts per layer, summed over traced epochs.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Traced epochs the sums cover.
    pub epochs: u64,
    /// Samples the traced pass delivered.
    pub samples: u64,
    /// Wall seconds of the traced epochs.
    pub wall_s: f64,
    /// `TableScan::plan_splits`.
    pub plan_s: f64,
    /// Tectonic chunk reads under the DWRF reader.
    pub tectonic_read_s: f64,
    /// Bytes those reads returned.
    pub tectonic_read_bytes: u64,
    /// Chunk reads issued.
    pub tectonic_ios: u64,
    /// Chunk reads that failed.
    pub tectonic_errors: u64,
    /// `FileReader::read_stripe_from` less its Tectonic reads.
    pub decode_s: f64,
    /// IoPlan bytes wanted by the projection.
    pub wanted_bytes: u64,
    /// IoPlan bytes read (wanted plus coalescing over-read).
    pub read_bytes: u64,
    /// Stripe decodes that failed.
    pub dwrf_errors: u64,
    /// Row-path transforms (`TransformPlan::apply_batch`).
    pub row_s: f64,
    /// Columnar transforms (`split_plan`, `capture_ctx`, `apply_with_cost`).
    pub columnar_s: f64,
    /// `Batch::materialize_capped`.
    pub materialize_s: f64,
    /// `encode_envelope_into`.
    pub serialize_s: f64,
    /// `dwrf::compress` and its inverse.
    pub compress_s: f64,
    /// `StreamCipher::apply_in_place`, both directions.
    pub cipher_s: f64,
    /// Frame header, checksum, and the loopback write and read.
    pub socket_s: f64,
    /// `decode_envelope`.
    pub deserialize_s: f64,
    /// Serialized envelope bytes before compression.
    pub wire_payload_bytes: u64,
    /// Frame payload bytes on the socket.
    pub wire_frame_bytes: u64,
    /// Frames that failed to cross or decode.
    pub wire_errors: u64,
    /// `FileWriter` push and finish (ingest only).
    pub encode_s: f64,
    /// `TectonicCluster::append` and the retention delete (ingest only).
    pub append_s: f64,
    /// Bytes appended.
    pub append_bytes: u64,
    /// Trainer consume: `chaos::tensor_fingerprint` per tensor.
    pub consume_s: f64,
    /// Missing, duplicate or altered tensors against the reference.
    pub delivery_errors: u64,
    /// Tensors the reference expects over the traced epochs.
    pub expected: u64,
}

impl Ledger {
    /// Seconds charged to some layer.
    fn attributed_s(&self) -> f64 {
        self.plan_s
            + self.tectonic_read_s
            + self.decode_s
            + self.row_s
            + self.columnar_s
            + self.materialize_s
            + self.serialize_s
            + self.compress_s
            + self.cipher_s
            + self.socket_s
            + self.deserialize_s
            + self.encode_s
            + self.append_s
            + self.consume_s
    }

    /// Wall seconds no layer accounts for (loop and bookkeeping).
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.attributed_s()
    }
}

/// A `ChunkSource` that times and counts every read it forwards.
struct TimedSource<'a> {
    inner: TectonicSource,
    ledger: &'a mut Ledger,
}

impl ChunkSource for TimedSource<'_> {
    fn read(&mut self, offset: u64, len: u64) -> dsi_types::Result<SourceChunk> {
        let start = Instant::now();
        let chunk = self.inner.read(offset, len);
        self.ledger.tectonic_read_s += start.elapsed().as_secs_f64();
        self.ledger.tectonic_ios += 1;
        match &chunk {
            Ok(c) => self.ledger.tectonic_read_bytes += c.view.len() as u64,
            Err(_) => self.ledger.tectonic_errors += 1,
        }
        chunk
    }
}

/// Times `f` and adds its duration to `slot`.
fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

/// A connected loopback pair carrying frames within one thread.
struct Loopback {
    tx: TcpStream,
    rx: TcpStream,
}

impl Loopback {
    fn open() -> io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        for s in [&tx, &rx] {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
        }
        Ok(Loopback { tx, rx })
    }

    /// Writes `frame` and reads it back into `out`, interleaving the two
    /// so a frame larger than the socket buffers cannot block the thread.
    fn carry(&mut self, frame: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
        out.resize(frame.len(), 0);
        let (mut sent, mut got) = (0, 0);
        while got < frame.len() {
            if sent < frame.len() {
                match self.tx.write(&frame[sent..]) {
                    Ok(n) => sent += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
            match self.rx.read(&mut out[got..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The wire layer of the traced pass: the transport's send and receive
/// steps, one call each, over a loopback socket.
struct TracedWire {
    cfg: WireConfig,
    link: Loopback,
    send: Vec<u8>,
    recv: Vec<u8>,
    nonce: u64,
}

impl TracedWire {
    /// Ships `tensor` through serialize, compress, cipher, socket,
    /// decipher, decompress and deserialize; returns what arrived.
    fn ship(
        &mut self,
        ledger: &mut Ledger,
        split: u64,
        seq: u32,
        tensor: MiniBatchTensor,
    ) -> io::Result<MiniBatchTensor> {
        let env = WireEnvelope {
            split,
            seq,
            last: false,
            worker: WorkerId(0),
            trace_id: 0,
            parent_span: 0,
            tensor,
        };
        self.nonce += 1;
        let (cfg, nonce) = (self.cfg, self.nonce);
        let send = &mut self.send;
        send.clear();
        send.resize(HEADER_LEN, 0);
        timed(&mut ledger.serialize_s, || encode_envelope_into(&env, send));
        ledger.wire_payload_bytes += (send.len() - HEADER_LEN) as u64;
        let mut flags = 0;
        if cfg.compress {
            timed(&mut ledger.compress_s, || {
                let zipped = dwrf::compress::compress(&send[HEADER_LEN..]);
                send.truncate(HEADER_LEN);
                send.extend_from_slice(&zipped);
            });
            flags |= FLAG_COMPRESSED;
        }
        if cfg.encrypt {
            timed(&mut ledger.cipher_s, || {
                StreamCipher::new(cfg.key).apply_in_place(nonce, &mut send[HEADER_LEN..])
            });
            flags |= FLAG_ENCRYPTED;
        }
        ledger.wire_frame_bytes += (send.len() - HEADER_LEN) as u64;
        let (link, recv) = (&mut self.link, &mut self.recv);
        let header = timed(&mut ledger.socket_s, || -> io::Result<_> {
            let len = u32::try_from(send.len() - HEADER_LEN).expect("frame fits u32");
            let checksum = dwrf::stream::checksum64(&send[HEADER_LEN..]);
            fill_header(send, FrameKind::Data, flags, nonce, len, checksum);
            link.carry(send, recv)?;
            let head: &[u8; HEADER_LEN] = recv[..HEADER_LEN].try_into().expect("header length");
            let header = parse_header(head)?;
            if dwrf::stream::checksum64(&recv[HEADER_LEN..]) != header.checksum {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "checksum"));
            }
            Ok(header)
        })?;
        let payload = &mut recv[HEADER_LEN..];
        if header.flags & FLAG_ENCRYPTED != 0 {
            timed(&mut ledger.cipher_s, || {
                StreamCipher::new(cfg.key).apply_in_place(header.nonce, payload)
            });
        }
        let unzipped;
        let plain: &[u8] = if header.flags & FLAG_COMPRESSED != 0 {
            unzipped = timed(&mut ledger.compress_s, || {
                dwrf::compress::decompress(payload)
            })
            .map_err(invalid)?;
            &unzipped
        } else {
            payload
        };
        let env = timed(&mut ledger.deserialize_s, || decode_envelope(plain)).map_err(invalid)?;
        Ok(env.tensor)
    }
}

fn invalid(e: DsiError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// The ingest workload's write path in the traced pass.
struct TracedWriter<'a> {
    setup: &'a Setup,
    pool: &'a [Sample],
    written: u64,
}

impl TracedWriter<'_> {
    fn path(k: u64) -> String {
        format!("perfbench/ledger/{k}.dwrf")
    }

    /// Encodes the pool as one DWRF file, appends it to Tectonic and
    /// deletes the file written before it.
    fn write(&mut self, ledger: &mut Ledger) {
        let opts = WriterOptions {
            rows_per_stripe: ROWS_PER_STRIPE,
            ..Default::default()
        };
        let file = timed(&mut ledger.encode_s, || {
            let mut writer = FileWriter::new(opts);
            for row in self.pool {
                writer.push(row.clone());
            }
            writer.finish()
        })
        .expect("the row pool encodes");
        let cluster = self.setup.lab.table.cluster();
        ledger.append_bytes += file.len() as u64;
        timed(&mut ledger.append_s, || {
            cluster
                .append(&Self::path(self.written), file.bytes().clone())
                .expect("lab cluster has capacity");
            if self.written > 0 {
                cluster
                    .delete(&Self::path(self.written - 1))
                    .expect("the previous file exists");
            }
        });
        self.written += 1;
    }

    fn finish(self) {
        if self.written > 0 {
            let cluster = self.setup.lab.table.cluster();
            cluster
                .delete(&Self::path(self.written - 1))
                .expect("the last file exists");
        }
    }
}

/// Runs traced epochs until `min_secs` of traced wall time have passed
/// (at least one) and returns the summed ledger.
pub fn traced_pass(setup: &Setup, min_secs: f64) -> Ledger {
    let spec = &setup.spec;
    let mut ledger = Ledger::default();
    let mut wire = match spec.transport {
        Transport::Tcp(cfg) => Some(TracedWire {
            cfg,
            link: Loopback::open().expect("loopback sockets open"),
            send: Vec::new(),
            recv: Vec::new(),
            nonce: 0,
        }),
        Transport::InProcess => None,
    };
    let mut writer = setup.pool.as_deref().map(|pool| TracedWriter {
        setup,
        pool,
        written: 0,
    });
    while ledger.epochs == 0 || ledger.wall_s < min_secs {
        let start = Instant::now();
        let delivered = traced_epoch(setup, &mut ledger, wire.as_mut(), writer.as_mut());
        ledger.wall_s += start.elapsed().as_secs_f64();
        ledger.epochs += 1;
        ledger.samples += delivered.samples() as u64;
        ledger.delivery_errors += delivery_errors(&delivered, &setup.reference);
        ledger.expected += setup.reference.len() as u64;
    }
    if let Some(writer) = writer {
        writer.finish();
    }
    ledger
}

/// One epoch in the worker's order: plan, then per split read, row
/// transforms, and per batch materialize, columnar transforms, wire and
/// trainer. Each split flushes its partial batch, as session workers do.
fn traced_epoch(
    setup: &Setup,
    ledger: &mut Ledger,
    mut wire: Option<&mut TracedWire>,
    mut writer: Option<&mut TracedWriter<'_>>,
) -> EpochTrace {
    let spec = &setup.spec;
    let table = &setup.lab.table;
    let scan = table
        .scan(spec.partitions(), spec.projection.clone())
        .with_policy(spec.policy)
        .with_decode(spec.decode_mode());
    let splits = timed(&mut ledger.plan_s, || scan.plan_splits());
    let (row_plan, columnar) = timed(&mut ledger.columnar_s, || {
        ColumnarPlan::split_plan(&spec.plan)
    });
    let caps = timed(&mut ledger.columnar_s, || {
        columnar.sparse_caps(&spec.sparse_ids)
    });
    let mut delivered = EpochTrace::new();
    for split in &splits {
        let reader =
            FileReader::from_footer(split.footer.clone()).with_decode_mode(spec.decode_mode());
        let tectonic_before = ledger.tectonic_read_s;
        let start = Instant::now();
        let mut source = TimedSource {
            inner: TectonicSource::new(table.cluster().clone(), split.path.clone()),
            ledger,
        };
        let read = reader.read_stripe_from(
            split.stripe,
            Some(&spec.projection),
            spec.policy,
            &mut source,
        );
        let stripe_s = start.elapsed().as_secs_f64();
        ledger.decode_s += stripe_s - (ledger.tectonic_read_s - tectonic_before);
        let (rows, plan) = match read {
            Ok(read) => read,
            Err(_) => {
                ledger.dwrf_errors += 1;
                continue;
            }
        };
        ledger.wanted_bytes += plan.wanted_bytes;
        ledger.read_bytes += plan.read_bytes;

        let (transformed, _) = timed(&mut ledger.row_s, || {
            row_plan.apply_batch(Batch::from_samples(rows), split.index * 1_000_000)
        });
        let mut samples = transformed.into_samples();
        let mut seq = 0u32;
        while !samples.is_empty() {
            let rest = samples.split_off(spec.batch_size.min(samples.len()));
            let batch = Batch::from_samples(std::mem::replace(&mut samples, rest));
            let ctx = (!columnar.is_empty()).then(|| {
                timed(&mut ledger.columnar_s, || {
                    columnar.capture_ctx(batch.samples(), &spec.dense_ids, &spec.sparse_ids)
                })
            });
            let mut tensor = timed(&mut ledger.materialize_s, || {
                batch.materialize_capped(&spec.dense_ids, &spec.sparse_ids, &caps)
            });
            if let Some(ctx) = ctx {
                timed(&mut ledger.columnar_s, || {
                    columnar.apply_with_cost(
                        &mut tensor,
                        &spec.dense_ids,
                        &ctx,
                        spec.plan.cost_model(),
                    )
                });
            }
            let arrived = match wire.as_deref_mut() {
                Some(wire) => wire.ship(ledger, split.index, seq, tensor),
                None => Ok(tensor),
            };
            seq += 1;
            match arrived {
                Ok(tensor) => timed(&mut ledger.consume_s, || delivered.push(&tensor)),
                Err(_) => ledger.wire_errors += 1,
            }
        }
        if let Some(writer) = writer.as_deref_mut() {
            if (split.index + 1) % SPLITS_PER_WRITE == 0 {
                writer.write(ledger);
            }
        }
    }
    delivered
}
