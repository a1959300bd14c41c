//! The serving workloads: an in-process `ta_serve::Server` driven closed
//! loop by `ta_serve::Client` connections, every reply checked against an
//! in-process `exec::run` of the same input.

use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ta_approx::{NldeApprox, NlseApprox};
use ta_image::{synth, Image};
use ta_journal::FsyncPolicy;
use ta_serve::journal::{Completion, RequestKey};
use ta_serve::wire::{output_checksum, ArchSpec, Chaos, MODE_APPROX, MODE_EXACT};
use ta_serve::{
    Client, CompiledArch, DrainSummary, Request, Response, ServeConfig, ServeError, ServeJournal,
    Server, ServerHandle, Submit,
};
use ta_telemetry::TraceId;

use crate::layers::{Census, Snapshot};
use crate::trace::Spans;
use crate::{sys, Phase, Window};

/// How long a client waits for one reply before counting the frame as
/// failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Requests whose wire encoding and journal records are replayed per
/// traced run.
const REPLAYED_REQUESTS: usize = 256;

/// Length of one measurement window of a timed phase.
const WINDOW: Duration = Duration::from_secs(2);

/// Peak RSS is sampled once this many frames have been checked: the
/// journal's idempotency index gains an entry per request until drain, so
/// a sample after a fixed amount of work keeps memory from tracking
/// throughput.
pub const RSS_FRAMES: u64 = 8192;

/// In the traced phase every this-many submissions a Ping measures the
/// bare transport round trip under the same load.
const PING_EVERY: u64 = 8;

/// Concurrent closed-loop connections of every serve workload. With two
/// on a two-core host, two 150×150 frames executing at once slow each
/// other down: round trips split into two modes (about 11–12 ms and
/// 15–17 ms) and the median flips between them from run to run. On
/// `serve_small_mix` a single connection also keeps plan-cache order
/// following the draw sequence exactly.
pub const CONNECTIONS: usize = 1;

/// The traffic one serve workload sends.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Frame edge, pixels (frames are square).
    pub edge: u32,
    /// Whether the server journals (`FsyncPolicy::Batch`).
    pub journal: bool,
    /// The spec mix and each spec's relative weight.
    pub specs: Vec<(ArchSpec, f64)>,
    /// Distinct input frames drawn from.
    pub images: usize,
}

fn spec(kernel: &str, mode: u8, nlse_terms: u32, nlde_terms: u32) -> ArchSpec {
    ArchSpec {
        kernel: kernel.to_string(),
        mode,
        unit_ns: 1.0,
        nlse_terms,
        nlde_terms,
        fault_rate: 0.0,
    }
}

/// `serve_sobel150`: paper-sized 150×150 Sobel-pair frames in
/// `DelayApprox`, one spec.
pub fn sobel150() -> Shape {
    Shape {
        edge: 150,
        journal: false,
        specs: vec![(spec("sobel", MODE_APPROX, 7, 20), 1.0)],
        images: 8,
    }
}

/// `serve_small_mix`: 24×24 frames over twelve specs with Zipf(1)
/// popularity, three times the default plan cache of four, journal on.
/// The popularity ranks are fixed; the seed only drives
/// the draw sequence and the pixels, so seeds do not change the mix.
pub fn small_mix() -> Shape {
    let specs = [
        spec("sobel", MODE_APPROX, 7, 20),
        spec("box3", MODE_EXACT, 7, 20),
        spec("sharpen", MODE_APPROX, 7, 20),
        spec("laplacian", MODE_EXACT, 7, 20),
        spec("sobel", MODE_EXACT, 7, 20),
        spec("gauss", MODE_APPROX, 5, 10),
        spec("emboss", MODE_APPROX, 10, 20),
        spec("pyrdown", MODE_EXACT, 5, 10),
        spec("box3", MODE_APPROX, 5, 10),
        spec("sharpen", MODE_EXACT, 10, 20),
        spec("laplacian", MODE_APPROX, 5, 10),
        spec("emboss", MODE_EXACT, 7, 20),
    ];
    Shape {
        edge: 24,
        journal: true,
        specs: specs
            .into_iter()
            .enumerate()
            .map(|(rank, s)| (s, 1.0 / (rank + 1) as f64))
            .collect(),
        images: 16,
    }
}

/// One answered submission, kept for the post-phase replays.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// Request id (also its seed).
    pub id: u64,
    /// Index into the shape's specs.
    pub spec: usize,
    /// Index into the input frames.
    pub image: usize,
    /// Reply checksum.
    pub checksum: u64,
    /// Supervisor attempts the reply reports.
    pub attempts: u32,
}

/// What one driven phase produced.
#[derive(Debug)]
pub struct Driven {
    /// End-to-end tallies and round trips.
    pub phase: Phase,
    /// Ping round trips, ms (traced phases only).
    pub pings_ms: Vec<f64>,
    /// The first checked submissions of each connection, in send order.
    pub sent: Vec<Sent>,
    /// One span recorder per connection.
    pub spans: Vec<Spans>,
}

impl Driven {
    /// Adds `other`'s frames, pings and spans to this one.
    pub fn merge(&mut self, other: Driven) {
        self.phase.merge(&other.phase);
        self.pings_ms.extend(other.pings_ms);
        self.sent.extend(other.sent);
        self.spans.extend(other.spans);
    }
}

/// A running in-process server plus everything needed to drive and check
/// it.
pub struct Served {
    shape: Shape,
    seed: u64,
    images: Vec<Image>,
    /// `expected[spec][image]`: checksum of an in-process `exec::run`.
    expected: Vec<Vec<u64>>,
    addr: String,
    handle: ServerHandle,
    server: thread::JoinHandle<Result<DrainSummary, ServeError>>,
    dir: PathBuf,
    phases: u64,
    census: Census,
    checked: AtomicU64,
    rss_at_frames: OnceLock<f64>,
}

impl Served {
    /// Sets up and returns the server and the set-up time: the fits for
    /// every term count, one `CompiledArch::compile` per spec,
    /// `Server::bind`, and one warm request per spec. Input generation and
    /// the expected checksums are computed outside the timed set-up.
    ///
    /// # Errors
    ///
    /// A message when the server cannot be started or a warm request is
    /// not answered correctly.
    pub fn start(shape: Shape, seed: u64, spans: &mut Spans) -> Result<(Served, f64), String> {
        let edge = shape.edge as usize;
        let images: Vec<Image> = (0..shape.images as u64)
            .map(|i| synth::natural_image(edge, edge, seed ^ (i << 20)))
            .collect();

        let started = Instant::now();
        let root = spans.begin("setup", "perfbench", 0);
        let mut nlse: Vec<u32> = shape.specs.iter().map(|(s, _)| s.nlse_terms).collect();
        let mut nlde: Vec<u32> = shape.specs.iter().map(|(s, _)| s.nlde_terms).collect();
        nlse.sort_unstable();
        nlse.dedup();
        nlde.sort_unstable();
        nlde.dedup();
        for n in nlse {
            black_box(spans.time("approx.fit", "ta-approx", 0, || NlseApprox::fit(n as usize)));
        }
        for n in nlde {
            black_box(spans.time("approx.fit", "ta-approx", 0, || NldeApprox::fit(n as usize)));
        }
        let mut compiled = Vec::with_capacity(shape.specs.len());
        for (s, _) in &shape.specs {
            let c = spans.time("core.compile", "ta-core", 0, || {
                CompiledArch::compile(s, shape.edge, shape.edge)
            });
            compiled.push(c.map_err(|e| format!("spec {s:?}: {e}"))?);
        }
        let dir = crate::scratch_dir()?;
        let cfg = ServeConfig {
            tcp: Some("127.0.0.1:0".into()),
            journal: shape.journal.then(|| dir.join("serve.wal")),
            journal_fsync: FsyncPolicy::Batch,
            ..ServeConfig::default()
        };
        let server = match spans.time("serve.bind", "ta-serve", 0, || Server::bind(cfg)) {
            Ok(server) => server,
            Err(e) => {
                let _ = fs::remove_dir_all(&dir);
                return Err(format!("bind: {e}"));
            }
        };
        let addr = server
            .local_addr()
            .ok_or("server bound no TCP address")?
            .to_string();
        let handle = server.handle();
        let server = thread::spawn(move || server.run());
        let mut served = Served {
            shape,
            seed,
            images,
            expected: Vec::new(),
            addr,
            handle,
            server,
            dir,
            phases: 0,
            census: Census::default(),
            checked: AtomicU64::new(0),
            rss_at_frames: OnceLock::new(),
        };
        let warm = served.warm(spans);
        spans.end(root);
        let setup_s = started.elapsed().as_secs_f64();
        if let Err(e) = warm {
            let _ = served.stop();
            return Err(e);
        }

        // Expected outputs: the same compiled architecture run in-process,
        // which also gives the census of the workload's distinct frames.
        let before = Snapshot::take();
        match expected_checksums(&compiled, &served.images, spans) {
            Ok(expected) => served.expected = expected,
            Err(e) => {
                let _ = served.stop();
                return Err(e);
            }
        }
        served.census = Census::of(&Snapshot::take().since(&before));
        Ok((served, setup_s))
    }

    /// Peak RSS (MiB) once [`RSS_FRAMES`] frames were checked, or now if
    /// fewer were.
    pub fn peak_rss_mb(&self) -> f64 {
        self.rss_at_frames
            .get()
            .copied()
            .unwrap_or_else(sys::peak_rss_mb)
    }

    /// Simulated work per frame over the workload's distinct (spec,
    /// frame) pairs, run once each in a fixed order.
    pub fn census(&self) -> Census {
        self.census
    }

    fn submit(&self, id: u64, spec: usize, image: usize) -> Submit {
        Submit {
            id,
            spec: self.shape.specs[spec].0.clone(),
            seed: id,
            deadline_ms: 0,
            want_outputs: false,
            chaos: Chaos::None,
            width: self.shape.edge,
            height: self.shape.edge,
            pixels: self.images[image].pixels().to_vec(),
            trace: TraceId::ZERO,
        }
    }

    fn warm(&self, spans: &mut Spans) -> Result<(), String> {
        let mut client =
            Client::connect_tcp(&self.addr, "bench-warm").map_err(|e| format!("connect: {e}"))?;
        for s in 0..self.shape.specs.len() {
            let sub = self.submit(u64::MAX - s as u64, s, 0);
            let rsp = spans.time("serve.warm_submit", "ta-serve", sub.id, || {
                client.submit(sub)
            });
            match rsp {
                Ok(Response::Done {
                    degraded: false, ..
                }) => {}
                other => return Err(format!("warm request for spec {s}: {other:?}")),
            }
        }
        let _ = client.goodbye();
        Ok(())
    }

    /// Drives the server closed loop until `end`, one thread per
    /// connection, each sending its next frame only after the previous
    /// reply.
    pub fn drive(&mut self, end: Instant, trace: bool, epoch: Instant) -> Driven {
        self.phases += 1;
        let phase_no = self.phases;
        let started = Instant::now();
        let mut marks = vec![sys::mark(started)];
        let outs: Vec<ConnOut> = thread::scope(|scope| {
            let workers: Vec<_> = (0..CONNECTIONS)
                .map(|c| {
                    let this = &*self;
                    scope.spawn(move || this.connection(c, phase_no, started, end, trace, epoch))
                })
                .collect();
            let mut next = started + WINDOW;
            while next <= end {
                thread::sleep(next.saturating_duration_since(Instant::now()));
                marks.push(sys::mark(started));
                next += WINDOW;
            }
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let last = sys::mark(started);

        let mut driven = Driven {
            phase: Phase {
                wall_s: last.at_s,
                ..Phase::default()
            },
            pings_ms: Vec::new(),
            sent: Vec::new(),
            spans: Vec::new(),
        };
        // Full windows only: after the last boundary come just the replies
        // still in flight at the deadline. A phase shorter than one window
        // is one window.
        let single = marks.len() == 1;
        if single {
            marks.push(last);
        }
        let mut by_window: Vec<Vec<f64>> = vec![Vec::new(); marks.len() - 1];
        for o in outs {
            driven.phase.attempted += o.attempted;
            driven.phase.mismatched += o.mismatched;
            for (k, samples) in o.done.into_iter().enumerate() {
                driven.phase.ok += samples.len() as u64;
                driven.phase.latency_sum_ms += samples.iter().sum::<f64>();
                if let Some(window) = by_window.get_mut(if single { 0 } else { k }) {
                    window.extend(samples);
                }
            }
            driven.pings_ms.extend(o.pings_ms);
            driven.sent.extend(o.sent);
            driven.spans.push(o.spans);
        }
        for (pair, latencies_ms) in marks.windows(2).zip(by_window) {
            driven
                .phase
                .windows
                .push(Window::between(&pair[0], &pair[1], latencies_ms));
        }
        driven
    }

    fn connection(
        &self,
        c: usize,
        phase_no: u64,
        started: Instant,
        end: Instant,
        trace: bool,
        epoch: Instant,
    ) -> ConnOut {
        let mut out = ConnOut {
            attempted: 0,
            mismatched: 0,
            done: Vec::new(),
            pings_ms: Vec::new(),
            sent: Vec::new(),
            spans: Spans::new(trace, epoch, format!("conn-{c}-phase-{phase_no}")),
        };
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ ((phase_no << 8 | c as u64) * 0x9e37_79b9));
        let total: f64 = self.shape.specs.iter().map(|(_, w)| w).sum();
        let mut client = match Client::connect_tcp(&self.addr, &format!("bench-{c}")) {
            Ok(cl) => cl,
            Err(_) => {
                out.attempted = 1;
                return out;
            }
        };
        let _ = client.set_read_timeout(Some(REPLY_TIMEOUT));
        for k in 0u64.. {
            if Instant::now() >= end {
                break;
            }
            let mut u = rng.gen_range(0.0..total);
            let spec = self
                .shape
                .specs
                .iter()
                .position(|(_, w)| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(self.shape.specs.len() - 1);
            let image = rng.gen_range(0..self.images.len());
            let id = phase_no << 48 | (c as u64) << 40 | k;
            let sub = self.submit(id, spec, image);
            out.attempted += 1;
            let span = out.spans.begin("serve.submit", "ta-serve", id);
            let t0 = Instant::now();
            let rsp = client.submit(sub);
            let rtt = t0.elapsed();
            out.spans.end(span);
            match rsp {
                Ok(Response::Done {
                    degraded: false,
                    checksum,
                    attempts,
                    ..
                }) => {
                    if checksum == self.expected[spec][image] {
                        let k = (started.elapsed().as_secs_f64() / WINDOW.as_secs_f64()) as usize;
                        if out.done.len() <= k {
                            out.done.resize_with(k + 1, Vec::new);
                        }
                        out.done[k].push(rtt.as_secs_f64() * 1e3);
                        if self.checked.fetch_add(1, Ordering::Relaxed) + 1 == RSS_FRAMES {
                            let _ = self.rss_at_frames.set(sys::peak_rss_mb());
                        }
                        // Only the replays read these; keeping every one
                        // would grow the process's peak RSS with throughput.
                        if out.sent.len() < REPLAYED_REQUESTS {
                            out.sent.push(Sent {
                                id,
                                spec,
                                image,
                                checksum,
                                attempts,
                            });
                        }
                    } else {
                        out.mismatched += 1;
                    }
                }
                Ok(_) => {}
                Err(_) => break,
            }
            if trace && k % PING_EVERY == 0 {
                let span = out.spans.begin("serve.ping", "ta-serve", id);
                let t0 = Instant::now();
                let pong = client.call(&Request::Ping { nonce: id });
                let rtt = t0.elapsed();
                out.spans.end(span);
                if matches!(pong, Ok(Response::Pong { nonce }) if nonce == id) {
                    out.pings_ms.push(rtt.as_secs_f64() * 1e3);
                }
            }
        }
        let _ = client.goodbye();
        out
    }

    /// Replays the first answered requests through the wire codec and,
    /// when the workload journals, a scratch journal, timing each call
    /// under its own span. Returns the per-request means in µs: (request
    /// encode, request + response decode, response encode, journal
    /// accepted + completion — 0 without the journal).
    ///
    /// # Errors
    ///
    /// A message when a replayed message fails to round-trip or the
    /// scratch journal fails.
    pub fn replay(&self, sent: &[Sent], spans: &mut Spans) -> Result<[f64; 4], String> {
        let journal = if self.shape.journal {
            let (journal, _) = ServeJournal::open(&self.dir.join("replay.wal"), FsyncPolicy::Batch)
                .map_err(|e| format!("scratch journal: {e}"))?;
            Some(journal)
        } else {
            None
        };
        let n = sent.len().min(REPLAYED_REQUESTS);
        let mut sums = [0.0f64; 4];
        for s in &sent[..n] {
            let sub = self.submit(s.id, s.spec, s.image);
            let root = spans.begin("replay.request", "perfbench", s.id);
            let t = Instant::now();
            let bytes = spans.time("wire.request_encode", "ta-serve", s.id, || {
                Request::Submit(sub.clone()).encode()
            });
            let t1 = Instant::now();
            let decoded = spans.time("wire.request_decode", "ta-serve", s.id, || {
                Request::decode(&bytes)
            });
            let t2 = Instant::now();
            let rsp = Response::Done {
                id: s.id,
                degraded: false,
                fallback: String::new(),
                attempts: s.attempts,
                latency_us: 0,
                checksum: s.checksum,
                outputs: Vec::new(),
                trace: TraceId::ZERO,
            };
            let rbytes = spans.time("wire.response_encode", "ta-serve", s.id, || rsp.encode());
            let t3 = Instant::now();
            let rdecoded = spans.time("wire.response_decode", "ta-serve", s.id, || {
                Response::decode(&rbytes)
            });
            let t4 = Instant::now();
            let appended = journal.as_ref().map(|journal| {
                let key = RequestKey::of("bench-replay", &sub);
                let accepted = spans.time("journal.record_accepted", "ta-journal", s.id, || {
                    journal.record_accepted("bench-replay", &sub)
                });
                let completion = Completion {
                    key,
                    checksum: s.checksum,
                    degraded: false,
                    fallback: String::new(),
                    attempts: s.attempts,
                };
                let completed = spans.time("journal.record_completion", "ta-journal", s.id, || {
                    journal.record_completion(&completion)
                });
                accepted.and(completed)
            });
            let t5 = Instant::now();
            spans.end(root);
            if decoded.as_ref() != Ok(&Request::Submit(sub)) || rdecoded.as_ref() != Ok(&rsp) {
                return Err(format!(
                    "request {} does not round-trip the wire codec",
                    s.id
                ));
            }
            if let Some(Err(e)) = appended {
                return Err(format!("scratch journal append: {e}"));
            }
            let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
            sums[0] += us(t, t1);
            sums[1] += us(t1, t2) + us(t3, t4);
            sums[2] += us(t2, t3);
            if journal.is_some() {
                sums[3] += us(t4, t5);
            }
        }
        Ok(sums.map(|v| crate::layers::ratio(v, n as f64)))
    }

    /// Drains the server, waits for it to exit and removes its scratch
    /// directory.
    ///
    /// # Errors
    ///
    /// A message when the server did not drain cleanly.
    pub fn stop(self) -> Result<DrainSummary, String> {
        self.handle.begin_drain();
        let summary = self.server.join().map_err(|_| "server thread panicked")?;
        let _ = fs::remove_dir_all(&self.dir);
        summary.map_err(|e| format!("server: {e}"))
    }
}

fn expected_checksums(
    compiled: &[CompiledArch],
    images: &[Image],
    spans: &mut Spans,
) -> Result<Vec<Vec<u64>>, String> {
    let mut expected = Vec::with_capacity(compiled.len());
    for (s, c) in compiled.iter().enumerate() {
        let mut row = Vec::with_capacity(images.len());
        for (i, img) in images.iter().enumerate() {
            let run = spans.time("check.exec_run", "ta-core", 0, || {
                ta_core::exec::run(&c.arch, img, c.mode, 0)
            });
            let run = run.map_err(|e| format!("spec {s} image {i}: {e}"))?;
            row.push(output_checksum(run.outputs.iter().map(Image::pixels)));
        }
        expected.push(row);
    }
    Ok(expected)
}

struct ConnOut {
    attempted: u64,
    mismatched: u64,
    /// Round trips (ms) of the checked frames, by the window they
    /// completed in.
    done: Vec<Vec<f64>>,
    pings_ms: Vec<f64>,
    sent: Vec<Sent>,
    spans: Spans,
}
