//! `serve`: a closed loop over a Unix socket against a 4-shard
//! `CappingService` holding 64 tenants.
//!
//! Set-up trains the engine, synthesises [`POOL`] fault-free traces,
//! binds the socket and admits every tenant in order, so grants are
//! deterministic. In the measured phase one connection per core
//! replays its share of the tenants round by round: a tenant's next
//! Submit goes out only after its previous Reply came back. Tenants
//! share the traces round-robin and walk them back and forth, so any
//! number of rounds replays continuous measurements.
//!
//! The first [`CHECKED_ROUNDS`] rounds of every tenant's replies form
//! its transcript. The same frames are then fed in process to a second
//! identical service through `handle_frame`, and in a traced run also
//! to a third through `decode_frame` → `submit` → `encode_frame`; the
//! transcripts must all be equal, and at the pinned seed equal to the
//! pinned digest.
//!
//! Each set-up, and each round of a client or of an in-process pass,
//! is a window of [`crate::host`]'s calibration: its times are scaled
//! to the nominal host speed.

use crate::check::{Fnv, Pins};
use crate::host::Probe;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::stats::{Samples, SERIES_CAPACITY};
use crate::Opts;
use ppep_core::Ppep;
use ppep_experiments::common::{Context, Scale};
use ppep_serve::loadgen::synthesize_trace;
use ppep_serve::{
    CappingService, FrameConn, ServeAddr, ServeConfig, ServeListener, ServerHandle, TransportKind,
};
use ppep_telemetry::session::{decode_frame, encode_frame, frame_to_bytes, SessionFrame};
use ppep_telemetry::trace::TraceEvent;
use ppep_telemetry::IntervalRecord;
use ppep_types::time::IntervalIndex;
use ppep_types::{Error, Result, Topology, Watts};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenants hosted.
const TENANTS: u64 = 64;

/// Service shards.
const SHARDS: u32 = 4;

/// Distinct synthesised traces, shared round-robin.
const POOL: u64 = 8;

/// Intervals per synthesised trace.
const TRACE_LEN: u64 = 128;

/// Rounds whose replies are compared across transports.
const CHECKED_ROUNDS: u64 = 100;

/// Each tenant's requested cap; the socket budget is their sum, so
/// every tenant is granted what it asks.
const REQUESTED_CAP_W: f64 = 60.0;

/// Set-ups timed for `setup_s`.
const SETUP_REPS: usize = 9;

/// Where the socket is bound, relative to the working directory.
const SOCKET_DIR: &str = "perfbench/.sock";

fn config() -> ServeConfig {
    let mut c = ServeConfig::new(Watts::new(REQUESTED_CAP_W * TENANTS as f64));
    c.max_sessions = TENANTS as u32;
    c.shards = SHARDS;
    c
}

fn hello(tenant: u64) -> Vec<u8> {
    frame_to_bytes(&SessionFrame::Hello {
        tenant,
        requested_cap: Watts::new(REQUESTED_CAP_W),
    })
}

/// The Submit of `tenant` in `round`: its trace walked back and forth,
/// re-indexed to the round.
fn submit(pool: &[Vec<IntervalRecord>], tenant: u64, round: u64) -> SessionFrame {
    let trace = &pool[(tenant % pool.len() as u64) as usize];
    let period = (2 * trace.len() as u64 - 2).max(1);
    let k = round % period;
    let at = if k < trace.len() as u64 {
        k
    } else {
        period - k
    };
    let mut record = trace[at as usize].clone();
    record.index = IntervalIndex(round);
    SessionFrame::Submit {
        tenant,
        record: Box::new(record),
    }
}

/// What set-up builds besides the running server.
struct Stack {
    ppep: Ppep,
    topology: Topology,
    pool: Vec<Vec<IntervalRecord>>,
    admit: Samples,
    rejects: u64,
    train: Duration,
}

fn setup(seed: u64) -> Result<(Stack, ServerHandle)> {
    let ctx = Context::fx8320(Scale::Full, seed);
    let start = Instant::now();
    let models = ctx.train_models()?;
    let train = start.elapsed();
    let ppep = ctx.engine(models);
    let pool = (0..POOL)
        .map(|i| {
            synthesize_trace(TRACE_LEN, seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .into_iter()
                .map(|event| match event {
                    TraceEvent::Interval(record) => Ok(record),
                    other => Err(Error::InvalidInput(format!(
                        "synthesised trace is not fault-free: {other:?}"
                    ))),
                })
                .collect::<Result<Vec<_>>>()
        })
        .collect::<Result<Vec<_>>>()?;
    let service = Arc::new(CappingService::new(ppep.clone(), config()));
    let server = ServeListener::bind(TransportKind::Unix)?.spawn(Arc::clone(&service));
    let mut admit = Samples::with_capacity(TENANTS as usize);
    let mut rejects = 0;
    let mut conn = FrameConn::connect(server.addr())?;
    for tenant in 0..TENANTS {
        let bytes = hello(tenant);
        let reply = admit.time(|| conn.roundtrip(&bytes))?;
        match decode_frame(&reply, service.topology())?.0 {
            SessionFrame::Welcome { .. } => {}
            SessionFrame::Reject { .. } => rejects += 1,
            other => {
                return Err(Error::InvalidInput(format!(
                    "unexpected admission reply {other:?}"
                )))
            }
        }
    }
    let stack = Stack {
        ppep,
        topology: service.topology().clone(),
        pool,
        admit,
        rejects,
        train,
    };
    Ok((stack, server))
}

/// One client connection's view of the measured phase.
struct Client {
    rtt: Samples,
    encode: Samples,
    decode: Samples,
    frames: u64,
    frame_bytes: u64,
    replies: u64,
    evictions: u64,
    errors: u64,
    transcripts: Vec<(u64, Vec<u8>)>,
    /// Scaled time spent in rounds.
    busy: Duration,
    probe_us: Vec<f64>,
}

/// Replays `tenants` over one connection, round by round, until the
/// checked rounds are done and `seconds` have passed. A transport
/// error ends the connection; every failure is counted.
fn client(
    addr: &ServeAddr,
    tenants: &[u64],
    pool: &[Vec<IntervalRecord>],
    topology: &Topology,
    seconds: f64,
    traced: bool,
    capacity: usize,
) -> Client {
    let layer_capacity = if traced { capacity } else { 0 };
    let mut c = Client {
        rtt: Samples::with_capacity(capacity),
        encode: Samples::with_capacity(layer_capacity),
        decode: Samples::with_capacity(layer_capacity),
        frames: 0,
        frame_bytes: 0,
        replies: 0,
        evictions: 0,
        errors: 0,
        transcripts: tenants.iter().map(|&t| (t, Vec::new())).collect(),
        busy: Duration::ZERO,
        probe_us: Vec::new(),
    };
    let Ok(mut conn) = FrameConn::connect(addr) else {
        c.errors += 1;
        return c;
    };
    let mut probe = Probe::new();
    let mut live = vec![true; tenants.len()];
    let start = Instant::now();
    let mut round = 0;
    while round < CHECKED_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let marks = [c.rtt.len(), c.encode.len(), c.decode.len()];
        let round_start = Instant::now();
        for (slot, &tenant) in tenants.iter().enumerate() {
            if !live[slot] {
                continue;
            }
            let frame = submit(pool, tenant, round);
            let bytes = if traced {
                c.encode.time(|| frame_to_bytes(&frame))
            } else {
                frame_to_bytes(&frame)
            };
            c.frames += 1;
            c.frame_bytes += bytes.len() as u64;
            let sent = Instant::now();
            let Ok(reply) = conn.roundtrip(&bytes) else {
                c.errors += 1;
                c.probe_us = probe.readings_us();
                return c;
            };
            c.rtt.push(sent.elapsed());
            let decoded = if traced {
                c.decode.time(|| decode_frame(&reply, topology))
            } else {
                decode_frame(&reply, topology)
            };
            match decoded {
                Ok((SessionFrame::Reply { .. }, _)) => c.replies += 1,
                Ok((SessionFrame::Evicted { .. }, _)) => {
                    c.evictions += 1;
                    live[slot] = false;
                }
                _ => c.errors += 1,
            }
            if round < CHECKED_ROUNDS {
                c.transcripts[slot].1.extend_from_slice(&reply);
            }
        }
        let elapsed = round_start.elapsed();
        let scale = probe.close_window();
        for (series, mark) in [&mut c.rtt, &mut c.encode, &mut c.decode]
            .into_iter()
            .zip(marks)
        {
            series.scale_since(mark, scale);
        }
        c.busy += elapsed.mul_f64(scale);
        round += 1;
        if !live.contains(&true) {
            break;
        }
    }
    c.probe_us = probe.readings_us();
    c
}

/// A fresh service identical to the served one, tenants admitted in
/// the same order through `handle_frame`.
fn local_service(stack: &Stack) -> Result<CappingService> {
    let service = CappingService::new(stack.ppep.clone(), config());
    for tenant in 0..TENANTS {
        let (reply, _) = service.handle_frame(&hello(tenant))?;
        if !matches!(
            decode_frame(&reply, service.topology())?.0,
            SessionFrame::Welcome { .. }
        ) {
            return Err(Error::InvalidInput(format!(
                "in-process admission of tenant {tenant} refused"
            )));
        }
    }
    Ok(service)
}

/// Per-call timings of the in-process passes.
struct Layers {
    handle: Samples,
    decode: Samples,
    step: Samples,
    encode: Samples,
}

/// The checked rounds through `handle_frame`.
fn handle_pass(stack: &Stack, probe: &mut Probe, handle: &mut Samples) -> Result<Vec<Vec<u8>>> {
    let service = local_service(stack)?;
    let mut transcripts = vec![Vec::new(); TENANTS as usize];
    for round in 0..CHECKED_ROUNDS {
        let mark = handle.len();
        for tenant in 0..TENANTS {
            let bytes = frame_to_bytes(&submit(&stack.pool, tenant, round));
            let (reply, _) = handle.time(|| service.handle_frame(&bytes))?;
            transcripts[tenant as usize].extend_from_slice(&reply);
        }
        handle.scale_since(mark, probe.close_window());
    }
    Ok(transcripts)
}

/// The checked rounds through `decode_frame` → `submit` →
/// `encode_frame`, each call timed.
fn layered_pass(stack: &Stack, probe: &mut Probe, layers: &mut Layers) -> Result<Vec<Vec<u8>>> {
    let service = local_service(stack)?;
    let topology = service.topology().clone();
    let mut transcripts = vec![Vec::new(); TENANTS as usize];
    for round in 0..CHECKED_ROUNDS {
        let marks = [layers.decode.len(), layers.step.len(), layers.encode.len()];
        for tenant in 0..TENANTS {
            let bytes = frame_to_bytes(&submit(&stack.pool, tenant, round));
            let (frame, _) = layers.decode.time(|| decode_frame(&bytes, &topology))?;
            let SessionFrame::Submit { tenant, record } = frame else {
                return Err(Error::InvalidInput(
                    "Submit decoded as another frame".into(),
                ));
            };
            let reply = layers.step.time(|| service.submit(tenant, *record))?;
            let out = &mut transcripts[tenant as usize];
            layers.encode.time(|| encode_frame(&reply, out));
        }
        let scale = probe.close_window();
        for (series, mark) in [&mut layers.decode, &mut layers.step, &mut layers.encode]
            .into_iter()
            .zip(marks)
        {
            series.scale_since(mark, scale);
        }
    }
    Ok(transcripts)
}

fn digest<'a>(transcripts: impl IntoIterator<Item = (u64, &'a [u8])>) -> u64 {
    let mut h = Fnv::new();
    for (tenant, bytes) in transcripts {
        h.u64(tenant);
        h.bytes(bytes);
    }
    h.finish()
}

/// Mean absolute error of the chip power the engine models at each
/// replayed record's own VF state, as a fraction.
fn power_err(stack: &Stack) -> Result<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for record in stack.pool.iter().flatten() {
        let projection = stack.ppep.project(record)?;
        let modelled = stack
            .ppep
            .chip_power_with_assignment(&projection, &projection.source_vf)?;
        let measured = record.measured_power.as_watts();
        sum += (modelled.as_watts() - measured).abs() / measured;
        n += 1;
    }
    Ok(sum / n.max(1) as f64)
}

/// Runs the workload.
pub fn run(opts: &Opts, pins: &Pins) -> std::result::Result<Outcome, Box<dyn std::error::Error>> {
    // Bind the socket inside the working tree, by a short relative path.
    std::fs::create_dir_all(SOCKET_DIR)?;
    std::env::set_var("TMPDIR", SOCKET_DIR);
    let result = measure(opts, pins);
    let _ = std::fs::remove_dir(SOCKET_DIR);
    Ok(result?)
}

fn measure(opts: &Opts, pins: &Pins) -> Result<Outcome> {
    let mut out = Outcome::default();
    let mut setup_time = Samples::with_capacity(SETUP_REPS);
    let mut train = Samples::with_capacity(SETUP_REPS);
    let mut built: Option<(Stack, ServerHandle)> = None;
    let mut probe = Probe::new();
    for _ in 0..SETUP_REPS {
        if let Some((_, old)) = built.take() {
            old.shutdown();
        }
        let start = Instant::now();
        let (mut stack, server) = setup(opts.seed)?;
        let elapsed = start.elapsed();
        let scale = probe.close_window();
        setup_time.push(elapsed.mul_f64(scale));
        train.push(stack.train.mul_f64(scale));
        stack.admit.scale_since(0, scale);
        built = Some((stack, server));
    }
    let (stack, server) = built.expect("SETUP_REPS > 0");

    // Measured phase: one connection per core, each owning every
    // `conns`-th tenant.
    let conns = 2.min(crate::nproc()) as u64;
    let capacity = SERIES_CAPACITY / conns as usize;
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (stack, addr) = (&stack, server.addr());
                scope.spawn(move || {
                    let tenants: Vec<u64> = (0..TENANTS).filter(|t| t % conns == c).collect();
                    client(
                        addr,
                        &tenants,
                        &stack.pool,
                        &stack.topology,
                        opts.seconds,
                        opts.traced,
                        capacity,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| Error::InvalidInput("client thread panicked".into()))
            })
            .collect::<Result<Vec<_>>>()
    });
    server.shutdown();
    let clients = clients?;
    // Read before the samples are merged and sorted, so the harness's
    // post-processing, which grows with the frames completed, is left out.
    let peak_rss = peak_rss_mb().map_err(Error::InvalidInput)?;

    let mut socket: Vec<(u64, Vec<u8>)> = Vec::with_capacity(TENANTS as usize);
    let (mut frames, mut replies, mut evictions, mut errors, mut frame_bytes) = (0, 0, 0, 0, 0);
    let (mut rtt, mut rtt_series) = (Vec::new(), Vec::new());
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    let (mut throughput, mut probe_us) = (0.0, Vec::new());
    for c in clients {
        throughput += c.replies as f64 / c.busy.as_secs_f64().max(f64::MIN_POSITIVE);
        probe_us.extend(c.probe_us);
        c.rtt.warn_if_full("round trip");
        frames += c.frames;
        replies += c.replies;
        evictions += c.evictions;
        errors += c.errors;
        frame_bytes += c.frame_bytes;
        rtt.extend(c.rtt.sorted_us());
        rtt_series.push(c.rtt.in_order_us());
        encode.extend(c.encode.sorted_us());
        decode.extend(c.decode.sorted_us());
        socket.extend(c.transcripts);
    }
    for v in [&mut rtt, &mut encode, &mut decode, &mut probe_us] {
        v.sort_by(f64::total_cmp);
    }
    socket.sort_by_key(|(tenant, _)| *tenant);
    let socket_digest = digest(socket.iter().map(|(t, b)| (*t, b.as_slice())));
    out.attempted = TENANTS + frames;
    out.failed = stack.rejects + evictions + errors;

    // Invariance on every seed: the same frames in process give the
    // same replies.
    let mut handle = Samples::with_capacity((CHECKED_ROUNDS * TENANTS) as usize);
    let local = handle_pass(&stack, &mut probe, &mut handle)?;
    let local_digest = digest((0..TENANTS).zip(local.iter().map(Vec::as_slice)));
    out.checks.same(
        "socket vs handle_frame transcripts",
        socket_digest,
        local_digest,
    );
    out.checks
        .pinned("serve transcripts", opts.seed, socket_digest, pins.serve);
    crate::host::report(&probe_us);
    eprintln!(
        "serve: {conns} connections, {frames} frames, transcript digest {socket_digest:016x}"
    );

    if opts.traced {
        let n = (CHECKED_ROUNDS * TENANTS) as usize;
        let mut layers = Layers {
            handle,
            decode: Samples::with_capacity(n),
            step: Samples::with_capacity(n),
            encode: Samples::with_capacity(n),
        };
        let layered = layered_pass(&stack, &mut probe, &mut layers)?;
        let layered_digest = digest((0..TENANTS).zip(layered.iter().map(Vec::as_slice)));
        out.checks.same(
            "socket vs decode/submit/encode transcripts",
            socket_digest,
            layered_digest,
        );
        out.set("traced.throughput_per_s", throughput);
        out.set_layer("host.probe_us_p50", None, &probe_us);
        out.set_median("rig.train_s", &train.sorted_s());
        out.set_layer("telemetry.submit_encode_us_p50", None, &encode);
        out.set_layer(
            "telemetry.submit_decode_us_p50",
            Some("telemetry.submit_decode_us_p99"),
            &layers.decode.sorted_us(),
        );
        out.set_layer(
            "telemetry.reply_encode_us_p50",
            None,
            &layers.encode.sorted_us(),
        );
        out.set_layer("telemetry.reply_decode_us_p50", None, &decode);
        out.set(
            "telemetry.submit_frame_bytes",
            frame_bytes as f64 / frames.max(1) as f64,
        );
        out.set_layer("serve.admit_us_p50", None, &stack.admit.sorted_us());
        out.set_layer(
            "serve.step_us_p50",
            Some("serve.step_us_p99"),
            &layers.step.sorted_us(),
        );
        let handle = layers.handle.sorted_us();
        out.set_layer("serve.handle_us_p50", Some("serve.handle_us_p99"), &handle);
        if let (Some(socket_p50), Some(handle_p50)) =
            (crate::stats::median(&rtt), crate::stats::median(&handle))
        {
            out.set("serve.transport_us_p50", socket_p50 - handle_p50);
        }
        out.set("serve.frames", frames as f64);
        out.set("serve.replies", replies as f64);
        out.set("serve.evictions", evictions as f64);
        out.set("serve.rejects", stack.rejects as f64);
        out.set("serve.errors", errors as f64);
        out.set("serve.power_err_pct", 100.0 * power_err(&stack)?);
    } else {
        out.set_median("setup_s", &setup_time.sorted_s());
        out.set("peak_rss_mb", peak_rss);
        out.set("throughput_per_s", throughput);
        out.set_timing("latency_us_p50", "latency_us_tail", &rtt_series);
        out.set(
            "completed_pct",
            100.0 * replies as f64 / frames.max(1) as f64,
        );
    }
    Ok(out)
}
