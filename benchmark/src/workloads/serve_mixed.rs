//! `serve_mixed` — TCP reads beside appends on one live store.
//!
//! The only workload through `serve` (protocol, gate, pin, cache, TCP)
//! and the only one with writes beside reads on one store. Two closed-
//! loop TCP clients work in barriered epochs. In the first half of an
//! epoch the writer sends one `Append` of 256 raw events (and a
//! `Compact` in a slice's last epoch) while the reader sends 8 cold
//! windows that never repeat; in the second half the reader goes four
//! times round a hot set of 8 cacheable commands. Each commit
//! invalidates the hot set once, and because the halves are barriered
//! that is exactly 8 misses and 24 hits an epoch, run after run — so a
//! read-path gain that slows commits, or the reverse, shows. Reads cover
//! the pre-seeded time range only, appends land after it, so every
//! answer is independent of the generation that served it.
//! op = read round trip, alt = the write half of an epoch (the append
//! beside the cold reads, barrier to barrier), work = requests.

use crate::calib::Calibrator;
use crate::gen::{self, Rng, DAY_MS, HOUR_MS};
use crate::harness::{
    common_layers, counted, end_to_end, peak_rss_mb, traced_rounds, Checks, Counted, Env, Samples,
};
use crate::meter_fs::as_shared;
use crate::paths::dir_bytes;
use crate::report::{Outcome, Values};
use crate::stats::{median, percentile};
use iri_bgp::types::{Asn, Prefix};
use iri_core::taxonomy::UpdateClass;
use iri_obs::{Cause, PlanTrace};
use iri_serve::{
    Client, Command, Filter, Reply, Response, ServeCore, ServeOptions, Server, TopRow, WireEvent,
};
use iri_store::{LiveOptions, LiveStore, Query, StoredEvent, DEFAULT_SEGMENT_ROWS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Events seeded into the live store, spread evenly over one day.
const SEEDED: u64 = 100_000;
const BIN_MS: u64 = 60_000;
const TOP: u64 = 10;
/// Raw events per `Append`.
const APPEND_EVENTS: usize = 256;
/// Epochs per slice; the last one also compacts.
const EPOCHS: usize = 4;
const HOT_SET: usize = 8;
const HOT_ROUNDS: usize = 4;
const COLD_READS: usize = 8;
/// One slice plus its kernel, on the reference box.
const NOMINAL_ROUND_S: f64 = 0.6;
const MIN_ROUNDS: usize = 10;

/// What a read reply must carry, whatever generation served it.
#[derive(Debug, Clone, PartialEq)]
enum Payload {
    Counts(Vec<u64>),
    Top(Vec<TopRow>),
    Bytes(u64),
    Series(Vec<u64>),
    Other,
}

fn payload(resp: &Response) -> Payload {
    match resp {
        Response::Counts { counts, .. } => Payload::Counts(counts.clone()),
        Response::Top { rows, .. } => Payload::Top(rows.clone()),
        Response::Bytes { total, .. } => Payload::Bytes(*total),
        Response::Series { bins, .. } => Payload::Series(bins.clone()),
        _ => Payload::Other,
    }
}

fn top<K: Ord + Copy + ToString>(counts: BTreeMap<K, u64>) -> Payload {
    let mut v: Vec<(K, u64)> = counts.into_iter().collect();
    v.sort_by_key(|&(k, n)| (std::cmp::Reverse(n), k));
    Payload::Top(
        v.into_iter()
            .take(TOP as usize)
            .map(|(k, count)| TopRow {
                key: k.to_string(),
                count,
            })
            .collect(),
    )
}

/// The reference computation for one read command: a plain pass over
/// the seeded rows.
fn oracle(rows: &[StoredEvent], cmd: &Command) -> Payload {
    let filter = match cmd {
        Command::CountByClass { filter }
        | Command::CountByCause { filter }
        | Command::TopPeers { filter, .. }
        | Command::TopPrefixes { filter, .. }
        | Command::Bytes { filter }
        | Command::Series { filter, .. } => filter,
        _ => return Payload::Other,
    };
    let q = filter.to_query().expect("benchmark filters parse");
    let matching = gen::matching(rows, &q);
    match cmd {
        Command::CountByClass { .. } => {
            let mut c = [0u64; UpdateClass::COUNT];
            matching.for_each(|r| c[r.class.index()] += 1);
            Payload::Counts(UpdateClass::ALL.iter().map(|k| c[k.index()]).collect())
        }
        Command::CountByCause { .. } => {
            let mut c = [0u64; Cause::COUNT];
            matching.for_each(|r| c[r.cause.index()] += 1);
            Payload::Counts(Cause::ALL.iter().map(|k| c[k.index()]).collect())
        }
        Command::TopPeers { .. } => {
            let mut m: BTreeMap<Asn, u64> = BTreeMap::new();
            matching.for_each(|r| *m.entry(r.peer.asn).or_insert(0) += 1);
            top(m)
        }
        Command::TopPrefixes { .. } => {
            let mut m: BTreeMap<Prefix, u64> = BTreeMap::new();
            matching.for_each(|r| *m.entry(r.prefix).or_insert(0) += 1);
            top(m)
        }
        Command::Bytes { .. } => Payload::Bytes(matching.map(|r| u64::from(r.size)).sum()),
        Command::Series { .. } => {
            let mut bins = vec![0u64; (q.to_ms - q.from_ms).div_ceil(BIN_MS) as usize];
            matching.for_each(|r| bins[((r.time_ms - q.from_ms) / BIN_MS) as usize] += 1);
            Payload::Series(bins)
        }
        _ => Payload::Other,
    }
}

/// Read command `kind` (0..8) over `[from, from + len)`.
fn read_command(kind: usize, from: u64, len: u64, rng: &mut Rng) -> Command {
    let window = Query::default().time_range_ms(from, from + len);
    let f = |q: &Query| Filter::from_query(q);
    match kind % 8 {
        0 => Command::CountByClass { filter: f(&window) },
        1 => Command::TopPeers {
            filter: f(&window),
            limit: TOP,
        },
        2 => Command::Bytes { filter: f(&window) },
        3 => Command::Series {
            filter: f(&window),
            bin_ms: BIN_MS,
        },
        4 => Command::CountByCause { filter: f(&window) },
        5 => Command::TopPrefixes {
            filter: f(&window),
            limit: TOP,
        },
        6 => Command::CountByClass {
            filter: f(&window.peer(gen::peer(rng.below(gen::PEERS)).asn)),
        },
        _ => Command::Bytes {
            filter: f(&window.class(UpdateClass::AaDup)),
        },
    }
}

/// One read to send and the payload its reply must carry.
struct Read {
    cmd: Command,
    want: Payload,
}

/// What one request's reply told the reader thread.
struct ReadSample {
    started: Instant,
    ended: Instant,
    plan: Option<PlanTrace>,
}

/// What the two client threads bring back from one slice.
#[derive(Default)]
struct SliceOut {
    reads: Vec<ReadSample>,
    appends_s: Vec<f64>,
    /// Per epoch: the reader's cold half, its hot half, and the writer's
    /// half (append, and compact where there is one), in seconds.
    cold_s: Vec<f64>,
    hot_s: Vec<f64>,
    write_s: Vec<f64>,
    requests: u64,
    busy: u64,
    checks: Checks,
}

/// The fixture: a seeded live store behind a TCP server, two connected
/// clients, the hot set, and the generators for cold reads and appends.
struct Fixture {
    dir: PathBuf,
    server: Option<Server>,
    core: Arc<ServeCore>,
    reader: Client,
    writer: Client,
    rows: Vec<StoredEvent>,
    hot: Vec<Read>,
    cold_rng: Rng,
    append_rng: Rng,
    appended: u64,
    last_generation: u64,
}

impl Fixture {
    fn build(env: &mut Env, name: &str) -> Fixture {
        let n = env.sized(SEEDED);
        let dir = env.scratch.path(name);
        let rows = gen::day_store(env.seed, 5, n, &dir, as_shared(&env.fs));
        let live = LiveStore::open_with(
            &dir,
            &LiveOptions {
                fs: as_shared(&env.fs),
                jobs: 1,
                ..LiveOptions::default()
            },
        )
        .expect("open the seeded store");
        let core = Arc::new(ServeCore::new(live, &ServeOptions::default()));
        let server = Server::bind(Arc::clone(&core), "127.0.0.1:0").expect("bind a loopback port");
        let addr = server.local_addr().to_string();
        let reader = Client::connect(&addr).expect("reader connects");
        let writer = Client::connect(&addr).expect("writer connects");

        let mut rng = Rng::new(env.seed, 6);
        let hot = (0..HOT_SET)
            .map(|kind| {
                let from = HOUR_MS + rng.below(DAY_MS - 2 * HOUR_MS);
                let cmd = read_command(kind, from, 2 * HOUR_MS, &mut rng);
                let want = oracle(&rows, &cmd);
                Read { cmd, want }
            })
            .collect();
        let mut fixture = Fixture {
            dir,
            server: Some(server),
            core,
            reader,
            writer,
            rows,
            hot,
            cold_rng: Rng::new(env.seed, 7),
            append_rng: Rng::new(env.seed, 8),
            appended: 0,
            last_generation: 0,
        };
        let warm = fixture.slice();
        env.checks.absorb(warm.checks);
        fixture
    }

    /// The next slice's cold reads, with their reference answers. They
    /// never repeat: the window start is drawn to the millisecond.
    fn prepare_cold(&mut self) -> Vec<Vec<Read>> {
        (0..EPOCHS)
            .map(|_| {
                (0..COLD_READS)
                    .map(|kind| {
                        let from = HOUR_MS + self.cold_rng.below(DAY_MS - HOUR_MS);
                        let cmd = read_command(kind, from, HOUR_MS, &mut self.cold_rng);
                        let want = oracle(&self.rows, &cmd);
                        Read { cmd, want }
                    })
                    .collect()
            })
            .collect()
    }

    /// The next slice's append batches: raw events after the seeded day,
    /// one a millisecond.
    fn prepare_appends(&mut self) -> Vec<Vec<WireEvent>> {
        (0..EPOCHS)
            .map(|_| {
                (0..APPEND_EVENTS)
                    .map(|_| {
                        let t = HOUR_MS + DAY_MS + self.appended;
                        self.appended += 1;
                        let p = gen::peer(self.append_rng.below(gen::PEERS));
                        let prefix = gen::prefix(self.append_rng.below(gen::PREFIXES)).to_string();
                        let addr = p.addr.to_string();
                        if self.append_rng.chance(40) {
                            WireEvent::withdraw(t, p.asn.0, &addr, &prefix)
                        } else {
                            let hop = 65_000 + self.append_rng.below(2) as u32;
                            WireEvent::announce(t, p.asn.0, &addr, &prefix)
                                .with_path(&[p.asn.0, hop])
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// One slice, inputs and all (warm-up and counted rounds; the timed
    /// rounds prepare the inputs before their clock starts).
    fn slice(&mut self) -> SliceOut {
        let (cold, appends) = (self.prepare_cold(), self.prepare_appends());
        self.run(cold, appends)
    }

    /// One slice of `EPOCHS` barriered epochs on the two clients.
    fn run(&mut self, cold: Vec<Vec<Read>>, appends: Vec<Vec<WireEvent>>) -> SliceOut {
        let hot = &self.hot;
        let barrier = Barrier::new(2);
        let (reader, writer) = (&mut self.reader, &mut self.writer);
        let mut generation = self.last_generation;

        let (read_side, write_side) = std::thread::scope(|scope| {
            let barrier = &barrier;
            let reads = scope.spawn(move || {
                let mut out = SliceOut::default();
                let mut send = |read: &Read, out: &mut SliceOut| {
                    let started = Instant::now();
                    let reply = reader.request(read.cmd.clone());
                    let ended = Instant::now();
                    out.requests += 1;
                    let ok = match &reply {
                        Ok(Reply { resp, .. }) => {
                            out.busy += u64::from(matches!(resp, Response::Busy { .. }));
                            payload(resp) == read.want
                        }
                        Err(_) => false,
                    };
                    out.checks
                        .check(ok, || format!("{:?} answered {reply:?}", read.cmd));
                    out.reads.push(ReadSample {
                        started,
                        ended,
                        plan: reply.ok().and_then(|r| r.plan),
                    });
                };
                for epoch_cold in &cold {
                    let started = Instant::now();
                    for read in epoch_cold {
                        send(read, &mut out);
                    }
                    out.cold_s.push(started.elapsed().as_secs_f64());
                    barrier.wait();
                    let started = Instant::now();
                    for _ in 0..HOT_ROUNDS {
                        for read in hot {
                            send(read, &mut out);
                        }
                    }
                    out.hot_s.push(started.elapsed().as_secs_f64());
                    barrier.wait();
                }
                out
            });
            let writes = scope.spawn(move || {
                let mut out = SliceOut::default();
                let last = appends.len() - 1;
                for (epoch, events) in appends.into_iter().enumerate() {
                    let started = Instant::now();
                    let reply = writer.request(Command::Append { events });
                    out.appends_s.push(started.elapsed().as_secs_f64());
                    out.requests += 1;
                    let ok = match &reply {
                        Ok(Reply {
                            resp:
                                Response::Appended {
                                    generation: g,
                                    events,
                                },
                            ..
                        }) => {
                            let fresh = *g > generation;
                            generation = *g;
                            fresh && *events == APPEND_EVENTS as u64
                        }
                        _ => false,
                    };
                    out.checks
                        .check(ok, || format!("append answered {reply:?}"));
                    if epoch == last {
                        let reply = writer.request(Command::Compact { target_rows: None });
                        out.requests += 1;
                        let ok = match &reply {
                            Ok(Reply {
                                resp: Response::Compacted { generation: g, .. },
                                ..
                            }) => {
                                let fresh = *g > generation;
                                generation = *g;
                                fresh
                            }
                            _ => false,
                        };
                        out.checks
                            .check(ok, || format!("compact answered {reply:?}"));
                    }
                    out.write_s.push(started.elapsed().as_secs_f64());
                    barrier.wait();
                    barrier.wait();
                }
                (out, generation)
            });
            (
                reads.join().expect("reader thread"),
                writes.join().expect("writer thread"),
            )
        });
        let (write_out, generation) = write_side;
        self.last_generation = generation;
        let mut out = read_side;
        out.appends_s = write_out.appends_s;
        out.write_s = write_out.write_s;
        out.requests += write_out.requests;
        out.checks.absorb(write_out.checks);
        out
    }

    fn rounds(
        &mut self,
        env: &mut Env,
        cal: &mut Calibrator,
        rounds: usize,
        samples: &mut Samples,
    ) -> Vec<(SliceOut, f64)> {
        let mut outs = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let (cold, appends) = (self.prepare_cold(), self.prepare_appends());
            let (mut out, t) = cal.timed(|| self.run(cold, appends));
            let reads: Vec<f64> = out
                .reads
                .iter()
                .map(|r| (r.ended - r.started).as_secs_f64())
                .collect();
            // alt: the write half of each epoch, barrier to barrier —
            // the append (and the compact, where there is one) beside
            // the cold reads. On one CPU the two clients' work adds up
            // the same however the scheduler interleaves them, which a
            // lone append's round trip does not.
            let halves: Vec<f64> = out
                .cold_s
                .iter()
                .zip(&out.write_s)
                .map(|(cold, write)| cold.max(*write))
                .collect();
            samples.push_slice(t, out.requests, &reads, &halves);
            env.checks.absorb(std::mem::take(&mut out.checks));
            outs.push((out, t.factor));
        }
        outs
    }

    fn setup(env: &mut Env, cal: &mut Calibrator, samples: &mut Samples, name: &str) -> Fixture {
        let (fixture, t) = cal.timed(|| Fixture::build(env, name));
        samples.push_setup(t);
        fixture
    }

    /// The store's event total as the server reports it.
    fn total_events(&mut self) -> Option<u64> {
        match self.reader.request(Command::Info) {
            Ok(Reply {
                resp: Response::Info { info },
                ..
            }) => Some(info.total_events),
            _ => None,
        }
    }

    /// Checks the final count, drains the server, joins its threads and
    /// removes the store.
    fn close(mut self, env: &mut Env) {
        let want = self.rows.len() as u64 + self.appended;
        let got = self.total_events();
        env.checks.check(got == Some(want), || {
            format!("the server reports {got:?} events, seeded + appended is {want}")
        });
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The timed pass and the counted round: every end-to-end metric.
pub fn timed(mut env: Env) -> Outcome {
    let mut cal = Calibrator::new();
    let mut samples = Samples::default();
    let mut fixture = Fixture::setup(&mut env, &mut cal, &mut samples, "live-0");
    for i in 1..env.setup_repeats() {
        fixture.close(&mut env);
        fixture = Fixture::setup(&mut env, &mut cal, &mut samples, &format!("live-{i}"));
    }
    let rounds = env.rounds(NOMINAL_ROUND_S, MIN_ROUNDS);
    let fs_before = env.fs.counts();
    let requests: u64 = fixture
        .rounds(&mut env, &mut cal, rounds, &mut samples)
        .iter()
        .map(|(out, _)| out.requests)
        .sum();
    let rss = peak_rss_mb();

    let (out, alloc) = counted(|| fixture.slice());
    env.checks.absorb(out.checks);
    let counts = Counted {
        fs_work: requests + out.requests,
        fs: env.fs.counts().since(&fs_before),
        alloc_work: out.requests,
        alloc,
        disk_bytes: dir_bytes(&fixture.dir),
        events_stored: fixture.rows.len() as u64 + fixture.appended,
    };
    fixture.close(&mut env);
    let values = end_to_end(&samples, rss, &counts, &env.checks);
    env.finish(&cal, values)
}

/// The traced pass: untraced slices, traced slices whose replies carry
/// the server's own stage times, then the same reads without TCP, the
/// protocol floor, and direct appends to the store underneath.
pub fn traced(mut env: Env) -> Outcome {
    let mut cal = Calibrator::new();
    let mut untraced = Samples::default();
    let mut fixture = Fixture::setup(&mut env, &mut cal, &mut untraced, "live-0");
    let (with_trace, counts, outs) = traced_rounds(
        &mut env,
        &mut cal,
        &mut untraced,
        |env, cal, rounds, samples| fixture.rounds(env, cal, rounds, samples),
        |outs| outs.iter().map(|(o, _)| o.requests).sum(),
    );

    // Spans from what the client threads and the replies recorded: one
    // per read round trip, with the server's admission, pin and
    // execution times laid end to end inside it.
    let (mut tcp_us, mut admit_us, mut pin_us, mut scan_us) = (vec![], vec![], vec![], vec![]);
    let (mut read_ms, mut append_ms) = (Vec::new(), Vec::new());
    let (mut hits, mut planned, mut busy) = (0u64, 0u64, 0u64);
    for (out, factor) in &outs {
        busy += out.busy;
        append_ms.extend(out.appends_s.iter().map(|s| s * 1e3 * factor));
        for r in &out.reads {
            let (start, end) = (env.log.ns_of(r.started), env.log.ns_of(r.ended));
            let rtt_us = (end - start) as f64 / 1e3;
            tcp_us.push(rtt_us * factor);
            read_ms.push(rtt_us * factor / 1e3);
            let id = env.log.record(None, "serve.read", start, end, 1, 0);
            let Some(plan) = r.plan else { continue };
            planned += 1;
            hits += u64::from(plan.cache_hit);
            admit_us.push(plan.admission_wait_us as f64 * factor);
            pin_us.push(plan.pin_us as f64 * factor);
            if !plan.cache_hit {
                scan_us.push(plan.scan_us as f64 * factor);
            }
            let mut at = start;
            for (name, us) in [
                ("serve.admit", plan.admission_wait_us),
                ("serve.pin", plan.pin_us),
                ("serve.exec", plan.exec_us),
            ] {
                env.log.record(Some(id), name, at, at + us * 1000, 1, 0);
                at += us * 1000;
            }
        }
    }

    crate::alloc::set_counting(true);
    // The same hot and cold reads in process: the protocol and the
    // service without the socket.
    let ((local_us, floor_us), t_local) = cal.timed(|| {
        let mut local = Client::local(Arc::clone(&fixture.core));
        let cold = fixture.prepare_cold();
        let mut local_us = Vec::new();
        let span = env.log.open("serve.local_reads");
        for read in cold.iter().flatten().chain(
            fixture
                .hot
                .iter()
                .cycle()
                .take(HOT_SET * HOT_ROUNDS * EPOCHS),
        ) {
            let started = Instant::now();
            let reply = local.request(read.cmd.clone());
            local_us.push(started.elapsed().as_secs_f64() * 1e6);
            env.checks.check(
                matches!(&reply, Ok(r) if payload(&r.resp) == read.want),
                || format!("{:?} answered {reply:?} in process", read.cmd),
            );
        }
        env.log.close(span, local_us.len() as u64, 0);
        // The floor: a `Ping` line through parse, dispatch and render.
        let span = env.log.open("serve.line_floor");
        let line = "{\"id\":1,\"cmd\":\"Ping\"}";
        let floor_us: Vec<f64> = (0..500)
            .map(|_| {
                let started = Instant::now();
                let out = fixture.core.handle_line(line);
                let us = started.elapsed().as_secs_f64() * 1e6;
                assert!(out.contains("Pong"), "ping answered {out}");
                us
            })
            .collect();
        env.log.close(span, 500, 0);
        (local_us, floor_us)
    });

    // Appends straight into the store under the server, of the size the
    // server's `Append` commits, then one compaction.
    let mut append_direct_ms = Vec::new();
    let mut append_fs_ms = 0.0;
    let mut compact = (0.0, 0u64);
    let ((), t_store) = cal.timed(|| {
        let live = fixture.core.live();
        let batch: Vec<StoredEvent> = fixture.rows[..APPEND_EVENTS.min(fixture.rows.len())]
            .iter()
            .enumerate()
            .map(|(i, r)| StoredEvent {
                time_ms: 2 * DAY_MS + i as u64,
                ..*r
            })
            .collect();
        for _ in 0..EPOCHS {
            let before = env.fs.counts();
            let id = env.log.open("store.append");
            let started = Instant::now();
            live.append_events(&batch).expect("direct append");
            append_direct_ms.push(started.elapsed().as_secs_f64() * 1e3);
            let io = env.fs.counts().since(&before);
            append_fs_ms += io.total_ms();
            env.log.close(id, batch.len() as u64, io.write_bytes());
            fixture.appended += batch.len() as u64;
        }
        let before = env.fs.counts();
        let id = env.log.open("store.compact");
        let started = Instant::now();
        live.compact(DEFAULT_SEGMENT_ROWS).expect("direct compact");
        compact = (
            started.elapsed().as_secs_f64() * 1e3,
            env.fs.counts().since(&before).write_bytes(),
        );
        env.log.close(id, 1, compact.1);
    });
    crate::alloc::set_counting(false);
    let manifest_bytes =
        std::fs::metadata(fixture.dir.join(iri_store::MANIFEST_FILE)).map_or(0, |m| m.len());
    fixture.close(&mut env);

    let mut v = Values::new();
    v.insert("serve.line_floor_us", median(&floor_us) * t_local.factor);
    let local_p50 = median(&local_us) * t_local.factor;
    v.insert("serve.local_read_us_p50", local_p50);
    v.insert("serve.tcp_read_us_p50", median(&tcp_us));
    v.insert("serve.tcp_overhead_us", median(&tcp_us) - local_p50);
    v.insert("serve.admit_us_p50", median(&admit_us));
    v.insert("serve.pin_us_p50", median(&pin_us));
    v.insert("serve.scan_us_p50", median(&scan_us));
    v.insert("serve.cache_hit_ratio", hits as f64 / planned.max(1) as f64);
    v.insert("serve.read_p95_ms", percentile(&read_ms, 95.0));
    v.insert("serve.read_p99_ms", percentile(&read_ms, 99.0));
    v.insert("serve.read_samples", read_ms.len() as f64);
    v.insert("serve.append_p95_ms", percentile(&append_ms, 95.0));
    v.insert("serve.append_samples", append_ms.len() as f64);
    v.insert("serve.busy_replies", busy as f64);
    v.insert(
        "store.append_ms_p50",
        median(&append_direct_ms) * t_store.factor,
    );
    v.insert(
        "store.append_fs_share",
        append_fs_ms / append_direct_ms.iter().sum::<f64>().max(1e-9),
    );
    v.insert("store.compact_ms", compact.0 * t_store.factor);
    v.insert("store.compact_rewrite_bytes", compact.1 as f64);
    v.insert("store.manifest_bytes", manifest_bytes as f64);
    // The ledger against the slices' wall: per epoch the longer of the
    // two clients' first halves (they overlap), then the reader's hot
    // half.
    let ledger_s: f64 = outs
        .iter()
        .flat_map(|(o, _)| {
            o.cold_s
                .iter()
                .zip(&o.write_s)
                .zip(&o.hot_s)
                .map(|((cold, write), hot)| cold.max(*write) + hot)
        })
        .sum();
    let slices_s: f64 = outs
        .iter()
        .zip(&with_trace.raw_rate)
        .map(|((o, _), rate)| o.requests as f64 / rate)
        .sum();
    v.insert("bench.trace_coverage", ledger_s / slices_s.max(1e-9));
    common_layers(&mut v, &cal, &untraced, &with_trace, &counts);
    crate::write_trace(super::SERVE_MIXED, &env.log);
    env.finish(&cal, v)
}
