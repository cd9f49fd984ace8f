//! `bench_serve` — concurrent query-service benchmark (`BENCH_serve.json`).
//!
//! Drives a thousand mixed read/write clients (a TCP cohort plus an
//! in-process cohort — same codec, no socket) against one `iri-serve`
//! core while appends, compactions, and a mid-run full re-ingest mutate
//! the store underneath, then verifies **zero wrong answers**:
//!
//! - every reply names the generation its pinned snapshot served, and
//!   all replies for the same (generation, query) must be identical —
//!   any torn or cross-generation read shows up as a digest mismatch;
//! - after quiescing, the served answers at the final generation must
//!   equal a direct offline scan of the directory;
//! - compaction under load must actually reclaim its retired segment
//!   directories once pins drain.
//!
//! ```sh
//! bench_serve [--clients N] [--tcp N] [--requests N] [--smoke]
//!             [--out BENCH_serve.json] [--dir target/bench_serve.store]
//! ```
//!
//! `--smoke` shrinks the fleet for CI. Every request is sent once. Reads
//! queue at the server's admission gate and writers at the store's
//! write lock; a read still queued at the gate's deadline is shed with
//! `Busy`, counted in `shed`, and the run asserts there are none.

use iri_bench::{arg_flag, arg_str, arg_u64, write_synthetic_log, GenLogConfig};
use iri_core::taxonomy::UpdateClass;
use iri_mrt::{MrtReader, MrtWriter};
use iri_obs::Histogram;
use iri_serve::{Client, Command, Filter, Response, ServeCore, ServeOptions, Server, WireEvent};
use iri_store::{LiveOptions, LiveStore, Query, Store};
use serde::Serialize;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// p50/p90/p99 summary of one latency histogram.
#[derive(Serialize)]
struct Quantiles {
    count: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
}

impl Quantiles {
    fn of(h: &Histogram) -> Self {
        Quantiles {
            count: h.count(),
            p50_us: h.quantile(0.5),
            p90_us: h.quantile(0.9),
            p99_us: h.quantile(0.99),
        }
    }
}

#[derive(Serialize)]
struct BenchReport {
    schema: &'static str,
    clients: u64,
    tcp_clients: u64,
    writers: u64,
    requests_attempted: u64,
    replies_ok: u64,
    /// Reads answered `Busy`: still queued at the gate's deadline.
    shed: u64,
    errors: u64,
    wrong_answers: u64,
    generations_committed: u64,
    appends: u64,
    compactions: u64,
    ingests: u64,
    cache_hits: u64,
    cache_misses: u64,
    total_pins: u64,
    retired_dirs_reclaimed: u64,
    retired_dirs_left: u64,
    elapsed_ms: u64,
    throughput_rps: f64,
    /// Server-side latency of each answered *read* (from its plan
    /// trace), gate wait included — writer commands excluded, so
    /// quantiles are query service numbers, not writer-lock stalls.
    latency_p50_us: u64,
    latency_p90_us: u64,
    latency_p99_us: u64,
    /// Same, for writer commands (append/compact): these queue behind
    /// the store's writer lock and the mid-run re-ingest, so seconds at
    /// the tail are contention, not query cost.
    write_service: Quantiles,
    /// Client-observed round trip of every answered request, reads and
    /// writes.
    e2e: Quantiles,
    /// Per-stage breakdowns of answered reads, from their plan traces.
    stage_admission: Quantiles,
    stage_pin: Quantiles,
    stage_scan: Quantiles,
    stage_cache: Quantiles,
    /// Cumulative server-side admission-gate wait of all reads (ms).
    server_gate_wait_ms: u64,
    verified_against_offline: bool,
}

/// Per-thread tallies folded into the report.
#[derive(Default)]
struct Tally {
    attempted: u64,
    ok: u64,
    shed: u64,
    errors: u64,
    wrong: u64,
    /// Round trip (client clock).
    latency: Histogram,
    /// Server plan trace total, reads only.
    service: Histogram,
    /// Server plan trace total, writer commands.
    write_service: Histogram,
    /// Per-stage, from plan traces of answered reads.
    admission: Histogram,
    pin: Histogram,
    scan: Histogram,
    cache: Histogram,
}

impl Tally {
    fn fold(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.ok += t.ok;
        self.shed += t.shed;
        self.errors += t.errors;
        self.wrong += t.wrong;
        self.latency.merge(&t.latency);
        self.service.merge(&t.service);
        self.write_service.merge(&t.write_service);
        self.admission.merge(&t.admission);
        self.pin.merge(&t.pin);
        self.scan.merge(&t.scan);
        self.cache.merge(&t.cache);
    }
}

/// The read workload pool; index identifies the query in digest keys.
fn read_command(slot: u64) -> Command {
    match slot % 5 {
        0 => Command::CountByClass {
            filter: Filter::default(),
        },
        1 => Command::Bytes {
            filter: Filter::default(),
        },
        2 => Command::TopPeers {
            filter: Filter::default(),
            limit: 5,
        },
        3 => Command::CountByClass {
            filter: Filter {
                class: Some("AADup".into()),
                ..Filter::default()
            },
        },
        _ => Command::CountByCause {
            filter: Filter::default(),
        },
    }
}

/// The comparable payload of a read reply: everything except the
/// `cached` flag and scan stats, which legitimately vary between a
/// cache hit and the scan that populated it.
fn digest(resp: &Response) -> Option<(u64, String)> {
    match resp {
        Response::Counts {
            generation, counts, ..
        } => Some((*generation, format!("counts:{counts:?}"))),
        Response::Bytes {
            generation, total, ..
        } => Some((*generation, format!("bytes:{total}"))),
        Response::Top {
            generation, rows, ..
        } => Some((
            *generation,
            format!(
                "top:{:?}",
                rows.iter().map(|r| (&r.key, r.count)).collect::<Vec<_>>()
            ),
        )),
        Response::Series {
            generation, bins, ..
        } => Some((*generation, format!("series:{bins:?}"))),
        _ => None,
    }
}

/// A deterministic, per-client batch of raw updates to append.
fn wire_batch(client_id: u64, round: u64, n: u64) -> Vec<WireEvent> {
    (0..n)
        .map(|i| {
            let k = client_id * 100_000 + round * 1_000 + i;
            let t = 833_000_000_000 + k * 40;
            let peer = 7000 + (k % 16) as u32;
            let addr = format!("192.41.177.{}", 1 + k % 64);
            let prefix = format!("10.{}.{}.0/24", client_id % 200, k % 250);
            if k % 4 == 3 {
                WireEvent::withdraw(t, peer, &addr, &prefix)
            } else {
                WireEvent::announce(t, peer, &addr, &prefix).with_path(&[peer, 3561])
            }
        })
        .collect()
}

type DigestMap = Mutex<HashMap<(u64, u64), String>>;

/// Issues one command: one request, one reply.
fn issue(
    client: &mut Client,
    cmd: Command,
    tally: &mut Tally,
    digests: &DigestMap,
    slot: Option<u64>,
) {
    tally.attempted += 1;
    let started = Instant::now();
    let Ok(reply) = client.request(cmd) else {
        tally.errors += 1;
        return;
    };
    match reply.resp {
        Response::Busy { .. } => tally.shed += 1,
        Response::Error { .. } => tally.errors += 1,
        resp => {
            tally.ok += 1;
            tally
                .latency
                .observe(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
            // Writer commands (issued with `slot == None`) go to their
            // own histogram: their tail is writer-lock contention, not
            // query service time.
            if let Some(plan) = reply.plan {
                if slot.is_some() {
                    tally.admission.observe(plan.admission_wait_us);
                    tally.service.observe(plan.total_us);
                    tally.pin.observe(plan.pin_us);
                    if plan.cache_hit {
                        tally.cache.observe(plan.exec_us);
                    } else {
                        tally.scan.observe(plan.exec_us);
                    }
                } else {
                    tally.write_service.observe(plan.total_us);
                }
            }
            if let (Some(slot), Some((generation, body))) = (slot, digest(&resp)) {
                let mut map = digests.lock().expect("digest map");
                match map.get(&(generation, slot)) {
                    Some(seen) if *seen != body => tally.wrong += 1,
                    Some(_) => {}
                    None => {
                        map.insert((generation, slot), body);
                    }
                }
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = arg_flag(&args, "--smoke");
    let clients = arg_u64(&args, "--clients", if smoke { 48 } else { 1000 });
    let tcp_clients = arg_u64(&args, "--tcp", if smoke { 16 } else { 128 }).min(clients);
    let requests = arg_u64(&args, "--requests", if smoke { 4 } else { 6 });
    let out = arg_str(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_owned());
    let dir = arg_str(&args, "--dir").unwrap_or_else(|| "target/bench_serve.store".to_owned());
    let dir = Path::new(&dir);
    let _ = std::fs::remove_dir_all(dir);

    // A small MRT log for the mid-run full re-ingest.
    let log_path = "target/bench_serve.mrt";
    let log_records = if smoke { 5_000 } else { 50_000 };
    {
        let file = File::create(log_path).expect("create reingest log");
        let mut writer = MrtWriter::new(BufWriter::new(file));
        let cfg = GenLogConfig {
            records: log_records,
            ..GenLogConfig::default()
        };
        write_synthetic_log(&mut writer, &cfg).expect("generate reingest log");
    }

    let live = LiveStore::open_with(
        dir,
        &LiveOptions {
            create_segment_rows: Some(2048),
            ..LiveOptions::default()
        },
    )
    .expect("open live store");
    let core = Arc::new(ServeCore::new(live, &ServeOptions::default()));
    let server = Server::bind(Arc::clone(&core), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    println!(
        "bench_serve: {clients} clients ({tcp_clients} TCP), {requests} requests each, \
         serving {} on {addr}",
        dir.display()
    );

    // Seed so the first readers have something to scan.
    {
        let mut seeder = Client::local(Arc::clone(&core));
        for round in 0..4 {
            let reply = seeder
                .request(Command::Append {
                    events: wire_batch(999_983, round, 500),
                })
                .expect("seed append");
            assert!(matches!(reply.resp, Response::Appended { .. }));
        }
    }

    let digests: Arc<DigestMap> = Arc::new(Mutex::new(HashMap::new()));
    let run_start = Instant::now();

    // One background mutator does what a probe redeployment would: a
    // full re-ingest replacing every segment while queries keep running.
    let reingest = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(if smoke { 50 } else { 300 }));
            let file = File::open(log_path).expect("open reingest log");
            let mut reader = MrtReader::new(BufReader::new(file));
            core.live()
                .ingest_mrt(&mut reader, 0, 2048)
                .expect("mid-run re-ingest");
        })
    };

    let workers: Vec<_> = (0..clients)
        .map(|i| {
            let core = Arc::clone(&core);
            let addr = addr.clone();
            let digests = Arc::clone(&digests);
            std::thread::spawn(move || {
                let mut tally = Tally::default();
                let mut client = if i < tcp_clients {
                    match Client::connect(&addr) {
                        Ok(c) => c,
                        Err(_) => {
                            tally.errors += 1;
                            return tally;
                        }
                    }
                } else {
                    Client::local(core)
                };
                let writer = i % 8 == 0;
                for r in 0..requests {
                    if writer {
                        let cmd = if r % 4 == 3 {
                            Command::Compact { target_rows: None }
                        } else {
                            Command::Append {
                                events: wire_batch(i, r, 16),
                            }
                        };
                        issue(&mut client, cmd, &mut tally, &digests, None);
                    } else {
                        let slot = i + r;
                        issue(
                            &mut client,
                            read_command(slot),
                            &mut tally,
                            &digests,
                            Some(slot % 5),
                        );
                    }
                }
                tally
            })
        })
        .collect();

    let mut total = Tally::default();
    for worker in workers {
        let t = worker.join().expect("client thread panicked");
        total.fold(&t);
    }
    reingest.join().expect("re-ingest thread panicked");
    let elapsed_ms = run_start.elapsed().as_millis().max(1) as u64;

    // Quiesce, then verify the served answers equal an offline scan.
    let stats = core.live().stats();
    let reclaimed_final = core.live().gc();
    let verified = {
        let mut probe = Client::local(Arc::clone(&core));
        let generation = core.live().generation();
        let mut offline = Store::open(dir).expect("offline open");
        let (want_counts, _) = offline.count_by_class(&Query::default()).expect("offline");
        let (want_bytes, _) = offline.sum_bytes(&Query::default()).expect("offline");
        let counts_ok = match probe
            .request(Command::CountByClass {
                filter: Filter::default(),
            })
            .expect("probe")
            .resp
        {
            Response::Counts {
                generation: g,
                counts,
                ..
            // Replies order counts by label (reporting order), the
            // offline array by class index.
            } => {
                let want: Vec<u64> = UpdateClass::ALL
                    .iter()
                    .map(|c| want_counts[c.index()])
                    .collect();
                g == generation && counts == want
            }
            _ => false,
        };
        let bytes_ok = match probe
            .request(Command::Bytes {
                filter: Filter::default(),
            })
            .expect("probe")
            .resp
        {
            Response::Bytes {
                generation: g,
                total,
                ..
            } => g == generation && total == want_bytes,
            _ => false,
        };
        counts_ok && bytes_ok
    };
    let serve_stats = match Client::local(Arc::clone(&core)).request(Command::Stats) {
        Ok(reply) => match reply.resp {
            Response::Stats { stats } => Some(stats),
            _ => None,
        },
        Err(_) => None,
    };
    let (cache_hits, cache_misses) = serve_stats.map_or((0, 0), |s| (s.cache_hits, s.cache_misses));
    let gate_wait_us = serve_stats.map_or(0, |s| s.gate_wait_total_us);
    server.shutdown();

    let report = BenchReport {
        schema: "bench-serve-v4",
        clients,
        tcp_clients,
        writers: clients.div_ceil(8),
        requests_attempted: total.attempted,
        replies_ok: total.ok,
        shed: total.shed,
        errors: total.errors,
        wrong_answers: total.wrong,
        generations_committed: stats.generation,
        appends: stats.appends,
        compactions: stats.compactions,
        ingests: stats.ingests,
        cache_hits,
        cache_misses,
        total_pins: stats.total_pins,
        retired_dirs_reclaimed: stats.gc_removed_dirs + reclaimed_final,
        retired_dirs_left: core.live().stats().retired_dirs,
        elapsed_ms,
        throughput_rps: total.ok as f64 * 1000.0 / elapsed_ms as f64,
        latency_p50_us: total.service.quantile(0.5),
        latency_p90_us: total.service.quantile(0.9),
        latency_p99_us: total.service.quantile(0.99),
        write_service: Quantiles::of(&total.write_service),
        e2e: Quantiles::of(&total.latency),
        stage_admission: Quantiles::of(&total.admission),
        stage_pin: Quantiles::of(&total.pin),
        stage_scan: Quantiles::of(&total.scan),
        stage_cache: Quantiles::of(&total.cache),
        server_gate_wait_ms: gate_wait_us / 1_000,
        verified_against_offline: verified,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("bench_serve: cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!(
        "  {} ok / {} attempted ({} shed busy), {} generations, \
         read service p50 {} us, p99 {} us, write p99 {} us, {:.0} req/s",
        report.replies_ok,
        report.requests_attempted,
        report.shed,
        report.generations_committed,
        report.latency_p50_us,
        report.latency_p99_us,
        report.write_service.p99_us,
        report.throughput_rps
    );
    println!(
        "  stages p50/p99 us: admit {}/{}, pin {}/{}, scan {}/{}, cache {}/{}; \
         e2e p99 {} us; server gate {} ms waited in total",
        report.stage_admission.p50_us,
        report.stage_admission.p99_us,
        report.stage_pin.p50_us,
        report.stage_pin.p99_us,
        report.stage_scan.p50_us,
        report.stage_scan.p99_us,
        report.stage_cache.p50_us,
        report.stage_cache.p99_us,
        report.e2e.p99_us,
        report.server_gate_wait_ms,
    );
    println!(
        "  cache {cache_hits} hits / {cache_misses} misses, {} pins, \
         {} retired dirs reclaimed ({} left), verified: {verified}",
        report.total_pins, report.retired_dirs_reclaimed, report.retired_dirs_left
    );
    assert_eq!(report.wrong_answers, 0, "snapshot isolation violated");
    assert!(
        report.verified_against_offline,
        "offline verification failed"
    );
    assert_eq!(report.errors, 0, "unexpected request errors");
    assert_eq!(report.shed, 0, "reads shed at the admission deadline");
    assert_eq!(report.retired_dirs_left, 0, "retired space not reclaimed");
    println!("  wrote {out}");
}
