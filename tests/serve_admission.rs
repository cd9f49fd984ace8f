//! The serve admission design as tier-1 sees it: reads wait at the
//! admission gate with one finite deadline and are shed `Busy` past it;
//! appends and compactions never touch the gate; the service verbs
//! bypass it. Plus the request line that once aborted the server.

use iri_serve::{Client, Command, Filter, Reply, Response, ServeCore, ServeOptions, WireEvent};
use iri_store::{LiveOptions, LiveStore};
use std::sync::Arc;

fn open_core(tag: &str, opts: &ServeOptions) -> Arc<ServeCore> {
    let dir =
        std::env::temp_dir().join(format!("iri-serve-admission-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let live_opts = LiveOptions {
        create_segment_rows: Some(64),
        ..LiveOptions::default()
    };
    let live = LiveStore::open_with(&dir, &live_opts).expect("open live store");
    Arc::new(ServeCore::new(live, opts))
}

fn one_event() -> Vec<WireEvent> {
    vec![WireEvent::announce(
        833_000_000_000,
        701,
        "192.41.177.1",
        "10.0.0.0/8",
    )]
}

#[test]
fn a_full_gate_sheds_reads_at_the_deadline_while_writes_commit() {
    // No read slots: every read waits out the one-second deadline and is
    // shed; writes never wait at the gate at all.
    let core = open_core(
        "full-gate",
        &ServeOptions {
            max_inflight: 0,
            ..ServeOptions::default()
        },
    );
    let mut client = Client::local(Arc::clone(&core));

    let append = client
        .request(Command::Append {
            events: one_event(),
        })
        .expect("append");
    assert!(
        matches!(append.resp, Response::Appended { events: 1, .. }),
        "writes skip the read gate: {:?}",
        append.resp
    );
    let compact = client
        .request(Command::Compact { target_rows: None })
        .expect("compact");
    assert!(
        matches!(compact.resp, Response::Compacted { .. }),
        "{:?}",
        compact.resp
    );

    let read = client
        .request(Command::Bytes {
            filter: Filter::default(),
        })
        .expect("read");
    assert_eq!(
        read.resp,
        Response::Busy {
            active: 0,
            queued: 0
        }
    );
    let plan = read.plan.expect("a shed read attributes its wait");
    assert!(
        plan.admission_wait_us >= 1_000_000,
        "the wait is the plan's admission time: {plan}"
    );
    match client.request(Command::Stats).expect("stats").resp {
        Response::Stats { stats } => {
            assert_eq!(stats.busy_rejections, 1);
            assert!(
                stats.gate_wait_total_us >= 1_000_000,
                "a shed read's wait counts toward the gate total: {stats:?}"
            );
        }
        other => panic!("stats answered {other:?}"),
    }

    // Service verbs bypass admission: liveness and health still answer.
    assert_eq!(client.request(Command::Ping).unwrap().resp, Response::Pong);
    match client.request(Command::Health).expect("health").resp {
        Response::Health { health } => {
            assert_eq!((health.inflight, health.max_inflight), (0, 0));
            assert_eq!(health.generation, core.live().generation());
        }
        other => panic!("health answered {other:?}"),
    }
    std::fs::remove_dir_all(core.live().dir()).expect("remove the store");
}

#[test]
fn an_oversized_series_is_a_usage_error_and_the_server_keeps_answering() {
    let core = open_core("series", &ServeOptions::default());
    let mut client = Client::local(Arc::clone(&core));
    client
        .request(Command::Append {
            events: one_event(),
        })
        .expect("append");
    // One-millisecond bins from 1 ms to the event: 833 G bins, which
    // once made the server allocate 6.6 TB and abort.
    let line = r#"{"id":2,"cmd":{"Series":{"filter":{"from_ms":1},"bin_ms":1}}}"#;
    let reply: Reply = serde_json::from_str(&core.handle_line(line)).expect("one reply line");
    assert_eq!(reply.id, 2);
    assert!(
        matches!(reply.resp, Response::Error { code: 2, .. }),
        "{:?}",
        reply.resp
    );
    let ping: Reply =
        serde_json::from_str(&core.handle_line(r#"{"id":3,"cmd":"Ping"}"#)).expect("reply line");
    assert_eq!(ping.resp, Response::Pong);
    std::fs::remove_dir_all(core.live().dir()).expect("remove the store");
}
