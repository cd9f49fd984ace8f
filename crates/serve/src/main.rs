//! `iri-serve` — serve a store directory over TCP.
//!
//! ```sh
//! iri-serve <dir> [--addr HOST:PORT] [--create-rows N]
//!           [--max-inflight N] [--cache N] [--trace-cap N] [--slow-log N]
//! ```
//!
//! Binds (default `127.0.0.1:4117`), prints the bound address, then
//! serves until stdin closes or reads a `quit` line, at which point it
//! drains gracefully. `--create-rows N` creates an empty store with
//! N-row segments when the directory holds none. At most
//! `--max-inflight` reads (default 64) execute at once; a read that
//! waits one second for a slot is answered `Busy`.
//! Appends and compactions wait only for the store's write lock. Exit
//! codes follow the store taxonomy (2 usage, 3 I/O, 4 corrupt, 5
//! quarantined, 6 JSON, 7 ingest).

use iri_serve::{ServeCore, ServeOptions, Server};
use iri_store::{LiveOptions, LiveStore};
use std::io::BufRead;
use std::path::Path;
use std::sync::Arc;

fn arg<T: std::str::FromStr>(args: &[String], key: &str) -> Option<T> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn usage() -> ! {
    eprintln!(
        "usage: iri-serve <dir> [--addr HOST:PORT] [--create-rows N]\n\
         \x20        [--max-inflight N] [--cache N] [--trace-cap N] [--slow-log N]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(dir) = args.get(1).filter(|d| !d.starts_with("--")) else {
        usage()
    };
    let addr = arg::<String>(&args, "--addr").unwrap_or_else(|| "127.0.0.1:4117".to_owned());
    let defaults = ServeOptions::default();
    let opts = ServeOptions {
        max_inflight: arg(&args, "--max-inflight").unwrap_or(defaults.max_inflight),
        cache_entries: arg(&args, "--cache").unwrap_or(defaults.cache_entries),
        trace_capacity: arg(&args, "--trace-cap").unwrap_or(defaults.trace_capacity),
        slow_log_entries: arg(&args, "--slow-log").unwrap_or(defaults.slow_log_entries),
    };
    let live_opts = LiveOptions {
        create_segment_rows: arg(&args, "--create-rows"),
        ..LiveOptions::default()
    };
    let live = LiveStore::open_with(Path::new(dir), &live_opts).unwrap_or_else(|e| {
        eprintln!("iri-serve: {e}");
        std::process::exit(e.exit_code())
    });
    let core = Arc::new(ServeCore::new(live, &opts));
    let server = Server::bind(Arc::clone(&core), &addr).unwrap_or_else(|e| {
        eprintln!("iri-serve: bind {addr}: {e}");
        std::process::exit(3)
    });
    println!("iri-serve: {dir} generation {}", core.live().generation());
    println!("listening on {}", server.local_addr());
    println!("type 'quit' (or close stdin) to drain and exit");
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    println!("draining…");
    server.shutdown();
    let stats = core.live().stats();
    println!(
        "served generation {} with {} pins taken, {} appends, {} compactions",
        stats.generation, stats.total_pins, stats.appends, stats.compactions
    );
}
