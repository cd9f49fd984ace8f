//! # iri-serve — snapshot-isolated concurrent query service
//!
//! The paper's apparatus was a *service*: probe machines streamed
//! updates into a central database that analysts queried for nine
//! months while collection never stopped (§3). `iri-store` gave this
//! repo the database; this crate gives it the serving layer — a
//! long-running process answering the full `iriq` query surface for
//! many concurrent clients **while the store keeps changing underneath**
//! (live appends, compactions, full re-ingests).
//!
//! ## Consistency model
//!
//! Snapshot isolation on the manifest-journal commit point. Every query
//! pins the manifest generation current at its start ([`iri_store::LiveStore::snapshot`])
//! and serves exactly that store state; concurrent mutations commit new
//! generations without blocking readers, and compaction retires
//! replaced segment files until no pin can still need them. Two replies
//! for the same command at the same generation are identical — the
//! bench harness drives thousands of mixed read/write clients and
//! checks exactly that, plus byte-agreement with a quiesced offline
//! scan.
//!
//! ## Wire protocol
//!
//! Line-delimited JSON over TCP (or the in-process transport): one
//! [`proto::Request`] per line in, one [`proto::Reply`] per line out,
//! correlated by id. Reads wait for one of `max_inflight` execution
//! slots; a read still waiting after one second is shed with a typed
//! [`proto::Response::Busy`], the only refusal.
//! Appends and compactions queue on the store's write lock alone. Drain
//! is [`proto::Response::ShuttingDown`], failures carry the store
//! exit-code taxonomy. See [`proto`] for the vocabulary.
//!
//! ## Pieces
//!
//! - [`proto`] — requests, replies, filters, wire events
//! - [`cache`] — bounded `(generation, command)` result cache
//! - [`service`] — read admission, pinning, execution, metrics
//! - [`server`] — the TCP listener (thread per connection)
//! - [`client`] — TCP and in-process clients
//!
//! The `iri-serve` binary wraps [`server::Server`] around a store
//! directory; `iriq --connect HOST:PORT` is the matching CLI client.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;
pub mod service;

pub use cache::{CacheStats, ResultCache};
pub use client::Client;
pub use proto::{
    Command, Filter, HealthBody, InfoBody, MetricsBody, Reply, Request, Response, SlowQuery,
    StatsBody, TopRow, WireEvent,
};
pub use server::Server;
pub use service::{ServeCore, ServeOptions};
