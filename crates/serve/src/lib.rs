//! The compile daemon: `regpipe serve`, its load driver and its crash gate.
//!
//! Batch compilation (`regpipe suite`, `regpipe check`) pays full
//! process-startup and analysis cost per invocation. This crate keeps a
//! compiler resident instead: a [`Server`] answers JSON-lines requests —
//! one object per line, one response line per request — over stdin or a
//! unix socket ([`serve_stdin`] / [`serve_socket`]), backed by a sharded,
//! bounded-memory, content-addressed LRU result cache
//! ([`cache::ShardedCache`]).
//!
//! The cache is keyed by *what is being compiled* — `(ddg content hash,
//! canonical machine identity, scheduler, strategy, spill policy,
//! budget)` — and stores
//! fully rendered response payloads, so a hit returns byte-for-byte what
//! a miss would compute. That makes the daemon's observable behaviour
//! independent of cache state, client concurrency, and transport; the
//! test suite and CI hold it to exactly that standard.
//!
//! The daemon is *crash-only*: engine panics are caught per request
//! (`error.kind = "internal"`, the daemon keeps serving), `--deadline-ms`
//! bounds each compile cooperatively, and `--cache-dir` backs the cache
//! with a corruption-tolerant append log ([`store`]) that recovers from
//! any torn/flipped/truncated suffix by dropping only the damaged
//! entries. A seeded fault-injection layer ([`fault`]) and the
//! `regpipe chaos` harness ([`chaos`]) prove the whole cycle —
//! inject, crash, restart, recover — byte-for-byte.
//!
//! * [`Server::handle_line`] — the transport-free protocol core.
//! * [`replay`] — the `regpipe replay` load-driver: deterministic request
//!   streams from the generator/suite/a file, driven in-process or over
//!   the socket with client-side concurrency.
//!
//! `docs/serve.md` specifies the wire protocol.

// Every public item of this crate is documented; CI turns gaps into errors.
#![warn(missing_docs)]

pub mod cache;
#[cfg(unix)]
pub mod chaos;
pub mod daemon;
pub mod fault;
pub mod replay;
mod server;
pub mod store;

pub use cache::{CacheKey, ShardStats, ShardedCache};
#[cfg(unix)]
pub use chaos::{run_chaos, write_responses, ChaosConfig, ChaosReport};
#[cfg(unix)]
pub use daemon::{claim_socket, serve_socket};
pub use daemon::{read_request_line, serve_connection, serve_stdin, ReadLine};
pub use fault::{FaultKind, FaultPlan, FAULT_ENV};
pub use replay::{
    base_requests, replay_in_process, requests_from_loops, IdPolicy, ReplayConfig,
    ReplayOutcome, ReplaySource, RetryPolicy,
};
#[cfg(unix)]
pub use replay::{replay_socket, request_once};
pub use server::{
    attach_id, machine_key, ConnectionGuard, ErrorKind, Response, ServeOptions, Server,
};
pub use store::{RecoveredEntry, Store, StoreCounters};
