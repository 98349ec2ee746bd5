//! # orsp-net
//!
//! The wire-facing service layer: the RSP as an actual network service
//! rather than an in-process function call.
//!
//! * [`wire`] — length-prefixed, CRC-checked binary frames for the four
//!   RPCs: blind-token issue, anonymous record upload (update-only — no
//!   retrieval RPC exists, by design), aggregate fetch, and search.
//! * [`router`] — [`RspService`]: one `handle(Request) -> Response`
//!   facade over the server substrates (mint, ingest, aggregates, search).
//! * [`server`] — a TCP server over `std::net` (no async runtime, per
//!   DESIGN §6) with two transports: an epoll reactor over a slab of
//!   non-blocking connections (default, Linux) and a thread-per-connection
//!   pool behind a bounded accept queue. Both keep per-connection
//!   deadlines, explicit `Busy` load-shedding, and graceful
//!   drain-on-shutdown.
//! * [`client`] — a blocking client with retry/backoff on `Busy`,
//!   timeouts, and dropped connections.
//! * [`flags`] — [`ServeFlags`], the flags and lifecycle shared by the
//!   three server binaries (`--listen`, `--max-connections`,
//!   `--trace-sample`, `--trace-slow-us`; serve until stdin EOF).
//! * [`transport`] — the [`Transport`] trait with a deterministic
//!   in-memory implementation (tests) beside the TCP one (daemon, bench).
//!
//! Every service carries an `orsp-obs` registry: the router records
//! per-RPC latency and outcome counters, the server its accept/shed and
//! per-kind protocol-error counters, the reactor its open-connection and
//! slab-occupancy gauges. The whole registry is scrapeable in-process
//! (`RspService::obs`) or over the wire via the `Stats` RPC.

// `unsafe` is denied crate-wide; the single exception is [`sys`], the
// epoll/eventfd FFI module, which opts back in locally.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod assembler;
pub mod client;
pub mod error;
pub mod flags;
#[cfg(target_os = "linux")]
pub(crate) mod reactor;
pub mod router;
pub mod server;
pub mod stream;
#[cfg(target_os = "linux")]
pub mod sys;
pub mod transport;
pub mod wire;

pub use assembler::{AssembledFrame, FrameAssembler};
pub use client::{CallTrace, ClientConfig, NetClient, NetPool, RetryStats, TcpTransport};
pub use error::{NetError, WireError};
pub use flags::{flag, serve_until_stdin_eof, ServeFlags};
pub use router::{ReplicaHook, ReplicateOutcome, RspService, ServiceConfig};
pub use server::{FrameService, NetServer, ServerConfig, ServerStats, TransportMode};
pub use transport::{InMemoryTransport, RemoteIssuer, Transport};
pub use wire::{CatchRecord, Request, Response, SearchHit};
