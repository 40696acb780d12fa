//! `adt-serve` — the long-running detection service.
//!
//! The paper ships Auto-Detect as an interactive backend (Excel and
//! PowerBI features answering per-column queries online), not a one-shot
//! batch scan. This crate is that serving layer for the reproduction: a
//! dependency-free HTTP/1.1 server (`std::net` + threads, so it runs in
//! the same air-gapped containers as the rest of the workspace) wrapping
//! the parallel [`adt_core::ScanEngine`].
//!
//! Architecture, one request's journey:
//!
//! ```text
//! accept loop ──► bounded queue ──► worker pool ──────► ScanEngine
//!   (503 when       (backpressure)   (HTTP parse,        (per-column scan
//!    queue full)                      route, panic        on the worker,
//!                                     isolation)          through the
//!                                                         server's CachePool)
//! ```
//!
//! - [`registry::ModelRegistry`] — named models from a directory, shared
//!   as `Arc<AutoDetect>`, hot-reloaded on file change without dropping
//!   in-flight requests;
//! - [`server::Server`] — accept loop, bounded queue, worker pool,
//!   per-request timeouts and panic isolation, graceful shutdown that
//!   drains in-flight work. Each worker scans its own requests through
//!   one [`adt_core::CachePool`] shared for the server's life, so
//!   caches stay warm across requests and findings are byte-identical
//!   to an in-process scan;
//! - [`learn`] — the online learning loop: a background learner keeps
//!   a bounded sample of uploaded/tapped columns from a bounded queue,
//!   retrains on it with the offline trainer, and swaps the new model
//!   into the registry
//!   atomically (`POST /v1/learn`, `"learn": true` on scans);
//! - [`protocol`] / [`json`] / [`http`] — the wire: `POST /v1/scan`,
//!   `POST /v1/learn`, `GET /v1/healthz`, `GET /v1/stats`,
//!   `GET /v1/models`, `POST /v1/shutdown`;
//! - [`stats::ServerStats`] — cumulative counters with p50/p99 latency,
//!   the decode/scan/encode split of scan requests, and per-model hit
//!   counts;
//! - [`client::Client`] — the blocking client behind `autodetect query`.
//!
//! ```no_run
//! use adt_serve::{Client, ModelRegistry, ServeConfig, Server};
//!
//! let registry = ModelRegistry::open("models/")?;
//! let server = Server::bind(ServeConfig::default(), registry)?;
//! let (addr, handle, join) = server.spawn();
//!
//! let client = Client::new(&addr.to_string())?;
//! let columns = vec![adt_corpus::Column::from_strs(
//!     &["2011-01-01", "2011/01/02"],
//!     adt_corpus::SourceTag::Local,
//! )];
//! let response = client.scan(None, &columns)?;
//! println!("{} findings", response.findings.len());
//!
//! handle.shutdown();
//! join.join().unwrap()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod client;
pub mod http;
pub mod json;
pub mod learn;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod stats;
pub mod testutil;

pub use client::{Client, ClientError, Connection};
pub use json::Json;
pub use learn::LearnConfig;
pub use protocol::{ScanRequest, ScanResponse, WireColumn, WireFinding};
pub use registry::{ModelHandle, ModelRegistry};
pub use server::{ServeConfig, Server, ServerHandle};
pub use stats::ServerStats;
