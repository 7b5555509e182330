//! **dbt-serve** — the concurrent lab daemon.
//!
//! Every experiment in this repo used to be a one-shot CLI process: each
//! `lab` invocation paid full startup and its translation memo died with
//! the process. This crate turns the lab into a long-lived service so that
//! repeated analysis queries and sweep requests become cheap, cached,
//! concurrent operations:
//!
//! * [`protocol`] — newline-delimited JSON frames over TCP (`run`,
//!   `profile`, `sweep`, `analyze`, `upload`, `stats`, `metrics`,
//!   `health`, `shutdown`); multi-line lab reports travel escaped inside
//!   single-line frames, byte-identical to local CLI output once
//!   unescaped; ad-hoc `run` frames carry sparse platform knobs
//!   ([`RunKnobs`]) and any frame may carry a `trace_id`, echoed on the
//!   response; protocol v3 adds the optional `auth` member and the
//!   `quota_exceeded` response status ([`FrameMeta`]) that the
//!   `dbt-router` fleet front door enforces;
//! * [`json`] — the dependency-free JSON reader the protocol needs (the
//!   repo's emitters are hand-rolled writers; this is the matching
//!   parser);
//! * [`queue`] — a bounded MPMC job queue: admission control with an
//!   explicit `busy` response when full, never unbounded buffering;
//! * [`server`] — the daemon: acceptor, per-connection handlers, a fixed
//!   `std::thread` worker pool, all generic over the [`LabBackend`] trait
//!   (implemented by `dbt-lab`'s `LabDaemon`, which owns the process-wide
//!   `TranslationService` and the content-addressed `RunMemo` — the two
//!   cache levels a client fleet amortizes);
//! * [`client`] — a blocking NDJSON client (`lab submit` is a thin
//!   wrapper);
//! * [`loadgen`] — N concurrent clients driving a request mix, with an
//!   on-the-fly response-consistency check, throughput counters (feeds
//!   the `BENCH_serve-throughput.json` artifact) and per-op latency
//!   percentiles from `dbt-obs` histograms (operator output only).
//!
//! The server instruments itself through `dbt-obs`: per-op request
//! counters and latency histograms, in-flight and queue-depth gauges,
//! busy/frame-cap/byte counters — scraped via the `metrics` op as
//! Prometheus text exposition (see `docs/PROTOCOL.md`).
//!
//! The crate is `std`-only and knows nothing about the lab itself — the
//! dependency points the other way (`dbt-lab` depends on `dbt-serve`), so
//! the `lab` CLI can host both the daemon and the client subcommands.

pub mod client;
pub mod json;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{Client, ConnectOptions};
pub use json::JsonValue;
pub use loadgen::{drive, LoadOptions, LoadOutcome, OpLatency};
pub use protocol::{FrameMeta, ProgramSource, Request, Response, RunKnobs, DEFAULT_RUN_POLICY};
pub use queue::{BoundedQueue, PushError};
pub use server::{
    read_frame, serve, serve_with_clock, write_frame, Frame, LabBackend, ServerConfig,
    ServerHandle, DEFAULT_MAX_FRAME_BYTES, TRACE_LOG_CAPACITY,
};
