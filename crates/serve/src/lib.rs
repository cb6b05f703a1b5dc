//! Binding-as-a-service: a std-only daemon exposing the workspace's
//! obfuscation-aware binding, co-design, error-rate, locked-simulation,
//! and SAT-attack engines over length-prefixed JSON on TCP.
//!
//! The daemon is the serving counterpart of the bench grids: instead of
//! sweeping a fixed experiment matrix, it answers ad-hoc requests from
//! many tenants while keeping the properties the rest of the workspace
//! guarantees — deterministic results (identical requests produce
//! byte-identical responses), bounded resource use (admission control
//! sheds excess load with machine-readable reasons), single-flight
//! artifact building (concurrent identical requests coalesce onto one
//! build), cooperative cancellation (per-request deadlines and explicit
//! cancels map to distinct response statuses), and graceful drain
//! (SIGTERM completes every admitted request before exit).
//!
//! Module map, wire to core: [`wire`] (framing) → strict parsing
//! ([`lockbind_obs::json::parse`]) → [`proto`] (validation + envelopes) → [`admission`]
//! (tenant-fair bounded queue) → [`jobs`] (engine job bodies) →
//! [`server`] (threads, coalescing, drain), with [`progress`] routing
//! engine spans back to subscribed requests, [`signal`] latching
//! SIGTERM, and [`client`]/[`loadgen`] as the client side.

#![deny(unsafe_code)] // one vetted exception: `signal`'s SIGTERM shim
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod jobs;
pub mod jsonin;
pub mod loadgen;
pub mod progress;
pub mod proto;
pub mod server;
pub mod signal;
pub mod wire;

pub use client::ServeClient;
pub use loadgen::{run_fixed, run_load, LoadConfig, LoadReport};
pub use proto::{code, status, RequestEnvelope, RequestKind, Work};
pub use server::{start, DrainSummary, ServerConfig, ServerHandle};
