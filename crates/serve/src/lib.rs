//! lisa-serve — a dependency-free HTTP/1.1 simulation service.
//!
//! Embeds the whole LISA stack behind a small, hardened HTTP layer
//! written against `std` only:
//!
//! | Endpoint            | Method | Does |
//! |---------------------|--------|------|
//! | `/v1/assemble`      | POST   | assemble a program for a builtin model |
//! | `/v1/simulate`      | POST   | run one program under a cycle budget and wall-clock deadline |
//! | `/v1/batch`         | POST   | fan the kernel matrix out over the batch runner |
//! | `/v1/models`        | GET    | list the builtin models |
//! | `/metrics`          | GET    | Prometheus exposition of the shared registry |
//! | `/v1/debug/spans`   | GET    | recent runtime spans (`?format=json\|chrome&limit=N`) |
//! | `/healthz`          | GET    | liveness probe |
//!
//! The module split mirrors the layering: [`http`] is the pure
//! parser/serializer (no I/O, proptest-friendly), [`api`] the JSON
//! bodies, [`service`] the router + handlers, [`server`] the TCP
//! acceptor/worker-pool front end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod server;
pub mod service;

pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};
pub use service::AppState;
