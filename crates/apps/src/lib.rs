//! Workload applications and the benchmark engine.
//!
//! The paper evaluates TEEMon by monitoring three real applications (Redis,
//! NGINX, MongoDB) driven by standard load generators (`memtier_benchmark`,
//! `redis-benchmark`) under several SGX frameworks.  This crate provides the
//! simulated equivalents:
//!
//! * [`Application`] implementations — [`RedisApp`], [`NginxApp`],
//!   [`MongoApp`] — each describing its memory footprint and per-request
//!   behaviour (system calls, pages touched, cache behaviour, payload sizes),
//! * [`NetworkModel`] — the 1 Gbit/s switched network of the testbed (§6.1)
//!   which caps native Redis throughput above 320 connections,
//! * [`MemtierConfig`] and [`run_benchmark`] — a memtier-like closed-loop load
//!   generator: N client threads × M connections × pipeline depth, measuring
//!   throughput, latency and the per-100-request metric rates of Figure 11.
//!
//! The engine executes a sample of requests through a
//! [`teemon_frameworks::Deployment`] (so every kernel/SGX hook fires and the
//! TEEMon exporters observe the workload) and extrapolates steady-state
//! throughput with a closed-loop queueing model.

#![warn(missing_docs)]

mod loadgen;
mod mongodb;
mod network;
mod nginx;
mod redis;
mod spec;

pub use loadgen::{run_benchmark, BenchmarkResult, MemtierConfig, MetricRates};
pub use mongodb::MongoApp;
pub use network::NetworkModel;
pub use nginx::NginxApp;
pub use redis::RedisApp;
pub use spec::Application;
