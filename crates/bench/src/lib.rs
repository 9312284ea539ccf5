//! # hyperloop-bench — the paper's evaluation, regenerated
//!
//! Every table and figure of HyperLoop's §6 has a runner here; the
//! `figures` binary prints them:
//!
//! ```text
//! cargo run --release -p hyperloop-bench --bin figures -- all [--quick]
//! ```
//!
//! | id | paper content | module |
//! |---|---|---|
//! | fig2a / fig2b | MongoDB latency & context switches vs tenancy / cores | [`mongo2`] |
//! | fig8a / fig8b | gWRITE / gMEMCPY latency vs message size | [`micro`] |
//! | table2 | gCAS latency statistics | [`micro`] |
//! | fig9 | gWRITE throughput + replica CPU | [`micro`] |
//! | fig10 | tail latency vs group size | [`micro`] |
//! | fig11 | replicated RocksDB (kvstore) under YCSB-A | [`appbench`] |
//! | fig12 | replicated MongoDB (docstore) under YCSB A/B/D/E/F | [`appbench`] |
//!
//! Plus `ablations` (`ablation/*` scenarios): flush cost, fan-out vs chain,
//! read scaling, polling vs co-location — and four beyond-the-paper
//! sweeps: `shardscale` ([`shardscale`]), aggregate throughput vs shard
//! count over the [`hyperloop::ShardSet`] layer, `migrate` ([`migrate`]), the pause window and throughput dip of a
//! live shard migration, `hostperf` ([`hostperf`]), the *host*
//! throughput of the simulator itself (ops/sec of wall clock, allocation
//! volume and the observability tax), and `txnmix` ([`txnmix`]), multi-key
//! transaction commit/abort throughput vs contention over both commit
//! paths of the `hyperloop::txn` layer.
//!
//! Every runner wires its arms through [`run`]: host meter, audit, tracer
//! and health monitor, the observed/bare obs-tax pair, the event-driven
//! poll loop, the post-run folds and the trace artifacts.
//!
//! The only unsafe code in the crate is the counting global allocator in
//! [`hostalloc`]; everything else stays `deny(unsafe_code)`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod appbench;
pub mod cli;
pub mod driver;
pub mod exp;
pub mod fanout_ablation;
pub mod figures;
#[allow(unsafe_code)]
pub mod hostalloc;
pub mod hostperf;
pub mod micro;
pub mod migrate;
pub mod mongo2;
pub mod report;
pub mod run;
pub mod shardscale;
pub mod txnmix;

pub use driver::{OpPlan, PrimitiveDriver};
pub use micro::{MicroOpts, MicroResult, SystemKind};
