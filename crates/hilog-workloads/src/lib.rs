//! # hilog-workloads
//!
//! Workload and program generators for the reproduction of Ross, *"On
//! Negation in HiLog"*.  The paper has no empirical evaluation of its own, so
//! the tests, the examples and `benchmark/` run on synthetic program families
//! that exercise the constructions it defines:
//!
//! * [`graphs`] — edge-list generators (chains, cycles, random DAGs, layered
//!   game graphs) used by the win/move programs of Examples 6.1 / 6.3 and by
//!   the transitive-closure workloads of Examples 2.1 / 5.2;
//! * [`games`] — builders for the normal and HiLog win/move programs;
//! * [`closure`] — builders for generic HiLog closures and their specialised
//!   normal counterparts (`examples/generic_closures.rs`);
//! * [`parts`] — random part hierarchies for the parts-explosion aggregation
//!   program of Section 6;
//! * [`random_programs`] — random range-restricted normal programs, strongly
//!   range-restricted HiLog programs, and ground extension programs `Q` for
//!   the preservation-under-extensions experiments of Section 5;
//! * [`serving`] — deterministic mixed read/write op streams (reader queries
//!   plus writer batches) for the concurrent serving layer's bench and
//!   concurrency oracle;
//! * [`durability`] — EDB-heavy ingest streams (large batched fact loads
//!   plus cheap bound probes) for the durable storage layer's bench and the
//!   crash/recovery CI job;
//! * [`storage`] — sharded multi-relation streams (many small HiLog
//!   relations tied together by the generic guarded rules of Example 5.2)
//!   for the spill backend and incremental-checkpoint benches.
//!
//! All generators take explicit `u64` seeds and are deterministic, so test
//! failures and benchmark runs are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closure;
pub mod durability;
pub mod games;
pub mod graphs;
pub mod parts;
pub mod random_programs;
pub mod serving;
pub mod storage;

pub use closure::{generic_closure_program, specialized_closure_program};
pub use durability::{durability_workload, DurabilityWorkload, DurabilityWorkloadConfig};
pub use games::{
    hilog_game_program, normal_game_program, sharded_chain_game_program, sharded_chain_game_text,
    sharded_game_program, sharded_game_text,
};
pub use graphs::{chain, cycle, edges_to_facts, layered_game_graph, node_name, random_dag, Edge};
pub use parts::{random_part_hierarchy, PartHierarchy};
pub use random_programs::{
    random_ground_extension, random_range_restricted_normal, random_strongly_restricted_hilog,
    ExtensionConfig, HilogProgramConfig, NormalProgramConfig,
};
pub use serving::{serving_workload, ServingWorkload, ServingWorkloadConfig, WriteBatch};
pub use storage::{shard_name, storage_workload, StorageWorkload, StorageWorkloadConfig};
