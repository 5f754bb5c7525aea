//! # hilog-workloads
//!
//! Workload and program generators for the reproduction of Ross, *"On
//! Negation in HiLog"*.  The paper has no empirical evaluation of its own, so
//! the tests, the examples and `benchmark/` run on synthetic program families
//! that exercise the constructions it defines:
//!
//! * edge-list generators ([`chain`], [`cycle`], [`random_dag`],
//!   [`layered_game_graph`]) used by the win/move programs of Examples 6.1 /
//!   6.3 and by the transitive-closure workloads of Examples 2.1 / 5.2;
//! * builders for the normal and HiLog win/move programs
//!   ([`normal_game_program`], [`hilog_game_program`],
//!   [`sharded_game_program`]);
//! * builders for generic HiLog closures and their specialised normal
//!   counterparts ([`generic_closure_program`],
//!   [`specialized_closure_program`], used by
//!   `examples/generic_closures.rs`);
//! * random part hierarchies for the parts-explosion aggregation program of
//!   Section 6 ([`random_part_hierarchy`]);
//! * random range-restricted normal programs, strongly range-restricted
//!   HiLog programs, and ground extension programs `Q` for the
//!   preservation-under-extensions experiments of Section 5
//!   ([`random_range_restricted_normal`], [`random_strongly_restricted_hilog`],
//!   [`random_ground_extension`]);
//! * deterministic mixed read/write op streams (reader queries plus writer
//!   batches) for the concurrent serving layer's bench and concurrency oracle
//!   ([`serving_workload`]);
//! * EDB-heavy ingest streams (large batched fact loads plus cheap bound
//!   probes) for the durable storage layer's bench and the crash/recovery CI
//!   job ([`durability_workload`]);
//! * sharded multi-relation streams (many small HiLog relations tied
//!   together by the generic guarded rules of Example 5.2) for the spill
//!   backend and incremental-checkpoint benches ([`storage_workload`]).
//!
//! All generators take explicit `u64` seeds and are deterministic, so test
//! failures and benchmark runs are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod closure;
mod durability;
mod games;
mod graphs;
mod parts;
mod random_programs;
mod serving;
mod storage;

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
pub use storage::{storage_workload, StorageWorkload, StorageWorkloadConfig};
