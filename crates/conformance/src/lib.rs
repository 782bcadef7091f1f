//! # multimap-conformance — cross-layer conformance checking
//!
//! The simulator, the mappings, the query executor and the analytical
//! model all claim to describe the same disk. This crate holds them to
//! it, three ways:
//!
//! * **Physics oracle** ([`oracle`]): every serviced request is
//!   re-derived from the public [`DiskGeometry`] model and checked
//!   against mechanical invariants — rotational waits below one
//!   revolution, the settle plateau for short seeks, free positioning on
//!   read-ahead hits, components summing to the observed clock advance.
//!   Attach it with [`OracleDisk`] or audit a [`ServiceLog`] after the
//!   fact with [`oracle::check_log`].
//! * **Differential query checking** ([`differential`]): the same beam
//!   and range workloads run through all four mappings (Naive, Z-order,
//!   Hilbert, MultiMap) must transfer exactly the same set of dataset
//!   cells, and the analytical model must agree with the simulator
//!   within [`MODEL_BEAM_TOLERANCE`] / [`MODEL_RANGE_TOLERANCE`] on both
//!   paper evaluation drives.
//! * **Golden traces** ([`golden`]): a seeded workload matrix pins the
//!   simulator's exact per-request timings in `tests/golden/*.json`;
//!   regenerate intentionally with `UPDATE_GOLDEN=1`.
//! * **Fault sweep** ([`fault`]): under any seeded [`FaultPlan`] every
//!   query's delivered payload must be byte-identical to the fault-free
//!   run, and the fault/retry/remap counters must reconcile exactly
//!   across the injector, the recovery decorator, telemetry and a pure
//!   replay of the transient schedule.
//! * **Cache conformance** ([`cache`]): on every device backend the
//!   page cache is transparent to results — cached queries return the
//!   same cells and payload as bare ones — and its counters reconcile
//!   exactly between the executor's telemetry and the cache's own
//!   bookkeeping.
//! * **Serving conformance** ([`serving`]): a multi-tenant serving
//!   [`Scenario`](multimap_server::Scenario) replayed twice produces
//!   bit-identical reports; per-tenant admission counters partition
//!   exactly; shed or rejected requests never reach the device.
//! * **Backend differential** ([`backend`]): every query runs through
//!   the full mapping × device-backend matrix (rotating disk,
//!   multi-queue SSD, IMR); payload and cell-set identity are universal
//!   invariants, while phase-sum and oracle checks apply per backend's
//!   own timing semantics (see `docs/backends.md`).
//!
//! See `docs/conformance.md` for the invariant catalogue and workflow.
//!
//! [`DiskGeometry`]: multimap_disksim::DiskGeometry
//! [`ServiceLog`]: multimap_disksim::ServiceLog

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod cache;
pub mod differential;
pub mod fault;
pub mod golden;
pub mod oracle;
pub mod serving;

pub use backend::{backend_differential_query, check_backend_region, BackendOutcome};
pub use cache::check_cached_sweep;
pub use differential::{
    assert_model_agreement, check_region, check_telemetry, check_translation_cache,
    differential_query, model_agreement, standard_mappings, DifferentialOutcome,
    ModelAgreementRow, MODEL_BEAM_TOLERANCE, MODEL_RANGE_TOLERANCE, TELEMETRY_SUM_EPS_MS,
};
pub use fault::{check_fault_plan, fault_query, FaultRow};
pub use golden::{check_case, workload_matrix, GoldenCase};
pub use oracle::{check_event, check_log, OracleDisk, OracleReport, Violation};
pub use serving::{check_served_scenario, check_serving_counters};
