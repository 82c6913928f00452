//! The repo benchmark: four controller workloads, five end-to-end metrics
//! with regression bounds, and a per-layer table measured from outside.
//!
//! `perf run --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//! one workload in its own process, prints every metric as
//! `name value unit`, validates every placement the program produced, and
//! ends with the one-line JSON result the driver reads. `perf compare`
//! applies the bounds to two saved results. See `README.md` beside this
//! crate for the glossary, the interaction table and the measured layer
//! tables.
//!
//! Nothing here edits or instruments the program under test. The layer
//! numbers come from three outside-in mechanisms: the [`timed_source`]
//! decorator over the public `PathSource` trait, *shadow operations* that
//! replay one operation through the layers' public functions under
//! [`spans`], and counts the program already returns in public fields.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod hostspeed;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod timed_source;
pub mod validate;
pub mod workloads;
