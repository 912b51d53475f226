//! The reference benchmark of this repository: six workloads, seven
//! end-to-end metrics, seventy-one per-layer metrics. README.md explains
//! the choices; `../BENCHMARK.json` states them for the driver.

pub mod alloc;
pub mod compare;
pub mod est;
pub mod json;
pub mod orchestrate;
pub mod probes;
pub mod single;
pub mod span;
pub mod spec;
pub mod workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
