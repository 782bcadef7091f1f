//! # multimap-bench — experiment harness
//!
//! Regenerates every figure of the paper's evaluation (Section 5). Each
//! `figN` module produces the data behind one figure; the `figures`
//! binary dispatches on the command line and writes TSV files next to a
//! human-readable table.
//!
//! Three scales are supported: `Scale::Paper` uses the paper's dataset
//! sizes (a 259³ synthetic chunk, the (591,75,25,25) OLAP chunk, the
//! full earthquake configuration); `Scale::Quick` shrinks everything
//! proportionally for smoke tests and CI; `Scale::Large` keeps the
//! quick figure datasets but streams tens of millions of requests
//! through the [`selection`] throughput bench.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod backends;
pub mod fig1;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod figure_plots;
pub mod gate;
pub mod harness;
pub mod model_fig;
pub mod pagecache;
pub mod plot;
pub mod selection;
pub mod serving;

pub use harness::{Scale, Table};
