//! paper_shapes: every table and figure of the paper's §7–§8 and
//! Appendix A in one run, each checked against the shape the paper reports.
//!
//! A section prints its paper-vs-measured table, writes its CSV under
//! `results/` (or `SMOL_RESULTS`), and then checks its shape through one
//! [`Gate`]: an ordering, a crossover, "lowest error" — never an absolute
//! number. A shape this tree does not reproduce is printed as "not
//! reproduced" with its numbers and is not asserted. Timed comparisons go
//! through the shared paired estimator (`smol_bench::measure`).
//! `docs/PAPER_SHAPES.md` lists every shape with its reading.
//!
//! Exits non-zero when an asserted shape fails. `SMOL_QUICK=1` shrinks
//! sample counts (CI); a reproduction run leaves it unset:
//!
//! ```sh
//! SMOL_QUICK=1 cargo run --release -p smol_bench --bin paper_shapes
//! ```
#![deny(unsafe_code)]

mod decode;
mod pipeline;
mod stills;
mod tables;
mod video;

use smol_bench::Gate;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut gate = Gate::new("paper_shapes");
    tables::table1(&mut gate);
    tables::table4();
    tables::table5(&mut gate);
    tables::table6();
    tables::section7(&mut gate);
    decode::figure1(&mut gate);
    decode::figure3(&mut gate);
    pipeline::table3_and_section82(&mut gate);
    pipeline::table8(&mut gate);
    pipeline::figures7_and_8(&mut gate);
    pipeline::figure10(&mut gate);
    stills::figures4_to_6(&mut gate);
    video::figure9(&mut gate);
    gate.finish()
}
