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
//! Each section's wall time is printed as it finishes, and the total at
//! the end. Exits non-zero when an asserted shape fails. `SMOL_QUICK=1`
//! shrinks sample counts (CI); a reproduction run leaves it unset:
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
use std::time::Instant;

/// A section's name and the function that runs it.
type Section = (&'static str, fn(&mut Gate));

/// Every section in paper order.
const SECTIONS: [Section; 13] = [
    ("Table 1", tables::table1),
    ("Table 4", |_| tables::table4()),
    ("Table 5", tables::table5),
    ("Table 6", |_| tables::table6()),
    ("Section 7", tables::section7),
    ("Figure 1", decode::figure1),
    ("Figure 3", decode::figure3),
    ("Table 3 and Section 8.2", pipeline::table3_and_section82),
    ("Table 8", pipeline::table8),
    ("Figures 7 and 8", pipeline::figures7_and_8),
    ("Figure 10", pipeline::figure10),
    ("Figures 4 to 6", stills::figures4_to_6),
    ("Figure 9", video::figure9),
];

fn main() -> ExitCode {
    let mut gate = Gate::new("paper_shapes");
    let start = Instant::now();
    for (name, run) in SECTIONS {
        let t = Instant::now();
        run(&mut gate);
        println!(
            "paper_shapes: {name} took {:.1} s",
            t.elapsed().as_secs_f64()
        );
    }
    println!(
        "paper_shapes: {} sections took {:.1} s",
        SECTIONS.len(),
        start.elapsed().as_secs_f64()
    );
    gate.finish()
}
