//! The one check / report / exit-code path every gated binary shares.
//!
//! A [`Gate`] collects named checks as a binary runs, prints each as it is
//! made, and turns the tally into the process exit status at the end:
//!
//! ```
//! use smol_bench::Gate;
//! let mut gate = Gate::new("example");
//! gate.check(2.3 >= 2.0, "fast path ≥ 2x the reference (2.30x)");
//! gate.observe(false, "a shape this tree does not reproduce");
//! assert_eq!(gate.status(), 0);
//! ```

use std::fmt::Display;
use std::process::ExitCode;

/// Pass/fail bookkeeping for one gated binary.
#[derive(Debug)]
pub struct Gate {
    name: &'static str,
    checks: usize,
    failures: Vec<String>,
}

impl Gate {
    pub fn new(name: &'static str) -> Self {
        Gate {
            name,
            checks: 0,
            failures: Vec::new(),
        }
    }

    /// An asserted check: prints `PASS` or `FAIL` beside `what`, and a
    /// failure makes [`Gate::finish`] exit non-zero. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl Display) -> bool {
        self.checks += 1;
        println!("{} {what}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            self.failures.push(what.to_string());
        }
        ok
    }

    /// A printed, unasserted reading: a shape the paper reports that this
    /// tree does not reproduce reliably (listed in `docs/PAPER_SHAPES.md`).
    pub fn observe(&mut self, holds: bool, what: impl Display) {
        let verdict = if holds { "holds" } else { "not reproduced" };
        println!("NOTE ({verdict}, not asserted) {what}");
    }

    /// 0 when every check passed, 1 otherwise.
    pub fn status(&self) -> u8 {
        u8::from(!self.failures.is_empty())
    }

    /// Prints the tally (and each failure again, so the log ends with
    /// them) and returns the process exit status.
    pub fn finish(self) -> ExitCode {
        let passed = self.checks - self.failures.len();
        println!("\n{}: {passed}/{} checks passed", self.name, self.checks);
        for failure in &self.failures {
            eprintln!("FAIL: {failure}");
        }
        ExitCode::from(self.status())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_failed_check_fails_the_gate_and_observations_never_do() {
        let mut gate = Gate::new("t");
        assert!(gate.check(true, "one"));
        gate.observe(false, "unasserted");
        assert_eq!(gate.status(), 0);
        assert!(!gate.check(false, "two"));
        assert!(gate.check(true, "three"));
        assert_eq!(gate.status(), 1);
        assert_eq!(gate.failures, ["two"]);
        assert_eq!(gate.checks, 3);
    }

    #[test]
    fn finish_maps_the_status_onto_the_exit_code() {
        assert_eq!(Gate::new("t").finish(), ExitCode::SUCCESS);
        let mut gate = Gate::new("t");
        gate.check(false, "x");
        assert_eq!(gate.finish(), ExitCode::FAILURE);
    }
}
