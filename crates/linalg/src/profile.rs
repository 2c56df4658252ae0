//! Solver cost profiling: how many Laplacian applications an estimate
//! actually burned.
//!
//! Berry et al. ("Analyzing Prospects for Quantum Advantage in TDA")
//! frame QTDA cost in **Laplacian applications per estimate** — the
//! quantity the iterative solvers here spend but, until this module,
//! never surfaced. A [`SolveProfile`] carries those counts: matvecs,
//! Lanczos iterations and invariant-subspace restarts.
//!
//! Collection is scoped and thread-local: [`profiled`] installs an
//! accumulator for the duration of a closure and returns what the
//! enclosed solver calls ([`lanczos_ritz_values`], the power
//! iterations) recorded.
//! Scopes nest — an inner scope's counts also roll up into its outer
//! scope — and each scope lives on the thread that opened it, which is
//! exactly the shape of the serving stack's work units (one unit, one
//! thread, one profile). Outside any scope the recording hooks are a
//! thread-local check and a no-op, so unprofiled callers pay nothing
//! measurable; and since the hooks only *count*, profiling can never
//! perturb seeds, ordering, or numeric results.
//!
//! [`lanczos_ritz_values`]: crate::lanczos::lanczos_ritz_values

use std::cell::RefCell;

/// Iterative-solver cost counters for one profiled scope.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveProfile {
    /// Operator applications (`A·x`). The paper's headline cost unit.
    pub matvecs: u64,
    /// Lanczos iterations (basis columns advanced).
    pub lanczos_iterations: u64,
    /// Invariant-subspace restarts: fresh seeded directions injected
    /// when a residual vanished.
    pub restarts: u64,
}

impl SolveProfile {
    /// Folds another profile into this one: counts add.
    pub fn merge(&mut self, other: &SolveProfile) {
        self.matvecs += other.matvecs;
        self.lanczos_iterations += other.lanczos_iterations;
        self.restarts += other.restarts;
    }

    /// Whether nothing was recorded (e.g. a dense-route or cache-hit
    /// unit that never touched an iterative solver).
    pub fn is_empty(&self) -> bool {
        *self == SolveProfile::default()
    }
}

thread_local! {
    /// The stack of open profiling scopes on this thread; empty means
    /// profiling is off and every hook is a no-op.
    static SCOPES: RefCell<Vec<SolveProfile>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a fresh profiling scope on this thread and returns
/// its result alongside everything the enclosed solver calls recorded.
/// Scopes nest: the inner scope's counts also roll up into the outer
/// one (even on unwind), so a coarse scope never under-reports.
pub fn profiled<T>(f: impl FnOnce() -> T) -> (T, SolveProfile) {
    /// Pops the scope on drop so a panicking `f` cannot leak it.
    struct ScopeGuard;
    impl Drop for ScopeGuard {
        fn drop(&mut self) {
            SCOPES.with(|scopes| {
                let mut scopes = scopes.borrow_mut();
                if let Some(finished) = scopes.pop() {
                    if let Some(outer) = scopes.last_mut() {
                        outer.merge(&finished);
                    }
                }
            });
        }
    }
    SCOPES.with(|scopes| scopes.borrow_mut().push(SolveProfile::default()));
    let guard = ScopeGuard;
    let out = f();
    let profile = SCOPES.with(|scopes| *scopes.borrow().last().expect("profile scope still open"));
    drop(guard);
    (out, profile)
}

/// Records into the innermost open scope on this thread, if any. The
/// solvers call this; it is public so layers above can fold in costs
/// of their own.
#[inline]
pub fn record(f: impl FnOnce(&mut SolveProfile)) {
    SCOPES.with(|scopes| {
        if let Some(top) = scopes.borrow_mut().last_mut() {
            f(top);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_only_inside_a_scope() {
        record(|p| p.matvecs += 100); // no scope: dropped
        let ((), profile) = profiled(|| record(|p| p.matvecs += 3));
        assert_eq!(profile.matvecs, 3);
        let ((), empty) = profiled(|| ());
        assert!(empty.is_empty());
    }

    #[test]
    fn nested_scopes_roll_up() {
        let ((), outer) = profiled(|| {
            record(|p| p.matvecs += 1);
            let ((), inner) = profiled(|| record(|p| p.matvecs += 10));
            assert_eq!(inner.matvecs, 10);
        });
        assert_eq!(outer.matvecs, 11, "inner counts roll up into the outer scope");
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = SolveProfile { matvecs: 2, lanczos_iterations: 1, restarts: 0 };
        let b = SolveProfile { matvecs: 3, lanczos_iterations: 4, restarts: 2 };
        a.merge(&b);
        assert_eq!(a, SolveProfile { matvecs: 5, lanczos_iterations: 5, restarts: 2 });
    }
}
