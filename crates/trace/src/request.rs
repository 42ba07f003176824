//! Request-scoped attribution: a thread-local "current request id"
//! that spans stamp themselves with, plus an always-on per-request
//! statistics accumulator.
//!
//! The span collector ([`crate::Collector`]) is a process singleton,
//! so span *recording* is best-effort under concurrency — but request
//! attribution must not be. This module keeps the two concerns apart:
//!
//! * [`scope`] installs a request id on the calling thread. Every
//!   span opened on that thread while the scope is active carries the
//!   id in [`crate::Event::request`], and instrumented subsystems
//!   (the stage store, the PCG solver) fold their events into the
//!   scope's [`RequestStats`] via [`note_cache`] / [`note_pcg`].
//! * The stats path is always on and allocation-free: with no scope
//!   installed, every `note_*` call is one thread-local `Cell` read
//!   and a branch, so pipeline code can stay instrumented in CLI and
//!   bench builds that never mint request ids.
//!
//! Work handed to other threads (e.g. a pool worker) does NOT
//! inherit the scope — cross-thread attribution is the handoff's job
//! (carry the id in the job and report results back explicitly).

use std::cell::Cell;

/// Per-request event counts accumulated while a [`scope`] is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Stage-store lookups that found their artifact (including
    /// misses coalesced onto another caller's in-flight computation).
    pub cache_hits: u64,
    /// Stage-store lookups that had to compute.
    pub cache_misses: u64,
    /// PCG iterations across every solve the request triggered.
    pub pcg_iterations: u64,
    /// Number of PCG solves the request triggered.
    pub pcg_solves: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Ctx {
    id: u64,
    stats: RequestStats,
}

thread_local! {
    static CURRENT: Cell<Ctx> = const { Cell::new(Ctx { id: 0, stats: RequestStats { cache_hits: 0, cache_misses: 0, pcg_iterations: 0, pcg_solves: 0 } }) };
}

/// The request id active on this thread (`0` when none).
#[must_use]
pub fn current() -> u64 {
    CURRENT.with(|c| c.get().id)
}

/// Installs `id` as the calling thread's current request until the
/// returned guard drops (restoring whatever was active before, so
/// scopes nest). Ids are caller-minted; `0` means "no request" and
/// installs an inert scope.
#[must_use = "the request scope ends when the guard drops; bind it"]
pub fn scope(id: u64) -> RequestScope {
    let previous = CURRENT.with(|c| {
        c.replace(Ctx {
            id,
            stats: RequestStats::default(),
        })
    });
    RequestScope {
        previous: Some(previous),
    }
}

/// Guard for an active request scope; see [`scope`].
#[derive(Debug)]
pub struct RequestScope {
    previous: Option<Ctx>,
}

impl RequestScope {
    /// Ends the scope and returns the statistics accumulated on this
    /// thread while it was active.
    #[must_use]
    pub fn finish(mut self) -> RequestStats {
        self.restore().stats
    }

    fn restore(&mut self) -> Ctx {
        match self.previous.take() {
            Some(previous) => CURRENT.with(|c| c.replace(previous)),
            None => Ctx::default(),
        }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        if self.previous.is_some() {
            let _ = self.restore();
        }
    }
}

fn note(f: impl FnOnce(&mut RequestStats)) {
    CURRENT.with(|c| {
        let mut ctx = c.get();
        if ctx.id == 0 {
            return;
        }
        f(&mut ctx.stats);
        c.set(ctx);
    });
}

/// Folds one stage-store lookup into the active request's stats
/// (no-op without a scope).
pub fn note_cache(hit: bool) {
    note(|s| {
        if hit {
            s.cache_hits += 1;
        } else {
            s.cache_misses += 1;
        }
    });
}

/// Folds one finished PCG solve into the active request's stats
/// (no-op without a scope).
pub fn note_pcg(iterations: u64) {
    note(|s| {
        s.pcg_iterations += iterations;
        s.pcg_solves += 1;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notes_are_inert_without_a_scope() {
        note_cache(true);
        note_pcg(7);
        assert_eq!(current(), 0);
    }

    #[test]
    fn scope_accumulates_and_restores() {
        assert_eq!(current(), 0);
        let outer = scope(11);
        note_cache(true);
        {
            let inner = scope(22);
            assert_eq!(current(), 22);
            note_cache(false);
            note_cache(false);
            note_pcg(3);
            let stats = inner.finish();
            assert_eq!(stats.cache_misses, 2);
            assert_eq!(stats.cache_hits, 0);
            assert_eq!(stats.pcg_iterations, 3);
            assert_eq!(stats.pcg_solves, 1);
        }
        // The outer scope is live again and kept its own counts.
        assert_eq!(current(), 11);
        note_cache(true);
        let stats = outer.finish();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(current(), 0);
    }

    #[test]
    fn dropping_the_guard_restores_without_finish() {
        {
            let _scope = scope(5);
            assert_eq!(current(), 5);
        }
        assert_eq!(current(), 0);
    }

    #[test]
    fn spans_carry_the_active_request_id() {
        let _guard = crate::span::COLLECTOR_GUARD
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let collector = crate::Collector::install().expect("no collector active");
        {
            let _outside = crate::span("outside");
        }
        let request = scope(0xdead_beef);
        {
            let _inside = crate::span("inside");
        }
        let _ = request.finish();
        let trace = collector.finish();
        let find = |name: &str| {
            trace
                .events
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(find("outside").request, 0);
        assert_eq!(find("inside").request, 0xdead_beef);
    }
}
