//! Deterministic, seed-driven task scheduling — the executor's
//! "concurrency test mode".
//!
//! The paper's algorithms must produce the exact same result set no matter
//! how Spark schedules their tasks: a similarity join whose output depends
//! on task interleaving is silently wrong. The default executor
//! ([`crate::executor::run_tasks`]) runs tasks on a real thread pool, so its
//! interleavings vary run to run and cannot be replayed. This module adds
//! the replayable counterpart:
//!
//! * a [`Schedule`] — a pure description of a task *claim order* and *slot
//!   assignment*. Installing one on a [`crate::ClusterConfig`] (via
//!   [`crate::ClusterConfig::with_schedule`]) makes every stage run the
//!   executor's one claim loop on one worker, on the calling thread,
//!   claiming tasks in that order. Same schedule + same input ⇒
//!   bit-identical execution order. The thread pool stays the default
//!   (`schedule == None`);
//! * **yield points** ([`yield_point`]): named interleaving points the
//!   engine announces at task claims, shuffle flushes and spill-run
//!   boundaries. Like the trace layer, an unarmed yield point is a single
//!   branch; a harness (or `scripts/tsan.sh` via [`arm_from_env`]) can
//!   install a hook to observe the points or to inject `thread::yield_now`
//!   for denser interleavings under ThreadSanitizer.
//!
//! The schedule-exploration harness that drives all of this is
//! [`crate::check`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// A deterministic task schedule: the order in which a stage's tasks are
/// claimed and the slot label each claim is assigned.
///
/// A schedule is pure data — [`Schedule::claim_order`] and
/// [`Schedule::slot_of`] are deterministic functions of the variant, the
/// task count and the slot count — so a run under a schedule can be
/// replayed exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Tasks run in submission order `0, 1, …, n−1` (what a single-slot
    /// thread-pool run does), slots assigned round-robin.
    Natural,
    /// Tasks run in reverse submission order, slots assigned round-robin.
    /// The cheapest "adversary": any code that accidentally relies on
    /// partition 0 being processed first breaks here.
    Reversed,
    /// Tasks run in a seeded pseudo-random permutation (Fisher–Yates over a
    /// SplitMix64 stream), slots assigned by a second seeded draw. Distinct
    /// seeds explore distinct interleavings; equal seeds replay exactly.
    Seeded(u64),
    /// Adversarial "stragglers-first" order: claims alternate between the
    /// back and the front of the queue (`n−1, 0, n−2, 1, …`), and slots are
    /// assigned in contiguous blocks so early claims pile onto slot 0 —
    /// the maximally unfair assignment a dynamic work-stealing pool would
    /// produce when one slot keeps winning the race.
    StragglersFirst,
}

impl Schedule {
    /// The order in which task indices `0..num_tasks` are claimed. Always a
    /// permutation of `0..num_tasks`.
    pub fn claim_order(&self, num_tasks: usize) -> Vec<usize> {
        match self {
            Schedule::Natural => (0..num_tasks).collect(),
            Schedule::Reversed => (0..num_tasks).rev().collect(),
            Schedule::Seeded(seed) => {
                let mut order: Vec<usize> = (0..num_tasks).collect();
                let mut state = *seed;
                // Fisher–Yates driven by SplitMix64: uniform over all
                // permutations (up to modulo bias, irrelevant here — we need
                // diversity, not statistical uniformity).
                for i in (1..num_tasks).rev() {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "j ≤ i < num_tasks — the modulus keeps the draw in usize range"
                    )]
                    let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
                order
            }
            Schedule::StragglersFirst => {
                let mut order = Vec::with_capacity(num_tasks);
                let (mut lo, mut hi) = (0usize, num_tasks);
                while lo < hi {
                    hi -= 1;
                    order.push(hi);
                    if lo < hi {
                        order.push(lo);
                        lo += 1;
                    }
                }
                order
            }
        }
    }

    /// The slot label assigned to the `position`-th claim of a stage with
    /// `num_tasks` tasks on `slots` slots. Always `< max(slots, 1)`.
    pub fn slot_of(&self, position: usize, num_tasks: usize, slots: usize) -> usize {
        let slots = slots.max(1);
        match self {
            Schedule::Natural | Schedule::Reversed => position % slots,
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the modulus keeps the draw below slots, a usize"
            )]
            Schedule::Seeded(seed) => {
                // An independent draw per position, decorrelated from the
                // claim-order stream by a fixed odd constant.
                let mut state = seed ^ (position as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (splitmix64(&mut state) % slots as u64) as usize
            }
            Schedule::StragglersFirst => {
                // Contiguous blocks: the first ⌈n/slots⌉ claims all land on
                // slot 0, and so on — the most imbalanced labelling.
                let per_slot = num_tasks.max(1).div_ceil(slots);
                (position / per_slot).min(slots - 1)
            }
        }
    }

    /// A short, stable description for reports and error messages.
    pub fn describe(&self) -> String {
        match self {
            Schedule::Natural => "natural".to_string(),
            Schedule::Reversed => "reversed".to_string(),
            Schedule::Seeded(seed) => format!("seeded({seed})"),
            Schedule::StragglersFirst => "stragglers-first".to_string(),
        }
    }
}

/// SplitMix64 (Steele et al.): a tiny, high-quality PRNG step. Used instead
/// of the `rand` crate so schedules stay dependency-free and bit-stable
/// across toolchains.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Yield points
// ---------------------------------------------------------------------------

/// The type of an installed yield-point hook: called with the site name
/// (e.g. `"executor/claim"`, `"shuffle-flush"`, `"spill-run"`).
pub type YieldHook = Arc<dyn Fn(&str) + Send + Sync>;

/// Fast-path gate for [`yield_point`]. Armed with `Release` by
/// [`install_yield_hook`] *after* the hook is stored, so an `Acquire` load
/// observing `true` also observes the hook.
static YIELD_ARMED: AtomicBool = AtomicBool::new(false);
static YIELD_HOOK: RwLock<Option<YieldHook>> = RwLock::new(None);

/// Announces a named interleaving point. A no-op behind a single branch
/// unless a hook is installed — the same discipline as the disabled
/// [`crate::trace::TraceCollector`].
///
/// The engine calls this at every task claim (`executor/claim`), at every
/// shuffle flush boundary (`shuffle-flush`) and after every spilled run
/// (`spill-run`); the join kernels add their own group-boundary points.
#[inline]
pub fn yield_point(site: &str) {
    // Acquire pairs with the Release store in `install_yield_hook`: seeing
    // the armed flag guarantees the hook write is visible.
    if !YIELD_ARMED.load(Ordering::Acquire) {
        return;
    }
    yield_point_slow(site);
}

#[cold]
fn yield_point_slow(site: &str) {
    // A poisoned lock only means a hook installer panicked; the stored
    // value is still a plain Option, so keep going with it.
    let hook = YIELD_HOOK
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    if let Some(hook) = hook {
        hook(site);
    }
}

/// Installs a process-wide yield-point hook (replacing any previous one).
/// The hook runs on whichever thread hits the yield point — it must be
/// cheap and must not call back into the engine.
pub fn install_yield_hook(hook: YieldHook) {
    *YIELD_HOOK
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(hook);
    // Release: publishes the hook write above to Acquire loads of the flag.
    YIELD_ARMED.store(true, Ordering::Release);
}

/// Removes the installed hook; yield points return to single-branch no-ops.
pub fn clear_yield_hook() {
    // Release keeps the disarm ordered after any prior hook use on this
    // thread; racing yield points may still run the old hook once.
    YIELD_ARMED.store(false, Ordering::Release);
    *YIELD_HOOK
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// Arms a `thread::yield_now` hook when the `MINISPARK_YIELD` environment
/// variable is set (to anything non-empty). Called once per process by the
/// executor, so `scripts/tsan.sh` gets denser interleavings at every
/// claim/flush/spill boundary without code changes. Idempotent.
pub fn arm_from_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        if std::env::var_os("MINISPARK_YIELD").is_some_and(|v| !v.is_empty()) {
            install_yield_hook(Arc::new(|_site| std::thread::yield_now()));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn is_permutation(order: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        order.len() == n
            && order.iter().all(|&i| {
                if i < n && !seen[i] {
                    seen[i] = true;
                    true
                } else {
                    false
                }
            })
    }

    #[test]
    fn every_schedule_yields_a_permutation() {
        for n in [0, 1, 2, 3, 7, 64, 101] {
            for s in [
                Schedule::Natural,
                Schedule::Reversed,
                Schedule::Seeded(42),
                Schedule::Seeded(u64::MAX),
                Schedule::StragglersFirst,
            ] {
                let order = s.claim_order(n);
                assert!(is_permutation(&order, n), "{s:?} n={n}: {order:?}");
            }
        }
    }

    #[test]
    fn natural_and_reversed_are_what_they_say() {
        assert_eq!(Schedule::Natural.claim_order(4), vec![0, 1, 2, 3]);
        assert_eq!(Schedule::Reversed.claim_order(4), vec![3, 2, 1, 0]);
    }

    #[test]
    fn stragglers_first_alternates_from_the_back() {
        assert_eq!(
            Schedule::StragglersFirst.claim_order(5),
            vec![4, 0, 3, 1, 2]
        );
        // Slot labels come in contiguous blocks starting at slot 0.
        let labels: Vec<usize> = (0..6)
            .map(|p| Schedule::StragglersFirst.slot_of(p, 6, 3))
            .collect();
        assert_eq!(labels, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn seeded_schedules_replay_and_differ() {
        let a = Schedule::Seeded(7).claim_order(50);
        let b = Schedule::Seeded(7).claim_order(50);
        let c = Schedule::Seeded(8).claim_order(50);
        assert_eq!(a, b, "same seed must replay exactly");
        assert_ne!(a, c, "different seeds should explore different orders");
    }

    #[test]
    fn slot_labels_are_in_range() {
        for s in [
            Schedule::Natural,
            Schedule::Reversed,
            Schedule::Seeded(3),
            Schedule::StragglersFirst,
        ] {
            for slots in [1, 2, 5] {
                for pos in 0..20 {
                    assert!(s.slot_of(pos, 20, slots) < slots, "{s:?}");
                }
            }
        }
        // Zero slots is clamped.
        assert_eq!(Schedule::Natural.slot_of(3, 4, 0), 0);
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(Schedule::Seeded(9).describe(), "seeded(9)");
        assert_eq!(Schedule::StragglersFirst.describe(), "stragglers-first");
    }

    #[test]
    fn yield_hook_fires_only_while_installed() {
        // Serialize against other tests touching the process-global hook.
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        yield_point("never-armed");
        assert_eq!(COUNT.load(Ordering::SeqCst), 0);
        install_yield_hook(Arc::new(|site| {
            if site == "probe" {
                COUNT.fetch_add(1, Ordering::SeqCst);
            }
        }));
        yield_point("probe");
        yield_point("other");
        clear_yield_hook();
        yield_point("probe");
        assert_eq!(COUNT.load(Ordering::SeqCst), 1);
    }
}
