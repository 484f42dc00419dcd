//! A deterministic work-stealing fork-join scheduler over
//! `std::thread::scope`.
//!
//! The detector's fan-out points (context enumeration roots, per-site
//! flow matching, refinement batches, report building) are all
//! embarrassingly parallel maps over an indexed work list. This crate
//! provides exactly that shape — no external crates — with three
//! properties the detector relies on:
//!
//! * **deterministic merge order** — each worker writes its result into
//!   the slot of the item it claimed, so the output `Vec` is always in
//!   input order regardless of which thread ran which item;
//! * **bounded threads** — at most `jobs` workers exist at a time, and
//!   `jobs == 0` resolves to the machine's available parallelism;
//! * **skew tolerance** — items are partitioned into contiguous
//!   per-worker ranges, and a worker that drains its own range steals
//!   half of the largest remaining range, so one expensive item (or an
//!   expensive cluster) never serializes the tail of the run.
//!
//! Small inputs skip the thread pool entirely: the first item is run
//! inline as a probe, and when the estimated remaining work would not
//! amortize thread spawning the whole map stays inline. The *results*
//! are identical either way — only the schedule adapts.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Estimated remaining wall-clock below which `parallel_map` finishes
/// inline instead of spawning worker threads. Spawning a scoped pool
/// costs tens of microseconds per thread; for sub-millisecond maps (the
/// eight Table-1 subjects, tiny fuzz batches) that overhead used to
/// exceed the work itself.
const SPAWN_THRESHOLD: Duration = Duration::from_millis(2);

/// Resolves a `jobs` knob: `0` means "use the machine", anything else is
/// taken literally.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs != 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// One worker's claimable range of item indices, packed `(lo, hi)` into
/// a single atomic word so owner pops and thief splits are both plain
/// compare-exchanges on one cell.
struct Range(AtomicU64);

impl Range {
    fn new(lo: usize, hi: usize) -> Range {
        Range(AtomicU64::new(Self::pack(lo as u64, hi as u64)))
    }

    fn pack(lo: u64, hi: u64) -> u64 {
        (lo << 32) | hi
    }

    fn unpack(word: u64) -> (u64, u64) {
        (word >> 32, word & 0xffff_ffff)
    }

    /// Claims the front index of the range (owner side).
    fn pop_front(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = Self::unpack(cur);
            if lo >= hi {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                Self::pack(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo as usize),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Steals the back half of the range (thief side), returning the
    /// stolen `[mid, hi)` interval.
    fn steal_half(&self) -> Option<(usize, usize)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = Self::unpack(cur);
            if lo >= hi {
                return None;
            }
            // Leave the front item with the owner; take the back half.
            let mid = lo + (hi - lo).div_ceil(2);
            if mid >= hi {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                Self::pack(lo, mid),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((mid as usize, hi as usize)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Remaining length (racy snapshot, used only to pick a steal
    /// victim).
    fn len(&self) -> usize {
        let (lo, hi) = Self::unpack(self.0.load(Ordering::Relaxed));
        hi.saturating_sub(lo) as usize
    }

    /// Installs a freshly stolen interval. Only called by the owner of
    /// an empty range, so a plain store is race-free with other thieves
    /// (they skip empty ranges).
    fn install(&self, lo: usize, hi: usize) {
        self.0
            .store(Self::pack(lo as u64, hi as u64), Ordering::Release);
    }
}

/// Write-once result slots shared across the worker scope. Safety rests
/// on the scheduler's exactly-once claim: every index is popped or
/// stolen by exactly one worker, which is the only writer of that slot,
/// and all workers are joined (scope exit) before any slot is read.
struct Slots<R> {
    cells: Vec<UnsafeCell<MaybeUninit<R>>>,
}

unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    fn new(n: usize) -> Slots<R> {
        Slots {
            cells: (0..n)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
        }
    }

    /// # Safety
    ///
    /// `i` must be claimed by exactly one worker, exactly once.
    unsafe fn write(&self, i: usize, value: R) {
        (*self.cells[i].get()).write(value);
    }

    /// # Safety
    ///
    /// Every index in `filled` must have been written exactly once, and
    /// all writers joined.
    unsafe fn into_vec(self, filled: usize) -> Vec<R> {
        self.cells
            .into_iter()
            .take(filled)
            .map(|cell| cell.into_inner().assume_init())
            .collect()
    }
}

/// Items handed out to workers: taken exactly once each, through the
/// range scheduler's exactly-once index claim.
struct Items<T> {
    cells: Vec<UnsafeCell<MaybeUninit<T>>>,
}

unsafe impl<T: Send> Sync for Items<T> {}

impl<T> Items<T> {
    fn new(items: Vec<T>) -> Items<T> {
        Items {
            cells: items
                .into_iter()
                .map(|t| UnsafeCell::new(MaybeUninit::new(t)))
                .collect(),
        }
    }

    /// # Safety
    ///
    /// `i` must be claimed by exactly one worker, exactly once.
    unsafe fn take(&self, i: usize) -> T {
        std::mem::replace(&mut *self.cells[i].get(), MaybeUninit::uninit()).assume_init()
    }
}

/// Maps `f` over `items` with up to `jobs` worker threads, returning the
/// results in input order.
///
/// Each worker owns a contiguous range of indices and steals half of the
/// largest remaining range when its own drains, so uneven item costs
/// balance without per-item locking. Each result lands at its item's
/// index — the output is byte-identical to the sequential map. `jobs <= 1`
/// (after [`effective_jobs`] resolution), tiny item counts, and maps
/// whose probed first item suggests the whole run is cheaper than thread
/// spawning all run inline with no threads at all.
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len().max(1));
    if jobs <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Probe: run the first item inline and estimate the remaining work.
    // Small maps finish inline — spawning a pool for microseconds of
    // work is the chunk-granularity pessimization this replaces.
    let n = items.len();
    let mut items = items;
    let rest = items.split_off(1);
    let first_item = items.pop().expect("len checked above");
    let probe_start = Instant::now();
    let first = f(first_item);
    let per_item = probe_start.elapsed();
    if per_item.saturating_mul((n - 1) as u32) < SPAWN_THRESHOLD {
        let mut out = Vec::with_capacity(n);
        out.push(first);
        out.extend(rest.into_iter().map(f));
        return out;
    }

    // Parallel phase over the remaining n-1 items. Slot i holds the
    // result of original index i+1.
    let m = rest.len();
    let jobs = jobs.min(m);
    let work = Items::new(rest);
    let slots: Slots<R> = Slots::new(m);
    let ranges: Vec<Range> = (0..jobs)
        .map(|w| Range::new(w * m / jobs, (w + 1) * m / jobs))
        .collect();
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let work = &work;
            let slots = &slots;
            let ranges = &ranges;
            let f = &f;
            scope.spawn(move || loop {
                while let Some(i) = ranges[w].pop_front() {
                    // SAFETY: index i was claimed exactly once by the
                    // range scheduler; this worker is its only toucher.
                    let item = unsafe { work.take(i) };
                    let result = f(item);
                    unsafe { slots.write(i, result) };
                }
                // Own range drained: steal half of the largest victim.
                let victim = (0..ranges.len())
                    .filter(|&v| v != w)
                    .max_by_key(|&v| ranges[v].len())
                    .filter(|&v| ranges[v].len() > 0);
                let Some(victim) = victim else { break };
                match ranges[victim].steal_half() {
                    Some((lo, hi)) => ranges[w].install(lo, hi),
                    // Lost the race; rescan for another victim.
                    None => std::hint::spin_loop(),
                }
            });
        }
    });

    // SAFETY: the scope joined every worker; ranges partitioned [0, m)
    // and every index was claimed exactly once, so every slot is
    // initialized.
    let tail = unsafe { slots.into_vec(m) };
    let mut out = Vec::with_capacity(n);
    out.push(first);
    out.extend(tail);
    out
}

/// Like [`parallel_map`], but each item runs under `catch_unwind`: a
/// panicking worker quarantines *that item* (its slot becomes
/// `Err(panic message)`) instead of killing the whole run, and the
/// worker thread moves on to the next item.
///
/// The inline (`jobs <= 1`) path isolates identically, so the output —
/// including which items are quarantined — is byte-identical at any
/// job count. The closure must leave shared state consistent on panic;
/// the detector's phases only read shared inputs, so this holds.
pub fn parallel_map_isolated<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let run = |item: T| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(panic_message);
    parallel_map(jobs, items, run)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_resolves_to_machine_width() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn range_pop_and_steal_partition_exactly() {
        let r = Range::new(0, 10);
        assert_eq!(r.pop_front(), Some(0));
        let (lo, hi) = r.steal_half().expect("stealable");
        // Thief took the back half; owner keeps the front.
        assert!(lo > 1 && hi == 10, "stole [{lo}, {hi})");
        let mut owned = Vec::new();
        while let Some(i) = r.pop_front() {
            owned.push(i);
        }
        let stolen: Vec<usize> = (lo..hi).collect();
        let mut all = owned.clone();
        all.extend(&stolen);
        all.sort_unstable();
        assert_eq!(all, (1..10).collect::<Vec<_>>(), "no index lost or doubled");
    }

    #[test]
    fn steal_leaves_singleton_ranges_alone() {
        let r = Range::new(3, 4);
        assert_eq!(r.steal_half(), None, "a lone item stays with its owner");
        assert_eq!(r.pop_front(), Some(3));
        assert_eq!(r.steal_half(), None);
    }

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 4, 8] {
            assert_eq!(parallel_map(jobs, items.clone(), |x| x * x), expected);
        }
    }

    #[test]
    fn uneven_costs_still_merge_deterministically() {
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(4, items.clone(), |x| {
            // Make early items slow so late items finish first, and the
            // probe slow enough to defeat the inline fallback.
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_tail_is_stolen_not_serialized() {
        // One range holds all the slow items; thieves must drain it.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(8, items.clone(), |x| {
            if x >= 56 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x + 1
        });
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_maps_run_inline() {
        // Each item is sub-microsecond: the probe must keep the whole
        // map on the calling thread. Observable via thread identity.
        let main_thread = std::thread::current().id();
        let out = parallel_map(8, (0..8u32).collect(), |x| (x, std::thread::current().id()));
        assert!(
            out.iter().all(|(_, tid)| *tid == main_thread),
            "cheap 8-item map must not spawn workers"
        );
        assert_eq!(
            out.iter().map(|(x, _)| *x).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn expensive_maps_do_spawn() {
        let main_thread = std::thread::current().id();
        let out = parallel_map(4, (0..16u32).collect(), |x| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            (x, std::thread::current().id())
        });
        assert!(
            out.iter().skip(1).any(|(_, tid)| *tid != main_thread),
            "millisecond items must fan out"
        );
        assert_eq!(
            out.iter().map(|(x, _)| *x).collect::<Vec<_>>(),
            (0..16).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_and_single_item_lists() {
        assert_eq!(parallel_map(8, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(8, vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        // Excess workers exit immediately; every slot still fills.
        assert_eq!(
            parallel_map(64, vec![1u32, 2, 3], |x| x * 10),
            vec![10, 20, 30]
        );
        let out = parallel_map_isolated(64, vec![1u32, 2], |x| x);
        assert_eq!(out, vec![Ok(1), Ok(2)]);
    }

    #[test]
    fn isolated_empty_input() {
        assert!(parallel_map_isolated(8, Vec::<u32>::new(), |x| x).is_empty());
    }

    #[test]
    fn panicking_item_is_quarantined_in_place() {
        // Quarantine must hit exactly the poisoned item, at its input
        // position, with the others unaffected — at any job count.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        for jobs in [1usize, 2, 8] {
            let items: Vec<u32> = (0..16).collect();
            let out = parallel_map_isolated(jobs, items, |x| {
                if x == 5 {
                    panic!("injected worker panic at item {x}");
                }
                x * 2
            });
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("injected worker panic"), "jobs={jobs}: {msg}");
                } else {
                    assert_eq!(*r, Ok(i as u32 * 2), "jobs={jobs}");
                }
            }
        }
        std::panic::set_hook(hook);
    }

    #[test]
    fn panicking_probe_item_is_quarantined() {
        // Item 0 is the inline probe; its panic must quarantine like any
        // other item's.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = parallel_map_isolated(4, (0..8u32).collect(), |x| {
            if x == 0 {
                panic!("probe panic");
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        });
        std::panic::set_hook(hook);
        assert!(out[0].as_ref().unwrap_err().contains("probe panic"));
        for (i, r) in out.iter().enumerate().skip(1) {
            assert_eq!(*r, Ok(i as u32));
        }
    }

    #[test]
    fn degraded_results_are_deterministic_across_jobs() {
        // The satellite contract: a run with quarantined items yields
        // the same Vec (same Ok values, same Err messages, same
        // positions) for --jobs 1, 2, and 8.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let runs: Vec<Vec<Result<u32, String>>> = [1usize, 2, 8]
            .into_iter()
            .map(|jobs| {
                parallel_map_isolated(jobs, (0..32u32).collect(), |x| {
                    if x % 11 == 3 {
                        panic!("poisoned item {x}");
                    }
                    x + 100
                })
            })
            .collect();
        std::panic::set_hook(hook);
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        assert_eq!(runs[0][3], Err("poisoned item 3".to_string()));
    }

    #[test]
    fn many_items_many_jobs_stress() {
        // Exercise the stealing paths hard: 10k items, heavy thread
        // pressure, verify the permutation-free output.
        let items: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x ^ 0xabcd).collect();
        let out = parallel_map(16, items, |x| {
            if x % 997 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x ^ 0xabcd
        });
        assert_eq!(out, expected);
    }
}
