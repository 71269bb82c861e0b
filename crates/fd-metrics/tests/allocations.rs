//! What a trace and its analysis cost in heap, counted by a byte-counting
//! global allocator (live bytes = requested − freed, the pattern of
//! `fd-cluster`'s `footprint.rs`). Requested bytes, not RSS, and only the
//! test thread's, so the numbers repeat exactly: the harness's own
//! threads allocate while a test runs.
//!
//! A trace stores one `f64` instant per transition: the recorder's vector
//! grows by doubling, so it holds at most 16 B a transition, and an exact
//! copy holds 8. `AccuracyAnalysis::of_trace` is a fold of scalars and the
//! trace's sample iterators borrow it: neither allocates.

use fd_metrics::{AccuracyAnalysis, FdOutput, TraceRecorder, TransitionTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// `const`-initialised and free of `Drop`, so the allocator can touch
// them from any thread at any time without allocating itself.
thread_local! {
    /// Bytes this thread requested and has not freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The largest `LIVE` since the last [`Counts::now`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// This thread's allocation and reallocation calls.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn grow(by: isize) {
    let live = LIVE.get() + by;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
    CALLS.set(CALLS.get() + 1);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.set(LIVE.get() - layout.size() as isize);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator readings at one instant; [`Counts::now`] restarts the peak.
struct Counts {
    live: isize,
    calls: usize,
}

impl Counts {
    fn now() -> Self {
        let live = LIVE.get();
        PEAK.set(live);
        Counts {
            live,
            calls: CALLS.get(),
        }
    }

    /// Bytes requested since `self` and still live.
    fn live_since(&self) -> isize {
        LIVE.get() - self.live
    }

    /// The most bytes live at once since `self`, above its level.
    fn peak_since(&self) -> isize {
        PEAK.get() - self.live
    }

    fn calls_since(&self) -> usize {
        CALLS.get() - self.calls
    }
}

const CYCLES: usize = 50_000;
/// Two transitions a cycle.
const TRANSITIONS: isize = 2 * CYCLES as isize;

/// Trust 0.75, suspect 0.25 per unit of time, polled three times a cycle.
fn record() -> TransitionTrace {
    let mut rec = TraceRecorder::new(0.0, FdOutput::Trust);
    for k in 0..CYCLES {
        let base = k as f64;
        rec.record(base + 0.5, FdOutput::Trust);
        rec.record(base + 0.75, FdOutput::Suspect);
        rec.record(base + 1.0, FdOutput::Trust);
    }
    rec.finish(CYCLES as f64 + 0.5)
}

#[test]
fn trace_costs_eight_bytes_a_transition_and_its_analysis_nothing() {
    let before = Counts::now();
    let trace = record();
    assert_eq!(trace.transitions().len() as isize, TRANSITIONS);
    let peak = before.peak_since();
    let held = before.live_since();
    assert!(
        peak <= 16 * TRANSITIONS,
        "recorder peaked at {peak} B for {TRANSITIONS}"
    );
    assert!(
        (8 * TRANSITIONS..=16 * TRANSITIONS).contains(&held),
        "trace holds {held} B for {TRANSITIONS} transitions"
    );

    let before = Counts::now();
    let copy = trace.clone();
    assert_eq!(
        before.live_since(),
        8 * TRANSITIONS,
        "an exact copy is 8 B a transition"
    );
    let whole = trace.restrict(trace.start(), trace.end());
    assert_eq!(before.live_since(), 16 * TRANSITIONS, "so is a restriction");
    assert_eq!((&copy, &whole), (&trace, &trace));
    drop((copy, whole));

    let before = Counts::now();
    let acc = AccuracyAnalysis::of_trace(&trace);
    assert_eq!(
        (before.calls_since(), before.peak_since()),
        (0, 0),
        "of_trace allocated"
    );
    assert_eq!(acc.mistake_count(), CYCLES);
    assert_eq!(acc.mean_mistake_recurrence(), Some(1.0));

    let before = Counts::now();
    let suspicions = trace.transitions().filter(|tr| tr.to.is_suspect()).count();
    let last = trace.transitions().last();
    let s = trace.s_transition_times().count() + trace.t_transition_times().count();
    let tmr: f64 = trace.mistake_recurrences().sum();
    let tm: f64 = trace.mistake_durations().sum();
    let tg: f64 = trace.good_periods().sum();
    let trusted: f64 = trace.trust_segments().map(|seg| seg.duration()).sum();
    assert_eq!(
        (before.calls_since(), before.peak_since()),
        (0, 0),
        "an iterator allocated"
    );
    assert_eq!((suspicions, s), (CYCLES, 2 * CYCLES));
    assert_eq!(last.map(|tr| tr.at), Some(CYCLES as f64));
    assert!(tmr > 0.0 && tm > 0.0 && tg > 0.0 && trusted > 0.0);

    let before = Counts::now();
    let samples = trace.sample_forward_good_periods(10, &mut StdRng::seed_from_u64(1));
    assert_eq!(samples.len(), 10);
    assert_eq!(before.live_since(), 8 * 10, "only the samples themselves");
}
