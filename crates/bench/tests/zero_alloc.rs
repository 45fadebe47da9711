//! Proof that the [`Solver`] + [`SolveContext`] hot path is
//! allocation-free once warm.
//!
//! A counting global allocator tallies every `alloc`/`realloc` made by
//! the measuring thread. Each solver is run once to warm its context
//! (the buffers grow to the epoch's dimensions on first use), then the
//! counter is sampled around a batch of steady-state solves: the delta
//! must be exactly zero. The same check covers the batched [`Engine`]
//! and the RAIM happy path, which together form the per-epoch loop of
//! every downstream consumer, and the geometry helpers around a fix
//! (DOP, trilateration, the condition-optimal base choice), which must
//! not allocate even on their first call.
//!
//! The counters are thread-local so allocations made by other tests
//! running in parallel (and by libtest's own threads) don't pollute the
//! window — only the thread exercising the hot path is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gps_bench::{fixture_epochs, fixture_epochs_multi};
use gps_core::{
    trilaterate3, Bancroft, BaseSelection, Dlg, Dlo, Dop, Engine, Epoch, GlsPath, Measurement,
    NewtonRaphson, ParallelEngine, Raim, SolveContext, Solver, WorkerLanes,
};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // Cell-based, const-initialized, non-Drop TLS: reading it never
    // allocates, so this is safe to call from inside the allocator.
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
    }
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed on the
/// calling thread.
fn allocations_during(mut f: impl FnMut()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

fn assert_zero_alloc_after_warmup(solver: &dyn Solver, bias: f64) {
    // Epochs of varying size so buffer reuse is exercised across
    // dimension changes, not just identical repeats.
    let epochs: Vec<_> = [6usize, 8, 10, 7]
        .iter()
        .flat_map(|&m| fixture_epochs(m, 97).into_iter().take(4))
        .collect();
    assert!(!epochs.is_empty(), "fixture produced no epochs");

    let mut ctx = SolveContext::new();
    // Warm-up: lets every scratch buffer grow to the largest epoch.
    for meas in &epochs {
        let _ = solver.solve(&Epoch::new(meas, bias), &mut ctx);
    }

    let allocs = allocations_during(|| {
        for meas in &epochs {
            let result = solver.solve(&Epoch::new(meas, bias), &mut ctx);
            assert!(result.is_ok(), "{} failed on clean epoch", solver.name());
        }
    });
    assert_eq!(
        allocs,
        0,
        "{} allocated {allocs} time(s) after warm-up",
        solver.name()
    );
}

#[test]
fn newton_raphson_is_allocation_free_when_warm() {
    assert_zero_alloc_after_warmup(&NewtonRaphson::default(), 0.0);
}

#[test]
fn dlo_is_allocation_free_when_warm() {
    assert_zero_alloc_after_warmup(&Dlo::default(), 12.0);
}

#[test]
fn dlg_is_allocation_free_when_warm() {
    assert_zero_alloc_after_warmup(&Dlg::default(), 12.0);
}

/// Probe at the multi-GNSS shapes (m up to 40), with one m = 8 shape
/// among them: the dense-Ψ DLG keeps its differenced rows and Ψ in the
/// context at every m, so the warm loop must shrink and regrow those
/// buffers without allocating.
fn assert_zero_alloc_large_m(solver: &dyn Solver, label: &str) {
    let epochs: Vec<_> = [20usize, 40, 8, 28]
        .iter()
        .flat_map(|&m| fixture_epochs_multi(m, 97).into_iter().take(3))
        .collect();
    assert!(!epochs.is_empty(), "multi-GNSS fixture produced no epochs");

    let mut ctx = SolveContext::new();
    for meas in &epochs {
        let _ = solver.solve(&Epoch::new(meas, 12.0), &mut ctx);
    }

    let allocs = allocations_during(|| {
        for meas in &epochs {
            let result = solver.solve(&Epoch::new(meas, 12.0), &mut ctx);
            assert!(result.is_ok(), "{label} failed on clean epoch");
        }
    });
    assert_eq!(
        allocs, 0,
        "{label} allocated {allocs} time(s) after warm-up"
    );
}

#[test]
fn dlg_structured_gls_large_m_is_allocation_free_when_warm() {
    // The one-pass Sherman–Morrison path at the multi-GNSS shapes;
    // varying m checks that nothing is sized per epoch.
    assert_zero_alloc_large_m(&Dlg::default(), "structured-GLS DLG");
}

#[test]
fn dlg_dense_whitened_large_m_is_allocation_free_when_warm() {
    // The dense-Ψ path (the paper's DLG) must stay zero-alloc too, so
    // the θ-vs-m comparison measures the O(m³) factorization, not malloc.
    assert_zero_alloc_large_m(
        &Dlg::default().with_gls_path(GlsPath::DenseWhitened),
        "dense-whitened DLG",
    );
}

#[test]
fn bancroft_is_allocation_free_when_warm() {
    assert_zero_alloc_after_warmup(&Bancroft, 0.0);
}

/// The one-pass solvers (DLO, structured DLG, Bancroft) keep nothing in
/// the context, so even the first solve on a fresh one must not
/// allocate — at m = 8 and at the m = 40 multi-GNSS shape alike.
fn assert_zero_alloc_cold(solver: &dyn Solver, bias: f64) {
    for (m, epochs) in [
        (8, fixture_epochs(8, 97)),
        (40, fixture_epochs_multi(40, 97)),
    ] {
        let meas = epochs.first().expect("fixture produced no epoch");
        // The process-wide metric handles register on a solver's first
        // call ever; take that once on a throwaway context.
        let _ = solver.solve(&Epoch::new(meas, bias), &mut SolveContext::new());
        let allocs = allocations_during(|| {
            let mut ctx = SolveContext::new();
            let result = solver.solve(&Epoch::new(meas, bias), &mut ctx);
            assert!(result.is_ok(), "{} failed on clean epoch", solver.name());
        });
        assert_eq!(
            allocs,
            0,
            "{} allocated {allocs} time(s) on a fresh context at m = {m}",
            solver.name()
        );
    }
}

#[test]
fn dlo_is_allocation_free_from_the_first_call() {
    assert_zero_alloc_cold(&Dlo::default(), 12.0);
}

#[test]
fn dlg_structured_is_allocation_free_from_the_first_call() {
    assert_zero_alloc_cold(&Dlg::default(), 12.0);
}

#[test]
fn bancroft_is_allocation_free_from_the_first_call() {
    assert_zero_alloc_cold(&Bancroft, 0.0);
}

/// The first fixture epoch with `m` satellites (the GPS-only fixture up
/// to m = 13, the multi-GNSS one above), both seen from SRZN.
fn first_epoch(m: usize) -> Vec<Measurement> {
    let epochs = if m <= 13 {
        fixture_epochs(m, 97)
    } else {
        fixture_epochs_multi(m, 97)
    };
    epochs
        .into_iter()
        .next()
        .expect("fixture produced no epoch")
}

/// The geometry helpers around a fix — the GDOP gate, three-sphere
/// trilateration and the condition-optimal base choice — run on
/// fixed-size storage, so even their first call allocates nothing.
#[test]
fn dop_is_allocation_free_from_the_first_call() {
    let station = gps_obs::paper_stations()[0].position();
    for m in [4, 8, 40] {
        let meas = first_epoch(m);
        let allocs = allocations_during(|| {
            let dop = Dop::compute(&meas, station);
            assert!(dop.is_ok(), "DOP failed at m = {m}: {dop:?}");
        });
        assert_eq!(
            allocs, 0,
            "Dop::compute allocated {allocs} time(s) at m = {m}"
        );
    }
}

#[test]
fn trilateration_is_allocation_free_from_the_first_call() {
    let station = gps_obs::paper_stations()[0].position();
    // Exact clock-free ranges from the station, so both roots exist.
    let meas: Vec<Measurement> = first_epoch(4)
        .iter()
        .map(|m| Measurement::new(m.position, m.position.distance_to(station)))
        .collect();
    let allocs = allocations_during(|| {
        let roots = trilaterate3(&meas, 0.0);
        assert!(roots.is_ok(), "trilateration failed: {roots:?}");
    });
    assert_eq!(allocs, 0, "trilaterate3 allocated {allocs} time(s)");
}

#[test]
fn best_conditioned_base_is_allocation_free_from_the_first_call() {
    for m in [8, 40] {
        let meas = first_epoch(m);
        let allocs = allocations_during(|| {
            let base = BaseSelection::BestConditioned.select(&meas);
            assert!(base < m);
        });
        assert_eq!(
            allocs, 0,
            "BestConditioned.select allocated {allocs} time(s) at m = {m}"
        );
    }
}

#[test]
fn engine_epoch_loop_is_allocation_free_when_warm() {
    let epochs: Vec<_> = [6usize, 8, 10]
        .iter()
        .flat_map(|&m| fixture_epochs(m, 101).into_iter().take(4))
        .collect();
    assert!(!epochs.is_empty(), "fixture produced no epochs");

    let mut engine = Engine::all_solvers();
    for meas in &epochs {
        engine.run_epoch(meas, 12.0);
    }

    let allocs = allocations_during(|| {
        for meas in &epochs {
            let solved = engine.run_epoch(meas, 12.0);
            assert_eq!(solved, engine.lanes().len(), "a lane failed a clean epoch");
        }
    });
    assert_eq!(allocs, 0, "Engine allocated {allocs} time(s) after warm-up");
}

#[test]
fn parallel_worker_epoch_loop_is_allocation_free_when_warm() {
    // A pool worker's steady state is WorkerLanes::solve_into with a
    // reused outcome buffer; everything else (job boxing, the result
    // channel) happens once per batch, not once per epoch. Varying
    // epoch sizes exercise buffer reuse across dimension changes.
    let epochs: Vec<_> = [6usize, 8, 10, 7]
        .iter()
        .flat_map(|&m| fixture_epochs(m, 107).into_iter().take(4))
        .collect();
    assert!(!epochs.is_empty(), "fixture produced no epochs");

    let roster = ParallelEngine::all_solvers();
    let mut worker = WorkerLanes::new(roster.solvers());
    let mut out = Vec::new();
    for meas in &epochs {
        worker.solve_into(&Epoch::new(meas, 12.0), &mut out);
    }

    let allocs = allocations_during(|| {
        for meas in &epochs {
            worker.solve_into(&Epoch::new(meas, 12.0), &mut out);
            assert_eq!(out.len(), worker.len(), "one outcome per lane");
            assert!(out.iter().all(Result::is_ok), "a lane failed a clean epoch");
        }
    });
    assert_eq!(
        allocs, 0,
        "worker lanes allocated {allocs} time(s) after warm-up"
    );
}

#[test]
fn raim_happy_path_is_allocation_free_when_warm() {
    let epochs = fixture_epochs(8, 103);
    assert!(!epochs.is_empty(), "fixture produced no epochs");

    // Generous threshold: clean fixtures never trigger an exclusion, so
    // the wrapper should solve straight through on the caller's epoch.
    let raim = Raim::new(NewtonRaphson::default(), 1.0e6);
    let mut ctx = SolveContext::new();
    for meas in &epochs {
        let _ = raim.solve_with(&Epoch::new(meas, 0.0), &mut ctx);
    }

    let allocs = allocations_during(|| {
        for meas in &epochs {
            let result = raim.solve_with(&Epoch::new(meas, 0.0), &mut ctx);
            assert!(result.is_ok(), "RAIM failed on clean epoch");
        }
    });
    assert_eq!(allocs, 0, "RAIM allocated {allocs} time(s) after warm-up");
}
