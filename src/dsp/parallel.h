// Deterministic parallel fan-out, shared by the design flow (its two
// branches, the HBF search's digit budgets, the verify chains) and the
// verification harness (property cases).
//
// parallel_for_index runs a closure over [0, n) on a small worker pool,
// claiming indices through a shared atomic so the mapping from index to
// work item is fixed regardless of worker count or interleaving: callers
// derive per-item work and seeds from the index and write results to
// per-index slots, which keeps every result reproducible under any
// DSADC_VERIFY_THREADS setting (including 1).
//
// The pool is intentionally minimal: threads live for one call (so a body
// may itself call parallel_for_index), the lowest-index exception thrown
// by any worker is rethrown on the caller once all workers have joined,
// and a worker count of 1 (or n <= 1) runs inline on the calling thread
// with zero synchronization.
#pragma once

#include <cstddef>
#include <functional>

namespace dsadc::dsp {

/// Worker count for parallel_for_index: DSADC_VERIFY_THREADS if set to a
/// positive integer, otherwise std::thread::hardware_concurrency()
/// (minimum 1). Re-read on every call so tests can override per-run.
std::size_t verify_thread_count();

/// Invoke `body(i)` for every i in [0, n), distributing indices over
/// `threads` workers (0 = verify_thread_count()). Indices are claimed
/// dynamically, so call order across workers is unspecified -- bodies must
/// derive all randomness from `i`, not from shared mutable state. If any
/// body throws, higher indices not yet claimed are skipped and the
/// exception of the lowest failing index is rethrown after all workers
/// join: every lower index was claimed first and ran to completion, so
/// the caller sees the exception a serial loop over [0, n) would throw.
void parallel_for_index(std::size_t n,
                        const std::function<void(std::size_t)>& body,
                        std::size_t threads = 0);

}  // namespace dsadc::dsp
