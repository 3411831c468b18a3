// Process-wide columnar trace store: the one sink for trace spans
// (trace.h) and runtime events (docs/OBSERVABILITY.md).
//
// The write path is built for many concurrent emitters: each thread
// appends events to its own staging buffer (one uncontended mutex
// acquisition, no allocation in steady state) and a background drainer
// thread batches filled buffers into per-category column files
// (writer.h). There is no global lock anywhere on the hot path; the
// global mutex is touched only when a staging buffer of kBlockEvents/4
// events is handed off.
//
// The store is off by default. It turns on when DSADC_STORE_OUT=<dir> is
// set in the environment (finalized automatically at process exit), when
// DSADC_TRACE_OUT=<file> is (see trace.h: a temp-dir store exported as a
// Chrome trace at exit), or programmatically via open()/close(). When off, emit() costs one
// relaxed atomic load and a branch; with DSADC_OBS_COMPILED_OFF every
// entry point is a constant no-op.
//
// Correlation into transactions (parent/child links, ambient channel /
// stage context) lives in tracker.h; reading a store back is reader.h.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/obs/obs.h"
#include "src/obs/store/format.h"

namespace dsadc::obs::store {

#ifdef DSADC_OBS_COMPILED_OFF

constexpr bool enabled() { return false; }
inline bool open(const std::string&) { return false; }
inline void close() {}
inline void emit(const Event&) {}
inline void emit_batch(const Event*, std::size_t) {}
inline std::uint32_t intern(std::string_view) { return 0; }
inline std::int64_t now_us() { return 0; }
inline std::uint64_t next_txn_id() { return 0; }

#else

/// True while a store is open for writing. One relaxed load; the first
/// call consults DSADC_STORE_OUT and auto-opens.
bool enabled();

/// Open a store rooted at directory `dir` (created if missing). Returns
/// false if a store is already open or the directory cannot be created.
/// The first open registers an atexit finalizer, so an env-opened store
/// is always footer-complete on clean exit.
bool open(const std::string& dir);

/// Flush every staged event, write the string table and footers, and
/// join the drainer. Idempotent; safe to call with no store open. After
/// close() a new open() starts a fresh store.
void close();

/// Append one event. Fields the caller leaves at their defaults are
/// filled from context: ts_us == 0 stamps now_us(), txn/channel/stage
/// inherit the calling thread's active transaction (tracker.h), tid is
/// always assigned. No-op while the store is closed.
void emit(const Event& e);

/// emit() for `n` events with one staging-buffer lock acquisition --
/// producers that generate several events per unit of work (e.g. the
/// chain's per-block stage boundaries) amortize the per-event overhead.
/// Context inheritance and tid assignment match emit().
void emit_batch(const Event* events, std::size_t n);

/// Find-or-assign the id of `name` in the process-wide string table.
/// Ids are stable for the process lifetime and valid across open/close
/// cycles; id 0 is the empty name. Works whether or not a store is open,
/// so call sites may intern eagerly in function-local statics.
std::uint32_t intern(std::string_view name);

/// Microseconds since the trace epoch (the first call).
std::int64_t now_us();

/// Fresh nonzero transaction id (used by tracker.h).
std::uint64_t next_txn_id();

#endif  // DSADC_OBS_COMPILED_OFF

}  // namespace dsadc::obs::store
