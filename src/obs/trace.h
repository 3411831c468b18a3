// RAII trace spans, recorded into the columnar trace store (store/store.h).
//
// A Span measures the wall time of a scope and, while the store is open,
// emits one kFlow event carrying the span name and duration. While the
// store is closed a Span costs one branch and no clock reads.
//
// DSADC_TRACE_OUT=<file> records a whole process as a Chrome trace: the
// store's first use opens it (in a fresh temp directory unless
// DSADC_STORE_OUT names one), and at exit the store is closed, exported
// as Chrome trace-event JSON to <file> -- loadable in chrome://tracing,
// https://ui.perfetto.dev and `obs_report --trace` -- and the temp
// directory removed.
#pragma once

#include <cstdint>
#include <string>

#include "src/obs/obs.h"

namespace dsadc::obs {

class Span {
 public:
  explicit Span(std::string name);
  /// Literal-name overload: hot-path spans pay no string allocation on
  /// construction.
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin();

  std::string name_;
  const char* name_lit_ = nullptr;  ///< set by the literal overload
  std::int64_t start_us_ = -1;      ///< -1: nothing records at exit
};

}  // namespace dsadc::obs

#ifdef DSADC_OBS_COMPILED_OFF
#define DSADC_TRACE_SPAN(name) \
  do {                         \
  } while (0)
#else
#define DSADC_TRACE_SPAN_CAT2(a, b) a##b
#define DSADC_TRACE_SPAN_CAT(a, b) DSADC_TRACE_SPAN_CAT2(a, b)
/// Declares a scope-lifetime span object (not an expression statement).
#define DSADC_TRACE_SPAN(name) \
  ::dsadc::obs::Span DSADC_TRACE_SPAN_CAT(dsadc_span_, __LINE__)(name)
#endif
