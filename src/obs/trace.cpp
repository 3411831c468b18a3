#include "src/obs/trace.h"

#include <string_view>

#include "src/obs/store/store.h"

namespace dsadc::obs {

Span::Span(std::string name) : name_(std::move(name)) { begin(); }

Span::Span(const char* name) : name_lit_(name) { begin(); }

void Span::begin() {
  if (store::enabled()) start_us_ = store::now_us();
}

Span::~Span() {
  if (start_us_ < 0 || !store::enabled()) return;
  store::Event e;
  e.category = store::Category::kFlow;
  e.name = store::intern(name_lit_ != nullptr ? std::string_view(name_lit_)
                                              : std::string_view(name_));
  // ts 0 means "stamp now" to emit(); clamp the epoch-adjacent case.
  e.ts_us = start_us_ > 0 ? start_us_ : 1;
  e.dur_us = store::now_us() - start_us_;
  store::emit(e);
}

}  // namespace dsadc::obs
