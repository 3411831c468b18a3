// Scoped environment override for tests that re-size code paths through
// environment variables read per call (DSADC_VERIFY_THREADS, ...).
#pragma once

#include <cstdlib>
#include <string>

namespace dsadc::testutil {

/// Sets (or, for a null `value`, unsets) `name` for one scope and
/// restores the previous state on exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

}  // namespace dsadc::testutil
