#include "src/dsp/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dsadc::dsp {

std::size_t verify_thread_count() {
  if (const char* env = std::getenv("DSADC_VERIFY_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallel_for_index(std::size_t n,
                        const std::function<void(std::size_t)>& body,
                        std::size_t threads) {
  if (threads == 0) threads = verify_thread_count();
  if (threads > n) threads = n;
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  std::size_t first_error_index = n;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        // Keep the lowest-index failure: the one a serial loop throws.
        if (first_error == nullptr || i < first_error_index) {
          first_error = std::current_exception();
          first_error_index = i;
        }
        // Drain remaining work quickly: park the counter at the end.
        next.store(n, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();  // the calling thread participates
  for (auto& t : pool) t.join();

  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace dsadc::dsp
