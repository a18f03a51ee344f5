// A minimal fork-join parallel_for. The paper's Figure 1 shows a parallel
// algorithm encapsulated inside one Schooner procedure (e.g. PVM on a
// workstation cluster, or a node program on the i860/CM-5); this is the
// in-process equivalent those simulated "parallel machine" procedures use
// for their inner loops (tess::hifi_duct). The flow executive does not use
// it: it runs modules sequentially, and overlaps remote work with
// call_async.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.hpp"

namespace npss::util {

/// Invoke fn(begin..end) across up to `threads` workers in contiguous
/// chunks; joins before returning. `threads` <= 0 means hardware
/// concurrency. Safe for any fn without cross-iteration dependencies.
/// If a worker throws, the first exception is captured and rethrown on
/// the calling thread after all workers join (an exception escaping a
/// jthread body would std::terminate); remaining workers stop at their
/// next chunk boundary.
inline void parallel_for(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t)>& fn,
                         int threads = 0) {
  const std::size_t count = end > begin ? end - begin : 0;
  if (count == 0) return;
  std::size_t workers = threads > 0
                            ? static_cast<std::size_t>(threads)
                            : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, count);
  if (workers <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Stack-local leaf lock: lives only for this fork-join, and the
  // workers take nothing else while holding it.
  std::exception_ptr first_error;
  Mutex error_mu{"util.parallel_for.error"};
  std::atomic<bool> failed{false};
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    const std::size_t chunk = (count + workers - 1) / workers;
    for (std::size_t w = 0; w < workers; ++w) {
      const std::size_t lo = begin + w * chunk;
      const std::size_t hi = std::min(end, lo + chunk);
      if (lo >= hi) break;
      pool.emplace_back([lo, hi, &fn, &first_error, &error_mu, &failed] {
        try {
          for (std::size_t i = lo; i < hi; ++i) {
            if (failed.load(std::memory_order_relaxed)) return;
            fn(i);
          }
        } catch (...) {
          failed.store(true, std::memory_order_relaxed);
          MutexLock lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
  }  // jthread join
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace npss::util
