// Minimal leveled logger. Off by default so tests and benches stay quiet;
// examples turn it on to narrate the Manager/Server protocol traffic the
// paper describes.
#pragma once

#include <atomic>
#include <sstream>
#include <string>
#include <string_view>

#include "util/mutex.hpp"

namespace npss::util {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  static Logger& instance();

  // The level is atomic: enabled() runs on every hot-path log macro in
  // every cluster thread, while set_level() may arrive from the main
  // thread mid-run.
  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  bool enabled(LogLevel level) const {
    return level >= level_.load(std::memory_order_relaxed);
  }

  void write(LogLevel level, std::string_view component,
             const std::string& message);

 private:
  Logger() = default;
  // Serializes sink writes only — a leaf lock in the hierarchy
  // (lock_hierarchy.md): write() never takes another lock under it, so
  // logging is safe from inside any critical section.
  Mutex mu_{"util.Logger"};
  std::atomic<LogLevel> level_{LogLevel::kOff};
};

namespace detail {
inline void log_fmt(std::ostringstream&) {}

template <typename T, typename... Rest>
void log_fmt(std::ostringstream& os, T&& first, Rest&&... rest) {
  os << std::forward<T>(first);
  detail::log_fmt(os, std::forward<Rest>(rest)...);
}
}  // namespace detail

/// `component` is a view so a call site's literal builds no string; the
/// message is only formatted for a line that is written.
template <typename... Args>
void log(LogLevel level, std::string_view component, Args&&... args) {
  Logger& logger = Logger::instance();
  if (!logger.enabled(level)) return;
  std::ostringstream os;
  detail::log_fmt(os, std::forward<Args>(args)...);
  logger.write(level, component, os.str());
}

#define NPSS_LOG_TRACE(component, ...) \
  ::npss::util::log(::npss::util::LogLevel::kTrace, component, __VA_ARGS__)
#define NPSS_LOG_DEBUG(component, ...) \
  ::npss::util::log(::npss::util::LogLevel::kDebug, component, __VA_ARGS__)
#define NPSS_LOG_INFO(component, ...) \
  ::npss::util::log(::npss::util::LogLevel::kInfo, component, __VA_ARGS__)
#define NPSS_LOG_WARN(component, ...) \
  ::npss::util::log(::npss::util::LogLevel::kWarn, component, __VA_ARGS__)
#define NPSS_LOG_ERROR(component, ...) \
  ::npss::util::log(::npss::util::LogLevel::kError, component, __VA_ARGS__)

}  // namespace npss::util
