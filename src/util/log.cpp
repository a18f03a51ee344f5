#include "util/log.hpp"

#include <cstdio>

namespace npss::util {

namespace {
const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}
}  // namespace

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::write(LogLevel level, std::string_view component,
                   const std::string& message) {
  MutexLock lock(mu_);
  std::fprintf(stderr, "[%s] %-10.*s %s\n", level_tag(level),
               static_cast<int>(component.size()), component.data(),
               message.c_str());
}

}  // namespace npss::util
