// Minimal leveled logger. Thread-safe; writes to stderr. Level is settable
// globally so benchmarks can silence job chatter. Also home to the strict
// number parser the command-line tools share (ParseDecimal).
#pragma once

#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

#include "util/macros.h"

namespace ngram {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

/// Sets the global minimum level that is actually emitted.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {

/// Accumulates one log line and flushes it (with timestamp, level, and
/// source location) on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

/// Discards everything streamed into it; used when a level is disabled.
class NullLogMessage {
 public:
  template <typename T>
  NullLogMessage& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal

#define NGRAM_LOG_ENABLED(level) (::ngram::GetLogLevel() <= (level))

#define NGRAM_LOG(level)                                      \
  if (!NGRAM_LOG_ENABLED(::ngram::LogLevel::level)) {         \
  } else                                                      \
    ::ngram::internal::LogMessage(::ngram::LogLevel::level, __FILE__, __LINE__)

#define NGRAM_LOG_DEBUG NGRAM_LOG(kDebug)
#define NGRAM_LOG_INFO NGRAM_LOG(kInfo)
#define NGRAM_LOG_WARN NGRAM_LOG(kWarning)
#define NGRAM_LOG_ERROR NGRAM_LOG(kError)

/// Fatal check: always on, aborts with a message on failure.
#define NGRAM_CHECK(cond)                                              \
  if (NGRAM_PREDICT_TRUE(cond)) {                                      \
  } else                                                               \
    ::ngram::internal::FatalMessage(__FILE__, __LINE__, #cond)

namespace internal {

class FatalMessage {
 public:
  FatalMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalMessage();

  template <typename T>
  FatalMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal

/// Parses a command-line number strictly: `text` must be one or more
/// decimal digits (no sign, no whitespace, no trailing junk) whose value
/// times `scale` fits in T. Returns false, leaving `*value` untouched,
/// otherwise — so "abc", "5x", "-3" and overflow never become 0 or wrap.
template <typename T>
bool ParseDecimal(const std::string& text, T* value, T scale = 1) {
  static_assert(std::is_unsigned_v<T>, "unsigned targets only");
  constexpr T kMax = std::numeric_limits<T>::max();
  if (text.empty()) {
    return false;
  }
  T result = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const T digit = static_cast<T>(c - '0');
    if (result > (kMax - digit) / 10) {
      return false;
    }
    result = static_cast<T>(result * 10 + digit);
  }
  if (scale != 0 && result > kMax / scale) {
    return false;
  }
  *value = static_cast<T>(result * scale);
  return true;
}

}  // namespace ngram
