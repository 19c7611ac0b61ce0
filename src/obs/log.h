#ifndef RTP_OBS_LOG_H_
#define RTP_OBS_LOG_H_

// Structured logging — leveled, dependency-free JSON lines.
//
//   RTP_LOG(WARN) << "automaton cache build failed; entry dropped for retry";
//
// emits one line to the configured sink (stderr by default):
//
//   {"ts_ms":1723100000123,"level":"warn","file":"automaton_cache.h",
//    "line":82,"msg":"automaton cache build failed; entry dropped for retry",
//    "suppressed":0}
//
// Properties:
//   - Off by default: the minimum level is kOff unless overridden by
//     SetLogLevel() or the RTP_LOG_LEVEL environment variable
//     (debug|info|warn|error|off). A disabled RTP_LOG costs one relaxed
//     atomic load and never evaluates its stream operands.
//   - Rate-limited per call site: at most kMaxLogsPerSitePerSecond lines
//     per site per second; dropped lines are counted and reported in the
//     next emitted line's "suppressed" field.
//   - Machine-readable: one JSON object per line, msg fully escaped.
//   - No dependencies, no exceptions, safe from multiple threads.

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace rtp::obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

// "debug" / "info" / "warn" / "error" / "off".
const char* LogLevelName(LogLevel level);
// The inverse of LogLevelName; nullopt for any other string.
std::optional<LogLevel> ParseLogLevel(std::string_view name);

// Minimum emitted level. The initial value comes from RTP_LOG_LEVEL (off
// when unset or unparseable).
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Where emitted lines go. The sink receives one complete JSON line
// (newline included) and must be thread-safe; nullptr restores the
// default stderr sink.
using LogSink = std::function<void(const std::string& line)>;
void SetLogSink(LogSink sink);

// Per-site rate limit (see header comment).
inline constexpr uint32_t kMaxLogsPerSitePerSecond = 20;

// The token names RTP_LOG(level) accepts.
namespace loglevel {
inline constexpr LogLevel DEBUG = LogLevel::kDebug;
inline constexpr LogLevel INFO = LogLevel::kInfo;
inline constexpr LogLevel WARN = LogLevel::kWarn;
inline constexpr LogLevel ERROR = LogLevel::kError;
}  // namespace loglevel

namespace internal {

// One relaxed load; the macro's short-circuit gate.
bool LogEnabled(LogLevel level);

// Builds one log line; emits (or drops, under rate limiting) at
// destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

// Swallows nothing at all; exists so the macro's ternary arms both have
// type void.
struct LogVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace rtp::obs

// Ternary (not if/else) so the macro is a single expression-statement and
// never captures a dangling else.
#define RTP_LOG(level)                                                     \
  !::rtp::obs::internal::LogEnabled(::rtp::obs::loglevel::level)           \
      ? (void)0                                                            \
      : ::rtp::obs::internal::LogVoidify() &                               \
            ::rtp::obs::internal::LogMessage(::rtp::obs::loglevel::level,  \
                                             __FILE__, __LINE__)           \
                .stream()

#endif  // RTP_OBS_LOG_H_
