#include "obs/log.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include "common/json_string.h"
#include "obs/metrics.h"

namespace rtp::obs {

namespace {

LogLevel InitialLevel() {
  const char* env = std::getenv("RTP_LOG_LEVEL");
  return env == nullptr ? LogLevel::kOff
                        : ParseLogLevel(env).value_or(LogLevel::kOff);
}

std::atomic<int>& MinLevel() {
  static std::atomic<int> level{static_cast<int>(InitialLevel())};
  return level;
}

struct SinkState {
  std::mutex mu;
  LogSink sink;  // empty = default stderr sink
};

SinkState& Sink() {
  static SinkState* state = new SinkState();
  return *state;
}

// Per-site rate limiting. Keyed by the (file, line) pointer pair; only
// consulted once a line has passed the level gate, so the map and its
// mutex are entirely off the disabled path.
struct SiteState {
  uint64_t window_start_s = 0;
  uint32_t emitted_in_window = 0;
  uint64_t suppressed = 0;
};

struct RateLimiter {
  std::mutex mu;
  std::map<std::pair<const char*, int>, SiteState> sites;

  // Returns true when the line may be emitted; fills `suppressed` with
  // the number of lines this site dropped since it last emitted.
  bool Admit(const char* file, int line, uint64_t now_s,
             uint64_t* suppressed) {
    std::lock_guard<std::mutex> lock(mu);
    SiteState& site = sites[{file, line}];
    if (site.window_start_s != now_s) {
      site.window_start_s = now_s;
      site.emitted_in_window = 0;
    }
    if (site.emitted_in_window >= kMaxLogsPerSitePerSecond) {
      ++site.suppressed;
      return false;
    }
    ++site.emitted_in_window;
    *suppressed = site.suppressed;
    site.suppressed = 0;
    return true;
  }
};

RateLimiter& Limiter() {
  static RateLimiter* limiter = new RateLimiter();
  return *limiter;
}

const char* BaseName(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash == nullptr ? path : slash + 1;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "unknown";
}

std::optional<LogLevel> ParseLogLevel(std::string_view name) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError, LogLevel::kOff}) {
    if (name == LogLevelName(level)) return level;
  }
  return std::nullopt;
}

void SetLogLevel(LogLevel level) {
  MinLevel().store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(MinLevel().load(std::memory_order_relaxed));
}

void SetLogSink(LogSink sink) {
  SinkState& state = Sink();
  std::lock_guard<std::mutex> lock(state.mu);
  state.sink = std::move(sink);
}

namespace internal {

bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         MinLevel().load(std::memory_order_relaxed);
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  auto now = std::chrono::system_clock::now().time_since_epoch();
  uint64_t now_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now).count());
  uint64_t suppressed = 0;
  if (!Limiter().Admit(file_, line_, now_ms / 1000, &suppressed)) return;

  std::ostringstream line;
  line << "{\"ts_ms\":" << now_ms << ",\"level\":\"" << LogLevelName(level_)
       << "\",\"file\":" << JsonString(BaseName(file_))
       << ",\"line\":" << line_ << ",\"msg\":" << JsonString(stream_.str())
       << ",\"suppressed\":" << suppressed
       << "}\n";
  std::string rendered = line.str();

  SinkState& state = Sink();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.sink) {
    state.sink(rendered);
  } else {
    std::fwrite(rendered.data(), 1, rendered.size(), stderr);
  }
}

}  // namespace internal
}  // namespace rtp::obs
