#include "obs/trace.h"

#include <chrono>

#include "common/json_string.h"
#include "obs/domain.h"
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <thread>

namespace rtp::obs {

namespace {

// The active session. Relaxed is sufficient: Start()/Stop() are program
// phase changes, and spans recorded concurrently with Stop() are either
// fully recorded (under the session mutex) or dropped.
std::atomic<TraceSession*> g_active{nullptr};

// Per-thread nesting depth, for indentation in exports.
thread_local int t_depth = 0;

uint64_t ThreadIdHash() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff;
}

int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceSession::~TraceSession() {
  if (active()) Stop();
}

void TraceSession::Start() {
  start_ns_ = MonotonicNowNs();
  TraceSession* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this,
                                        std::memory_order_relaxed)) {
    std::fprintf(stderr, "obs: a TraceSession is already active\n");
    std::abort();
  }
}

void TraceSession::Stop() {
  TraceSession* expected = this;
  g_active.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_relaxed);
}

bool TraceSession::active() const {
  return g_active.load(std::memory_order_relaxed) == this;
}

TraceSession* TraceSession::Active() {
  return g_active.load(std::memory_order_relaxed);
}

uint64_t TraceSession::NowUs() const {
  return static_cast<uint64_t>((MonotonicNowNs() - start_ns_) / 1000);
}

void TraceSession::Record(const char* name, uint64_t start_us,
                          uint64_t dur_us, int depth) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_us, dur_us, ThreadIdHash(), depth});
}

size_t TraceSession::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<TraceSession::Span> TraceSession::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string TraceSession::ExportChromeTracing() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) out << ",";
    out << "\n{\"name\":" << JsonString(s.name) << ",\"ph\":\"X\",\"ts\":"
        << s.start_us << ",\"dur\":" << s.dur_us
        << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{\"depth\":"
        << s.depth << "}}";
  }
  out << "\n]\n";
  return out.str();
}

TraceSpan::TraceSpan(const char* name)
    : session_(TraceSession::Active()),
      domain_(MetricDomain::Current()),
      name_(name) {
  if (domain_ != nullptr) domain_span_ = domain_->OpenSpan(name);
  if (session_ == nullptr) return;
  start_us_ = session_->NowUs();
  depth_ = t_depth++;
}

TraceSpan::~TraceSpan() {
  // Close the domain span only if the same domain is still installed:
  // spans and domains nest lexically in practice, and the check makes a
  // misnested pair drop a span instead of touching a dead domain.
  if (domain_ != nullptr && domain_ == MetricDomain::Current()) {
    domain_->CloseSpan(domain_span_);
  }
  if (session_ == nullptr) return;
  --t_depth;
  // The session may have been stopped while the span was open; records
  // after Stop() are still safe (the object outlives its active window at
  // every RTP_OBS_TRACE_SPAN site by construction of the CLI / tests).
  session_->Record(name_, start_us_, session_->NowUs() - start_us_, depth_);
}

}  // namespace rtp::obs
