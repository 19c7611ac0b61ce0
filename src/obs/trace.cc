#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <thread>

#include "common/json_string.h"
#include "guard/guard.h"
#include "obs/domain.h"

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

}  // namespace

TraceSession::~TraceSession() {
  if (active()) Stop();
}

void TraceSession::Start() {
  start_ns_ = static_cast<uint64_t>(guard::MonotonicNowNs());
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

void TraceSession::Record(const char* name, uint64_t start_ns,
                          uint64_t dur_ns, int depth) {
  // Round the start and the end down, not the start and the duration:
  // then a span that ends inside its parent also does in the export.
  uint64_t start_us = (start_ns - start_ns_) / 1000;
  uint64_t end_us = (start_ns + dur_ns - start_ns_) / 1000;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      Span{name, start_us, end_us - start_us, ThreadIdHash(), depth});
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

Phase::Phase(const char* name, Histogram* histogram)
    : name_(name),
      histogram_(histogram),
      session_(TraceSession::Active()),
      domain_(MetricDomain::Current()),
      start_ns_(static_cast<uint64_t>(guard::MonotonicNowNs())) {
  if (domain_ != nullptr) domain_span_ = domain_->OpenSpan(name, start_ns_);
  if (session_ != nullptr) depth_ = t_depth++;
}

Phase::~Phase() {
  uint64_t end_ns = static_cast<uint64_t>(guard::MonotonicNowNs());
  histogram_->Record(end_ns - start_ns_);
  // Close the domain span only if the same domain is still installed:
  // phases and domains nest lexically in practice, and the check makes a
  // misnested pair drop a span instead of touching a dead domain.
  if (domain_ != nullptr && domain_ == MetricDomain::Current()) {
    domain_->CloseSpan(domain_span_, end_ns);
  }
  if (session_ == nullptr) return;
  --t_depth;
  // The session may have been stopped while the phase was open; records
  // after Stop() are still safe (the session outlives every phase that
  // saw it active, by construction of the CLI and the tests).
  session_->Record(name_, start_ns_, end_ns - start_ns_, depth_);
}

}  // namespace rtp::obs
