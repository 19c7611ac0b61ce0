#ifndef RTP_OBS_TRACE_H_
#define RTP_OBS_TRACE_H_

// Timed phases, and whole-process tracing with chrome://tracing export.
//
// RTP_PHASE("layer.phase") times the enclosing scope. For that scope it
// records, under the one name:
//   - the histogram "layer.phase.ns" (nanoseconds), always;
//   - a span in the active TraceSession, if one is installed;
//   - a phase in the innermost MetricDomain installed on this thread, if
//     any, so request-scoped profiles (obs/profile.h) see the same phase
//     tree as whole-process traces.
// With no session and no domain a phase costs two clock reads, a relaxed
// atomic load, a thread-local load and one histogram record.
//
//   obs::TraceSession session;
//   session.Start();
//   ...run the pipeline (RTP_PHASE sites record into it)...
//   session.Stop();
//   std::string json = session.ExportChromeTracing();
//
// The export is a JSON array of complete ("ph":"X") events, loadable by
// chrome://tracing or Perfetto.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace rtp::obs {

class TraceSession {
 public:
  struct Span {
    const char* name;    // static string from the call site
    uint64_t start_us;   // microseconds since session start
    uint64_t dur_us;
    uint64_t tid;        // hashed thread id
    int depth;           // nesting depth at record time
  };

  TraceSession() = default;
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // Installs this session as the process-wide active one. At most one
  // session may be active at a time; starting a second aborts.
  void Start();
  // Uninstalls; spans recorded so far remain available for export.
  void Stop();
  bool active() const;

  // The active session, or nullptr.
  static TraceSession* Active();

  size_t NumSpans() const;
  std::vector<Span> spans() const;

  // chrome://tracing "complete event" JSON array.
  std::string ExportChromeTracing() const;

 private:
  friend class Phase;
  void Record(const char* name, uint64_t start_ns, uint64_t dur_ns,
              int depth);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t start_ns_ = 0;
};

// The RAII object behind RTP_PHASE. `name` is stored by pointer, so it
// must outlive any session the phase records into (RTP_PHASE passes a
// string literal); `histogram` must not be null.
class Phase {
 public:
  Phase(const char* name, Histogram* histogram);
  ~Phase();

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  const char* name_;
  Histogram* histogram_;
  TraceSession* session_;  // nullptr when inactive at construction
  MetricDomain* domain_;   // nullptr when no domain was installed
  uint64_t start_ns_;
  int depth_ = 0;
  int32_t domain_span_ = -1;
};

}  // namespace rtp::obs

#define RTP_PHASE_CONCAT_INNER_(a, b) a##b
#define RTP_PHASE_CONCAT_(a, b) RTP_PHASE_CONCAT_INNER_(a, b)
// Times the enclosing scope as phase `name`, a string literal; the
// histogram is `name` followed by ".ns".
#define RTP_PHASE(name)                                                 \
  static ::rtp::obs::Histogram* RTP_PHASE_CONCAT_(rtp_phase_histogram_, \
                                                  __LINE__) =           \
      ::rtp::obs::Registry().FindOrCreateHistogram(name ".ns");         \
  ::rtp::obs::Phase RTP_PHASE_CONCAT_(rtp_phase_, __LINE__)(            \
      name, RTP_PHASE_CONCAT_(rtp_phase_histogram_, __LINE__))

#endif  // RTP_OBS_TRACE_H_
