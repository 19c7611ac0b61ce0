#include "obs/profile.h"

#include <new>
#include <sstream>

#include "common/json_string.h"
#include "guard/guard.h"

namespace rtp::obs {

uint64_t QueryProfile::CounterDelta(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

uint64_t QueryProfile::RootPhaseTotalNs() const {
  uint64_t total = 0;
  for (const CapturedSpan& span : phases) {
    if (span.parent == -1) total += span.dur_ns;
  }
  return total;
}

std::string QueryProfile::ToJson() const {
  std::ostringstream out;
  out << "{\"op\":" << JsonString(op) << ",\"wall_ns\":" << wall_ns
      << ",\"status\":" << JsonString(status);
  out << ",\"phases\":[";
  for (size_t i = 0; i < phases.size(); ++i) {
    const CapturedSpan& span = phases[i];
    if (i != 0) out << ",";
    out << "{\"name\":" << JsonString(span.name)
        << ",\"start_ns\":" << span.start_ns << ",\"dur_ns\":" << span.dur_ns
        << ",\"parent\":" << span.parent << ",\"depth\":" << span.depth
        << "}";
  }
  out << "],\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) out << ",";
    out << JsonString(counters[i].first) << ":" << counters[i].second;
  }
  out << "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramDelta& d = histograms[i].second;
    if (i != 0) out << ",";
    out << JsonString(histograms[i].first) << ":{\"count\":" << d.count
        << ",\"sum\":" << d.sum
        << ",\"min\":" << d.ReportedMin() << ",\"max\":" << d.max
        << ",\"mean\":" << d.Mean()
        << ",\"p50\":" << static_cast<uint64_t>(d.Quantile(0.5) + 0.5)
        << ",\"p99\":" << static_cast<uint64_t>(d.Quantile(0.99) + 0.5)
        << "}";
  }
  out << "},\"guard\":{\"guarded\":" << (guard.guarded ? "true" : "false")
      << ",\"steps\":" << guard.steps << ",\"states\":" << guard.states
      << ",\"memory_bytes\":" << guard.memory_bytes
      << ",\"budget\":{\"deadline_ms\":" << guard.budget_deadline_ms
      << ",\"max_steps\":" << guard.budget_max_steps
      << ",\"max_states\":" << guard.budget_max_states
      << ",\"max_memory_bytes\":" << guard.budget_max_memory_bytes << "}}";
  out << "}";
  return out.str();
}

namespace {

void AppendDurationMs(std::ostringstream& out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  out << buf << " ms";
}

}  // namespace

std::string QueryProfile::ToText() const {
  std::ostringstream out;
  out << op << "  (wall ";
  AppendDurationMs(out, wall_ns);
  out << ", status " << status << ")\n";
  for (const CapturedSpan& span : phases) {
    out << "  ";
    for (int32_t i = 0; i < span.depth; ++i) out << "  ";
    out << span.name << "  ";
    AppendDurationMs(out, span.dur_ns);
    out << "\n";
  }
  if (!counters.empty()) {
    out << "  counters:\n";
    for (const auto& [name, value] : counters) {
      out << "    " << name << " = " << value << "\n";
    }
  }
  if (!histograms.empty()) {
    out << "  histograms:\n";
    for (const auto& [name, d] : histograms) {
      out << "    " << name << "  count=" << d.count << " sum=" << d.sum
          << " p50=" << static_cast<uint64_t>(d.Quantile(0.5) + 0.5)
          << " p99=" << static_cast<uint64_t>(d.Quantile(0.99) + 0.5) << "\n";
    }
  }
  if (guard.guarded) {
    out << "  guard: steps=" << guard.steps << "/"
        << (guard.budget_max_steps > 0 ? std::to_string(guard.budget_max_steps)
                                       : "inf")
        << " states=" << guard.states << "/"
        << (guard.budget_max_states > 0
                ? std::to_string(guard.budget_max_states)
                : "inf")
        << " memory=" << guard.memory_bytes << "/"
        << (guard.budget_max_memory_bytes > 0
                ? std::to_string(guard.budget_max_memory_bytes)
                : "inf")
        << "\n";
  }
  return out.str();
}

ProfileScope::ProfileScope(std::string op, QueryProfile* out) : out_(out) {
  if (out_ == nullptr) return;
  out_->op = std::move(op);
  domain_ = new (domain_storage_) MetricDomain();
}

ProfileScope::~ProfileScope() {
  if (out_ == nullptr) return;
  out_->wall_ns = domain_->ElapsedNs();
  out_->phases = domain_->spans();
  out_->counters = domain_->CounterDeltas();
  out_->histograms = domain_->HistogramDeltas();
  // Guard accounting: the ProfileScope sits inside any ScopedGuard, so
  // the context (and its trip status) is still installed here.
  if (guard::GuardContext* g = guard::Current()) {
    out_->guard.guarded = true;
    out_->guard.steps = g->steps();
    out_->guard.states = g->states();
    out_->guard.memory_bytes = g->memory();
    out_->guard.budget_deadline_ms = g->budget().deadline_ms;
    out_->guard.budget_max_steps = g->budget().max_steps;
    out_->guard.budget_max_states = g->budget().max_automaton_states;
    out_->guard.budget_max_memory_bytes = g->budget().max_memory_bytes;
  }
  out_->status = guard::CurrentStatus().ToString();
  domain_->~MetricDomain();  // flushes deltas onward
}

std::string ProfilesToJson(const std::vector<QueryProfile>& profiles) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < profiles.size(); ++i) {
    out << (i == 0 ? "\n  " : ",\n  ") << profiles[i].ToJson();
  }
  out << "\n]";
  return out.str();
}

}  // namespace rtp::obs
