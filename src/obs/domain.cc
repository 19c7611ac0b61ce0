#include "obs/domain.h"

#include <algorithm>

#include "guard/guard.h"

namespace rtp::obs {

namespace internal {

void DomainCounterAdd(MetricDomain* domain, Counter* counter, uint64_t n) {
  uint32_t id = counter->id();
  if (id == kUnregisteredId) {
    counter->AddGlobal(n);
    return;
  }
  domain->CounterAdd(id, n);
}

void DomainHistogramRecord(MetricDomain* domain, Histogram* histogram,
                           uint64_t sample) {
  uint32_t id = histogram->id();
  if (id == kUnregisteredId) {
    histogram->RecordGlobal(sample);
    return;
  }
  domain->HistogramRecord(id, sample);
}

}  // namespace internal

MetricDomain::MetricDomain()
    : parent_(internal::tls_domain),
      start_ns_(static_cast<uint64_t>(guard::MonotonicNowNs())) {
  internal::tls_domain = this;
}

MetricDomain::~MetricDomain() {
  // Uninstall before flushing so the flush adds dispatch into the parent
  // domain (when nested) or the global cells — never back into us.
  internal::tls_domain = parent_;
  MetricsRegistry& registry = Registry();
  for (uint32_t id = 0; id < counter_cells_.size(); ++id) {
    if (counter_cells_[id] == 0) continue;
    if (Counter* c = registry.CounterById(id)) c->Add(counter_cells_[id]);
  }
  for (uint32_t id = 0; id < histogram_cells_.size(); ++id) {
    const HistogramDelta& delta = histogram_cells_[id];
    if (delta.count == 0) continue;
    if (parent_ != nullptr) {
      parent_->histogram_cells_.resize(
          std::max<size_t>(parent_->histogram_cells_.size(), id + 1));
      parent_->histogram_cells_[id].Merge(delta);
    } else if (Histogram* h = registry.HistogramById(id)) {
      h->MergeGlobal(delta);
    }
  }
  // Spans are per-request detail and are deliberately not flushed.
}

MetricDomain* MetricDomain::Current() { return internal::tls_domain; }

void MetricDomain::CounterAdd(uint32_t id, uint64_t n) {
  if (id >= counter_cells_.size()) counter_cells_.resize(id + 1, 0);
  counter_cells_[id] += n;
}

void MetricDomain::HistogramRecord(uint32_t id, uint64_t sample) {
  if (id >= histogram_cells_.size()) histogram_cells_.resize(id + 1);
  histogram_cells_[id].Record(sample);
}

int32_t MetricDomain::OpenSpan(const char* name, uint64_t now_ns) {
  int32_t index = static_cast<int32_t>(spans_.size());
  CapturedSpan span;
  span.name = name;
  span.start_ns = now_ns - start_ns_;
  span.parent = open_stack_.empty() ? -1 : open_stack_.back();
  span.depth = static_cast<int32_t>(open_stack_.size());
  spans_.push_back(std::move(span));
  open_stack_.push_back(index);
  return index;
}

void MetricDomain::CloseSpan(int32_t index, uint64_t now_ns) {
  if (index < 0 || index >= static_cast<int32_t>(spans_.size())) return;
  spans_[index].dur_ns = now_ns - start_ns_ - spans_[index].start_ns;
  // Spans close LIFO in practice (RAII), but tolerate out-of-order
  // closes from exotic control flow by erasing wherever the index sits.
  auto it = std::find(open_stack_.begin(), open_stack_.end(), index);
  if (it != open_stack_.end()) open_stack_.erase(it);
}

std::vector<std::pair<std::string, uint64_t>> MetricDomain::CounterDeltas()
    const {
  std::vector<std::pair<std::string, uint64_t>> out;
  std::vector<std::string> names = Registry().CounterNames();
  for (uint32_t id = 0; id < counter_cells_.size(); ++id) {
    if (counter_cells_[id] == 0 || id >= names.size()) continue;
    out.emplace_back(names[id], counter_cells_[id]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, HistogramDelta>>
MetricDomain::HistogramDeltas() const {
  std::vector<std::pair<std::string, HistogramDelta>> out;
  std::vector<std::string> names = Registry().HistogramNames();
  for (uint32_t id = 0; id < histogram_cells_.size(); ++id) {
    if (histogram_cells_[id].count == 0 || id >= names.size()) continue;
    out.emplace_back(names[id], histogram_cells_[id]);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

uint64_t MetricDomain::CounterDelta(const std::string& name) const {
  std::vector<std::string> names = Registry().CounterNames();
  for (uint32_t id = 0; id < counter_cells_.size() && id < names.size();
       ++id) {
    if (names[id] == name) return counter_cells_[id];
  }
  return 0;
}

uint64_t MetricDomain::ElapsedNs() const {
  return static_cast<uint64_t>(guard::MonotonicNowNs()) - start_ns_;
}

}  // namespace rtp::obs
