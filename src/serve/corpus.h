#ifndef RTP_SERVE_CORPUS_H_
#define RTP_SERVE_CORPUS_H_

// Multi-tenant corpus registry for rtpd.
//
// Each tenant owns a private Alphabet plus a map of named, pre-indexed
// documents. The Alphabet locks itself (common/alphabet.h), so requests
// parse XML, patterns, FDs and schemas into it concurrently. The tenant's
// one mutex guards only the `docs` map and `default_budget`: it is held
// to look up, publish or drop an entry and to read or write the budget,
// never while parsing, evaluating or serializing. So requests of one
// tenant run in parallel, and requests of different tenants never
// contend at all.
//
// A CorpusEntry heap-pins its Document: the shared DocIndex keeps a raw
// back-pointer to the Document (xml/doc_index.h), and Document's move
// constructor deliberately drops the snapshot slot, so the document must
// never relocate while the index is alive. Load builds the Document's
// lazy snapshot, which also holds its document order, before it publishes
// the entry; after publication the entry is immutable and readers share
// it lock-free via shared_ptr.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/alphabet.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "xml/doc_index.h"
#include "xml/document.h"

namespace rtp::serve {

// An immutable named document: loaded once, evaluated many times.
struct CorpusEntry {
  std::string name;
  // Heap-pinned; `index` points back into it.
  std::unique_ptr<xml::Document> doc;
  std::shared_ptr<const xml::DocIndex> index;
  size_t live_nodes = 0;
};

struct Tenant {
  explicit Tenant(std::string tenant_name);

  const std::string name;
  // Internally synchronised; parsing interns into it with no tenant lock.
  Alphabet alphabet;

  // Guards `docs` and `default_budget`, and is held only to look up,
  // publish or drop an entry and to read or write the budget.
  std::mutex mu;
  std::map<std::string, std::shared_ptr<const CorpusEntry>> docs;

  // Default budget for requests that carry none (set by the quota op).
  guard::ExecutionBudget default_budget;

  // Deterministic per-tenant tallies for the stats op (the obs registry is
  // process-global and approximate under concurrency; these are exact).
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> trips{0};

  // Cached per-tenant obs counters ("serve.tenant.<name>.*"). The
  // tenant-name charset is validated by the protocol layer, so the names
  // are injection-safe.
  obs::Counter* m_requests;
  obs::Counter* m_errors;
  obs::Counter* m_trips;
};

class TenantRegistry {
 public:
  // Finds or creates; creation is cheap (no documents yet).
  std::shared_ptr<Tenant> GetOrCreate(const std::string& name);

  // Nullptr when the tenant was never seen.
  std::shared_ptr<Tenant> Find(const std::string& name) const;

  // All tenants sorted by name (the stats op's deterministic order).
  std::vector<std::shared_ptr<Tenant>> All() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;
};

}  // namespace rtp::serve

#endif  // RTP_SERVE_CORPUS_H_
