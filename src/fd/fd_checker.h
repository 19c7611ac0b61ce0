#ifndef RTP_FD_FD_CHECKER_H_
#define RTP_FD_FD_CHECKER_H_

#include <optional>
#include <string>
#include <vector>

#include "fd/functional_dependency.h"
#include "guard/guard.h"
#include "obs/profile.h"
#include "pattern/evaluator.h"
#include "xml/doc_index.h"
#include "xml/document.h"

namespace rtp::fd {

// Witness of a violation of Definition 5: two mappings agreeing on the
// context node and on every condition (under their equality types) but
// disagreeing on the target.
struct Violation {
  pattern::Mapping first;
  pattern::Mapping second;

  std::string Describe(const xml::Document& doc,
                       const FunctionalDependency& fd) const;
};

struct CheckResult {
  bool satisfied = true;
  std::optional<Violation> violation;
  // Work counters (benchmark instrumentation).
  size_t num_mappings = 0;
  size_t num_groups = 0;
  // OK iff the check ran to completion. A resource status (deadline /
  // quota / cancellation) means `satisfied` is meaningless — a tripped
  // check reports satisfied=true with the trip recorded here.
  Status status;
};

struct CheckOptions {
  // Stop at the first violation (default) or keep counting mappings.
  bool stop_at_first_violation = true;
  // When limited (or `cancel` is set) the check runs under a GuardContext
  // covering table construction and enumeration; a trip lands in
  // CheckResult::status. In CheckFdBatch the budget applies per document.
  guard::ExecutionBudget budget;
  guard::CancelToken* cancel = nullptr;
  // When non-null, the check runs under an obs::ProfileScope and fills
  // the profile with phases (pattern.build_tables / fd.group_and_compare),
  // metric deltas, and guard-budget consumption.
  obs::QueryProfile* profile = nullptr;
};

// Checks whether `doc` satisfies `fd` (Definition 5) by enumerating the
// mappings of the FD pattern, grouping them by (context image, condition
// keys) and testing target agreement within each group. Value comparisons
// use subtree hashing with exact ValueEqual confirmation.
CheckResult CheckFd(const FunctionalDependency& fd, const xml::Document& doc,
                    const CheckOptions& options = {});

// Same check over a prebuilt document snapshot; callers checking several
// FDs against one document share the index instead of re-deriving the
// child structure per FD. Results are identical to the Document
// overload.
CheckResult CheckFd(const FunctionalDependency& fd,
                    const xml::DocIndex& index,
                    const CheckOptions& options = {});

struct BatchCheckOptions {
  CheckOptions check;
  // Threads, the calling thread included; <= 1: serial, in document
  // order (the reference path).
  int jobs = 1;
  // When non-null, resized to docs.size(); slot i receives document i's
  // QueryProfile (overrides check.profile, which applies per item).
  std::vector<obs::QueryProfile>* profiles = nullptr;
};

// Checks one FD against many documents, one task per document. Results
// are indexed like `docs` and are bit-identical to calling CheckFd on each
// document serially, for every jobs value.
//
// Thread-safety contract: each document is visited by exactly one task, so
// `docs` must not contain the same Document twice (Document builds its
// snapshot lazily and is not internally synchronized).
std::vector<CheckResult> CheckFdBatch(
    const FunctionalDependency& fd,
    const std::vector<const xml::Document*>& docs,
    const BatchCheckOptions& options = {});

}  // namespace rtp::fd

#endif  // RTP_FD_FD_CHECKER_H_
