#include "independence/matrix.h"

#include <optional>

#include "exec/parallel_for.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rtp::independence {

namespace {

std::string PairOp(size_t f, size_t c) {
  return "independence.matrix[" + std::to_string(f) + "," +
         std::to_string(c) + "]";
}

}  // namespace

std::vector<size_t> IndependenceMatrix::FdsToRecheck(
    size_t class_index) const {
  std::vector<size_t> out;
  for (size_t f = 0; f < num_fds; ++f) {
    if (!at(f, class_index).independent) out.push_back(f);
  }
  return out;
}

double IndependenceMatrix::IndependentFraction() const {
  if (entries.empty()) return 0.0;
  size_t independent = 0;
  for (const MatrixEntry& e : entries) {
    if (e.independent) ++independent;
  }
  return static_cast<double>(independent) / static_cast<double>(entries.size());
}

std::string IndependenceMatrix::ToString(
    const std::vector<std::string>& fd_names,
    const std::vector<std::string>& class_names) const {
  RTP_CHECK(fd_names.size() == num_fds && class_names.size() == num_classes);
  std::string out(12, ' ');
  for (const std::string& name : fd_names) {
    out += name;
    out.append(name.size() < 10 ? 10 - name.size() : 1, ' ');
  }
  out += "\n";
  for (size_t c = 0; c < num_classes; ++c) {
    std::string row = class_names[c];
    row.append(row.size() < 12 ? 12 - row.size() : 1, ' ');
    for (size_t f = 0; f < num_fds; ++f) {
      const MatrixEntry& e = at(f, c);
      const char* cell = e.independent ? "safe" : "check";
      switch (e.status.code()) {
        case StatusCode::kDeadlineExceeded:
          cell = "deadline";
          break;
        case StatusCode::kResourceExhausted:
          cell = "resource";
          break;
        case StatusCode::kCancelled:
          cell = "cancelled";
          break;
        default:
          break;
      }
      row += cell;
      row.append(10 - std::string(cell).size(), ' ');
    }
    out += row + "\n";
  }
  return out;
}

StatusOr<IndependenceMatrix> ComputeIndependenceMatrix(
    const std::vector<const fd::FunctionalDependency*>& fds,
    const std::vector<const update::UpdateClass*>& classes,
    const schema::Schema* schema, Alphabet* alphabet,
    const MatrixOptions& options) {
  RTP_PHASE("independence.matrix");
  IndependenceMatrix matrix;
  matrix.num_fds = fds.size();
  matrix.num_classes = classes.size();
  size_t num_pairs = fds.size() * classes.size();
  matrix.entries.resize(num_pairs);
  if (options.profiles != nullptr) {
    options.profiles->assign(num_pairs, obs::QueryProfile());
  }

  // Warm the compile cache serially so the shared FD / update automata are
  // built exactly once instead of racing (each would still build once
  // under the cache's build-once contract, but late pairs would block on
  // the winner instead of doing useful work).
  CriterionOptions pair_options;
  pair_options.cache = options.cache;
  pair_options.budget = options.budget;
  pair_options.cancel = options.cancel;
  const bool guarded = options.budget.Limited() || options.cancel != nullptr;
  // The criterion bypasses the cache under a guard, so warming it would be
  // unguarded work for nothing — skip the phase entirely.
  if (options.cache != nullptr && !guarded) {
    for (const fd::FunctionalDependency* fd : fds) {
      options.cache->GetPatternAutomaton(
          fd->pattern(), *alphabet,
          automata::MarkMode::kTraceAndSelectedSubtrees);
    }
    for (const update::UpdateClass* cls : classes) {
      options.cache->GetPatternAutomaton(
          cls->pattern(), *alphabet,
          automata::MarkMode::kSelectedImagesOnly);
    }
  }

  // One task per (fd, class) pair, each writing its pre-assigned row-major
  // slot; statuses are merged afterwards in pair order, so the verdicts
  // and the reported error do not depend on the schedule.
  std::vector<Status> statuses(num_pairs);
  exec::ParallelFor(options.jobs, num_pairs, [&](size_t pair) {
    size_t f = pair / classes.size();
    size_t c = pair % classes.size();
    obs::QueryProfile* cell_profile =
        options.profiles == nullptr ? nullptr : &(*options.profiles)[pair];
    // A cancelled matrix drains its remaining pairs without running the
    // criterion; each pair still gets a deterministic per-cell status.
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      Status cancelled = CancelledError("cancelled before pair check");
      if (cell_profile != nullptr) {
        cell_profile->op = PairOp(f, c);
        cell_profile->status = cancelled.ToString();
      }
      matrix.entries[pair] =
          MatrixEntry{f, c, false, 0, std::move(cancelled)};
      return;
    }
    std::optional<StatusOr<CriterionResult>> result;
    {
      // The criterion installs its own guard (per pair_options), inside
      // this scope — so the captured spans/deltas cover the whole cell,
      // while the status is patched in below from the cell's outcome.
      obs::ProfileScope prof(PairOp(f, c), cell_profile);
      result.emplace(CheckIndependence(*fds[f], *classes[c], schema,
                                       alphabet, pair_options));
    }
    if (cell_profile != nullptr) {
      cell_profile->status = result->status().ToString();
    }
    if (!result->ok()) {
      if (guard::IsResourceStatus(result->status())) {
        // Per-cell degradation: a budget trip on one pair is not a matrix
        // failure. independent=false is the conservative verdict.
        matrix.entries[pair] = MatrixEntry{f, c, false, 0, result->status()};
      } else {
        statuses[pair] = result->status();
      }
      return;
    }
    matrix.entries[pair] = MatrixEntry{f, c, (*result)->independent,
                                       (*result)->product_size, Status::OK()};
  });
  for (Status& status : statuses) {
    if (!status.ok()) return std::move(status);
  }
  return matrix;
}

}  // namespace rtp::independence
