#ifndef RTP_INDEPENDENCE_MATRIX_H_
#define RTP_INDEPENDENCE_MATRIX_H_

#include <string>
#include <vector>

#include "exec/automaton_cache.h"
#include "independence/criterion.h"
#include "obs/profile.h"

namespace rtp::independence {

// Batch form of the criterion — the "set of FDs vs set of update classes"
// setting of the paper's abstract: run IC once per pair and return the
// compatibility matrix an update guard consults per incoming update.
struct MatrixEntry {
  size_t fd_index = 0;
  size_t class_index = 0;
  bool independent = false;
  int64_t product_size = 0;
  // OK iff the criterion ran to completion on this pair. A resource
  // status (deadline / quota / cancellation) leaves independent=false —
  // the conservative verdict: the FD is rechecked on updates of the class.
  Status status;
};

struct IndependenceMatrix {
  // Row-major: entry(f, c) at f * num_classes + c.
  std::vector<MatrixEntry> entries;
  size_t num_fds = 0;
  size_t num_classes = 0;

  const MatrixEntry& at(size_t fd_index, size_t class_index) const {
    return entries[fd_index * num_classes + class_index];
  }

  // For one incoming update of class c: indices of the FDs that must be
  // re-verified (those not proven independent).
  std::vector<size_t> FdsToRecheck(size_t class_index) const;

  // Fraction of pairs proven independent.
  double IndependentFraction() const;

  // Plain-text rendering (rows = classes, columns = FDs).
  std::string ToString(const std::vector<std::string>& fd_names,
                       const std::vector<std::string>& class_names) const;
};

struct MatrixOptions {
  // Threads for the pair checks, the calling thread included. <= 1 runs
  // serially on the calling thread (the reference path).
  int jobs = 1;

  // Shared compile cache: each FD / update-class automaton is built once
  // and reused across all pairs (and across matrices sharing the cache).
  // Ignored when a budget or cancel token is configured (the criterion
  // bypasses the cache under a guard).
  exec::AutomatonCache* cache = nullptr;

  // Per-pair budget: each (fd, class) pair runs under its own
  // GuardContext, so a pathological pair degrades alone — its entry gets
  // the resource status and independent=false while cheap pairs complete
  // normally. The cancel token is shared across pairs.
  guard::ExecutionBudget budget;
  guard::CancelToken* cancel = nullptr;

  // When non-null, resized to fds.size() * classes.size(); the row-major
  // slot of pair (f, c) receives that cell's QueryProfile — op
  // "independence.matrix[f,c]", the criterion's phase tree
  // (compile_patterns / build_product / emptiness / ...), metric deltas,
  // and the cell's final status.
  std::vector<obs::QueryProfile>* profiles = nullptr;
};

// Runs CheckIndependence for every (fd, class) pair. Fails on the first
// structural error in row-major pair order (e.g. a non-leaf-selected
// update class). Resource statuses are NOT whole-matrix failures: they
// degrade per cell (see MatrixEntry::status).
//
// Determinism: the result (entry order, every field, and which error is
// reported) is byte-identical for every jobs value — each pair writes a
// pre-assigned row-major slot, and errors are selected by lowest pair
// index after all pairs finished. The shared `alphabet` is only read:
// conflict-candidate synthesis (the one interning path of the criterion)
// is disabled for matrix checks.
StatusOr<IndependenceMatrix> ComputeIndependenceMatrix(
    const std::vector<const fd::FunctionalDependency*>& fds,
    const std::vector<const update::UpdateClass*>& classes,
    const schema::Schema* schema, Alphabet* alphabet,
    const MatrixOptions& options = {});

}  // namespace rtp::independence

#endif  // RTP_INDEPENDENCE_MATRIX_H_
