#include "independence/impact_search.h"

#include <algorithm>
#include <random>

#include "fd/fd_checker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "update/update_ops.h"

namespace rtp::independence {

using xml::Document;
using xml::NodeId;

namespace {

// A random label-preserving operation for the nodes in `targets`.
// Returns nullopt when no operation applies (e.g. nothing to mutate).
std::optional<update::UpdateOperation> RandomOperation(
    const Document& doc, const std::vector<NodeId>& targets,
    std::mt19937_64* rng, uint32_t value_pool) {
  auto value = [&] {
    return "v" + std::to_string((*rng)() % value_pool);
  };
  bool all_leaves = true;
  for (NodeId n : targets) {
    if (doc.type(n) == xml::NodeType::kElement) all_leaves = false;
  }
  switch ((*rng)() % 3) {
    case 0: {
      // Rewrite every value in the selected subtrees to one fresh value.
      std::string v = value();
      return update::TransformValues{
          [v](std::string_view) { return v; }};
    }
    case 1: {
      // Rewrite values through a permutation-ish mapping.
      uint64_t salt = (*rng)();
      uint32_t pool = value_pool;
      return update::TransformValues{[salt, pool](std::string_view old) {
        uint64_t h = salt;
        for (char c : old) h = h * 131 + static_cast<unsigned char>(c);
        return "v" + std::to_string(h % pool);
      }};
    }
    default: {
      if (all_leaves) {
        return update::SetValue{value()};
      }
      return update::DeleteChildren{};
    }
  }
}

// Massages `doc` until it satisfies `fd`: value-equality targets are
// overwritten with the group representative's subtree; node-equality
// targets are resolved by detaching the offending duplicate. Returns false
// when the document could not be repaired within the iteration budget.
bool RepairToSatisfy(const fd::FunctionalDependency& fd, Document* doc,
                     int max_iterations = 64) {
  const pattern::SelectedNode target = fd.target();
  for (int i = 0; i < max_iterations; ++i) {
    fd::CheckResult check = fd::CheckFd(fd, *doc);
    if (check.satisfied) return true;
    const fd::Violation& v = *check.violation;
    NodeId keep = v.first.image[target.node];
    NodeId drop = v.second.image[target.node];
    if (target.equality == pattern::EqualityType::kValue) {
      if (drop == doc->root() ||
          doc->IsAncestorOrSelf(keep, doc->parent(drop)) ||
          doc->IsAncestorOrSelf(drop, keep)) {
        return false;  // overlapping targets: give up on this document
      }
      doc->ReplaceSubtree(drop, *doc, keep);
    } else {
      if (drop == doc->root()) return false;
      doc->DetachSubtree(drop);
    }
  }
  return fd::CheckFd(fd, *doc).satisfied;
}

}  // namespace

ImpactSearchResult SearchForImpact(const fd::FunctionalDependency& fd,
                                   const update::UpdateClass& update,
                                   const schema::Schema& schema,
                                   const ImpactSearchParams& params) {
  RTP_OBS_COUNT("independence.impact_search.calls");
  RTP_PHASE("independence.impact_search");
  ImpactSearchResult result;
  std::mt19937_64 rng(params.seed);
  // One scope for the whole search: the inner CheckFd / SelectNodes calls
  // run under this thread-local guard rather than per-call budgets.
  guard::OptionalGuardScope guard_scope(params.budget, params.cancel);

  for (int d = 0; d < params.num_documents; ++d) {
    if (!guard::KeepGoing()) break;
    workload::RandomDocumentParams doc_params = params.document_params;
    doc_params.seed = rng();
    auto doc_or = workload::GenerateRandomDocument(schema, doc_params);
    if (!doc_or.ok()) continue;
    Document doc = std::move(doc_or).value();
    ++result.documents_tried;
    RTP_OBS_COUNT("independence.impact_search.documents_tried");

    if (!fd::CheckFd(fd, doc).satisfied) {
      // Try to repair the document into satisfying fd (and staying valid).
      if (!RepairToSatisfy(fd, &doc) || !schema.Validate(doc)) {
        ++result.documents_not_satisfying;
        continue;
      }
    }
    std::vector<NodeId> targets = update.SelectNodes(doc);
    if (targets.empty()) continue;

    for (int u = 0; u < params.updates_per_document; ++u) {
      if (!guard::KeepGoing()) break;
      Document mutated = doc.Clone();
      std::vector<NodeId> mutated_targets = update.SelectNodes(mutated);
      // The concrete update u of q = u o U may act differently on each
      // selected node: draw an independent operation per random slice.
      std::shuffle(mutated_targets.begin(), mutated_targets.end(), rng);
      size_t cut = mutated_targets.size() <= 1
                       ? mutated_targets.size()
                       : 1 + rng() % mutated_targets.size();
      std::vector<NodeId> first_slice(mutated_targets.begin(),
                                      mutated_targets.begin() + cut);
      std::vector<NodeId> second_slice(mutated_targets.begin() + cut,
                                       mutated_targets.end());
      bool applied_any = false;
      bool failed = false;
      for (const std::vector<NodeId>& slice : {first_slice, second_slice}) {
        if (slice.empty()) continue;
        auto operation = RandomOperation(mutated, slice, &rng,
                                         params.document_params.value_pool);
        if (!operation.has_value()) continue;
        auto stats = update::ApplyOperationAt(&mutated, slice, *operation);
        if (!stats.ok()) {
          failed = true;
          break;
        }
        applied_any = true;
      }
      if (failed || !applied_any) continue;
      ++result.updates_tried;
      RTP_OBS_COUNT("independence.impact_search.updates_tried");
      if (!schema.Validate(mutated)) continue;  // out of valid(S)
      if (!fd::CheckFd(fd, mutated).satisfied) {
        RTP_OBS_COUNT("independence.impact_search.impacts_found");
        result.impact_found = true;
        result.witness = ImpactWitness{
            std::move(doc), std::move(mutated),
            "document " + std::to_string(d) + ", update " + std::to_string(u)};
        result.status = guard::CurrentStatus();
        return result;
      }
    }
  }
  result.status = guard::CurrentStatus();
  return result;
}

}  // namespace rtp::independence
