#include "fd/fd_checker.h"

#include <unordered_map>
#include <vector>

#include "common/hashing.h"
#include "exec/parallel_for.h"
#include "guard/failpoints.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xml/value_equality.h"
#include "xml/xml_io.h"

namespace rtp::fd {

using pattern::EqualityType;
using pattern::Mapping;
using pattern::SelectedNode;
using xml::Document;
using xml::NodeId;

namespace {

// One representative mapping per (context, conditions) group.
struct GroupEntry {
  Mapping mapping;
  uint64_t target_hash = 0;
};

bool SelectedEqual(const Document& doc, const SelectedNode& s, NodeId a,
                   NodeId b) {
  if (s.equality == EqualityType::kNode) return a == b;
  return xml::ValueEqual(doc, a, b);
}

}  // namespace

std::string Violation::Describe(const Document& doc,
                                const FunctionalDependency& fd) const {
  std::string out =
      "violation: two traces agree on context and conditions but differ on "
      "the target\n";
  const auto& selected = fd.pattern().selected();
  auto render = [&](const Mapping& m, const char* tag) {
    out += std::string(tag) + ": context node #" +
           std::to_string(m.image[fd.context()]) + "\n";
    for (size_t i = 0; i < selected.size(); ++i) {
      NodeId image = m.image[selected[i].node];
      const char* role = (i + 1 == selected.size()) ? "target" : "condition";
      out += "  " + std::string(role) + " " + doc.label_name(image) + " = " +
             xml::WriteXmlSubtree(doc, image, /*indent=*/false) + "\n";
    }
  };
  render(first, "trace 1");
  render(second, "trace 2");
  return out;
}

namespace {

CheckResult CheckFdImpl(const FunctionalDependency& fd,
                        pattern::MatchTables tables,
                        const CheckOptions& options) {
  RTP_OBS_COUNT("fd.check.calls");
  // Enumeration + grouping; table construction runs (and is spanned)
  // before this via the MatchTables::Build argument.
  RTP_PHASE("fd.group_and_compare");
  RTP_FAILPOINT("fd.check");
  const Document& doc = tables.doc();
  CheckResult result;
  pattern::MappingEnumerator enumerator(tables);
  xml::SubtreeHashCache hashes(doc);

  const std::vector<SelectedNode>& selected = fd.pattern().selected();
  const size_t num_conditions = selected.size() - 1;
  const SelectedNode target = selected.back();

  // Group key hash -> entries (collision bucket).
  std::unordered_map<uint64_t, std::vector<GroupEntry>> groups;

  size_t group_comparisons = 0;
  enumerator.ForEach([&](const Mapping& m) {
    ++result.num_mappings;
    NodeId context_image = m.image[fd.context()];
    uint64_t key = HashMix(0, context_image);
    for (size_t i = 0; i < num_conditions; ++i) {
      NodeId image = m.image[selected[i].node];
      uint64_t h = selected[i].equality == EqualityType::kNode
                       ? static_cast<uint64_t>(image)
                       : hashes.Hash(image);
      key = HashMix(key, h);
    }
    NodeId target_image = m.image[target.node];
    uint64_t target_hash = target.equality == EqualityType::kNode
                               ? static_cast<uint64_t>(target_image)
                               : hashes.Hash(target_image);

    auto& bucket = groups[key];
    for (GroupEntry& entry : bucket) {
      ++group_comparisons;
      // Confirm exact group equality (guards against hash collisions).
      if (entry.mapping.image[fd.context()] != context_image) continue;
      bool same_group = true;
      for (size_t i = 0; i < num_conditions && same_group; ++i) {
        same_group = SelectedEqual(doc, selected[i],
                                   entry.mapping.image[selected[i].node],
                                   m.image[selected[i].node]);
      }
      if (!same_group) continue;
      // Same group: targets must agree.
      bool targets_equal =
          entry.target_hash == target_hash &&
          SelectedEqual(doc, target, entry.mapping.image[target.node],
                        target_image);
      if (!targets_equal) {
        result.satisfied = false;
        if (!result.violation.has_value()) {
          result.violation = Violation{entry.mapping, m};
        }
        return !options.stop_at_first_violation;
      }
      return true;  // consistent with the representative
    }
    bucket.push_back(GroupEntry{m, target_hash});
    ++result.num_groups;
    return true;
  });
  RTP_OBS_COUNT_N("fd.check.traces_enumerated", result.num_mappings);
  RTP_OBS_COUNT_N("fd.check.groups_created", result.num_groups);
  RTP_OBS_COUNT_N("fd.check.group_comparisons", group_comparisons);
  if (!result.satisfied) RTP_OBS_COUNT("fd.check.violations");
  return result;
}

}  // namespace

CheckResult CheckFd(const FunctionalDependency& fd, const Document& doc,
                    const CheckOptions& options) {
  // The scope must wrap MatchTables::Build too — table construction, not
  // enumeration, is where large documents spend their budget. The
  // ProfileScope sits inside the guard scope so the profile can read the
  // budget consumption and trip status at close.
  guard::OptionalGuardScope scope(options.budget, options.cancel);
  obs::ProfileScope prof("fd.CheckFd", options.profile);
  CheckResult result = CheckFdImpl(
      fd, pattern::MatchTables::Build(fd.pattern(), doc), options);
  result.status = guard::CurrentStatus();
  return result;
}

CheckResult CheckFd(const FunctionalDependency& fd,
                    const xml::DocIndex& index, const CheckOptions& options) {
  guard::OptionalGuardScope scope(options.budget, options.cancel);
  obs::ProfileScope prof("fd.CheckFd", options.profile);
  CheckResult result = CheckFdImpl(
      fd, pattern::MatchTables::Build(fd.pattern(), index), options);
  result.status = guard::CurrentStatus();
  return result;
}

std::vector<CheckResult> CheckFdBatch(
    const FunctionalDependency& fd,
    const std::vector<const xml::Document*>& docs,
    const BatchCheckOptions& options) {
  RTP_OBS_COUNT("fd.check.batches");
  RTP_PHASE("fd.check.batch");
  if (options.profiles != nullptr) {
    options.profiles->assign(docs.size(), obs::QueryProfile());
  }
  std::vector<CheckResult> results(docs.size());
  exec::ParallelFor(options.jobs, docs.size(), [&](size_t i) {
    // Pre-cancelled items skip the work entirely so a cancelled batch
    // drains quickly; CheckFd installs the per-document guard.
    if (options.check.cancel != nullptr && options.check.cancel->cancelled()) {
      results[i].status = CancelledError("cancelled before check");
      return;
    }
    CheckOptions item_options = options.check;
    if (options.profiles != nullptr) {
      item_options.profile = &(*options.profiles)[i];
    }
    results[i] = CheckFd(fd, *docs[i], item_options);
  });
  return results;
}

}  // namespace rtp::fd
