#include "independence/criterion.h"

#include <set>

#include "automata/pattern_compiler.h"
#include "automata/product.h"
#include "exec/automaton_cache.h"
#include "guard/failpoints.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/evaluator.h"

namespace rtp::independence {

using automata::HedgeAutomaton;
using automata::MarkMode;

StatusOr<CriterionResult> CheckIndependence(
    const fd::FunctionalDependency& fd, const update::UpdateClass& update,
    const schema::Schema* schema, Alphabet* alphabet,
    const CriterionOptions& options) {
  RTP_OBS_COUNT("independence.criterion.checks");
  RTP_PHASE("independence.criterion");
  if (!update.SelectedAreLeaves()) {
    return InvalidArgumentError(
        "the criterion requires every selected node of the update class to "
        "be a leaf of its template (Section 5)");
  }

  // The scope covers compilation, products and emptiness. Structural
  // validation above is O(pattern) and stays outside so it keeps its
  // InvalidArgument code even on a pre-cancelled token.
  guard::OptionalGuardScope guard_scope(options.budget, options.cancel);
  RTP_FAILPOINT("independence.criterion");

  // Compiled pattern automata, either freshly built or shared through the
  // caller's AutomatonCache (the batch/matrix path compiles each FD and
  // update class once instead of once per pair). Under an active guard the
  // cache is bypassed: its build-once contract would permanently memoize
  // an automaton whose construction a trip cut short.
  std::shared_ptr<const HedgeAutomaton> fd_shared;
  std::shared_ptr<const HedgeAutomaton> u_shared;
  HedgeAutomaton fd_local;
  HedgeAutomaton u_local;
  {
    RTP_PHASE("independence.compile_patterns");
    if (options.cache != nullptr && !guard::Active()) {
      fd_shared = options.cache->GetPatternAutomaton(
          fd.pattern(), *alphabet, MarkMode::kTraceAndSelectedSubtrees);
      u_shared = options.cache->GetPatternAutomaton(
          update.pattern(), *alphabet, MarkMode::kSelectedImagesOnly);
    } else {
      fd_local =
          CompilePattern(fd.pattern(), MarkMode::kTraceAndSelectedSubtrees);
      u_local =
          CompilePattern(update.pattern(), MarkMode::kSelectedImagesOnly);
    }
  }
  RTP_RETURN_IF_ERROR(guard::CurrentStatus());
  const HedgeAutomaton& fd_automaton = fd_shared ? *fd_shared : fd_local;
  const HedgeAutomaton& u_automaton = u_shared ? *u_shared : u_local;
  HedgeAutomaton schema_automaton =
      schema != nullptr ? HedgeAutomaton() : HedgeAutomaton::Universal();
  const HedgeAutomaton& a_s =
      schema != nullptr ? schema->automaton() : schema_automaton;

  HedgeAutomaton meet;
  HedgeAutomaton l_automaton;
  {
    RTP_PHASE("independence.build_product");
    meet = automata::MeetProduct(fd_automaton, u_automaton);
    l_automaton = automata::Intersect(meet, a_s);
  }
  RTP_RETURN_IF_ERROR(guard::CurrentStatus());

  CriterionResult result;
  result.fd_automaton_size = fd_automaton.TotalSize();
  result.u_automaton_size = u_automaton.TotalSize();
  result.schema_automaton_size = a_s.TotalSize();
  result.product_size = l_automaton.TotalSize();
  {
    RTP_PHASE("independence.emptiness");
    result.independent = l_automaton.IsEmptyLanguage();
  }
  // A trip during emptiness makes `independent` untrustworthy (the
  // saturation fixpoint may have stopped early); discard the verdict.
  RTP_RETURN_IF_ERROR(guard::CurrentStatus());
  RTP_OBS_HISTOGRAM_RECORD("independence.criterion.product_size",
                           result.product_size);
  if (result.independent) {
    RTP_OBS_COUNT("independence.criterion.independent");
  } else {
    RTP_OBS_COUNT("independence.criterion.unknown");
  }
  if (!result.independent && options.want_conflict_candidate) {
    RTP_PHASE("independence.witness_synthesis");
    auto witness = l_automaton.FindWitnessDocument(alphabet);
    if (witness.ok()) {
      result.conflict_candidate = std::move(witness).value();
    }
  }
  return result;
}

bool IsInCriterionLanguage(const xml::Document& doc,
                           const fd::FunctionalDependency& fd,
                           const update::UpdateClass& update,
                           const schema::Schema* schema) {
  return IsInCriterionLanguage(*doc.Snapshot(), fd, update, schema);
}

bool IsInCriterionLanguage(const xml::DocIndex& index,
                           const fd::FunctionalDependency& fd,
                           const update::UpdateClass& update,
                           const schema::Schema* schema) {
  const xml::Document& doc = index.doc();
  RTP_OBS_COUNT("independence.reverify.calls");
  RTP_PHASE("independence.reverify");
  if (schema != nullptr && !schema->Validate(doc)) return false;

  // Nodes the update class would update.
  std::vector<xml::NodeId> updated = update.SelectNodes(index);
  if (updated.empty()) return false;

  // Does some FD mapping's trace-or-covered set intersect them?
  pattern::MatchTables tables =
      pattern::MatchTables::Build(fd.pattern(), index);
  pattern::MappingEnumerator enumerator(tables);
  bool found = false;
  enumerator.ForEach([&](const pattern::Mapping& m) {
    std::vector<xml::NodeId> trace = pattern::TraceOf(doc, m);
    std::set<xml::NodeId> fd_set(trace.begin(), trace.end());
    for (const pattern::SelectedNode& s : fd.pattern().selected()) {
      // Node-equality positions do not contribute their subtrees (see the
      // refinement note in pattern_compiler.h); their images are already
      // on the trace.
      if (s.equality != pattern::EqualityType::kValue) continue;
      doc.VisitFrom(m.image[s.node], [&fd_set](xml::NodeId n) {
        fd_set.insert(n);
        return true;
      });
    }
    for (xml::NodeId n : updated) {
      if (fd_set.count(n) > 0) {
        found = true;
        return false;  // stop enumeration
      }
    }
    return true;
  });
  return found;
}

}  // namespace rtp::independence
