#include "fuzz/oracles.h"

#include <set>
#include <string>

#include "common/rng.h"
#include "fd/fd_checker.h"
#include "fd/reference_checker.h"
#include "fuzz/generators.h"
#include "guard/guard.h"
#include "independence/criterion.h"
#include "pattern/evaluator.h"
#include "pattern/pattern_writer.h"
#include "pattern/reference_evaluator.h"
#include "workload/random_pattern.h"

namespace rtp::fuzz {

namespace {

std::set<std::vector<xml::NodeId>> ReferenceSelectedTuples(
    const pattern::TreePattern& pattern, const xml::Document& doc) {
  std::set<std::vector<xml::NodeId>> tuples;
  for (const pattern::Mapping& m :
       pattern::ReferenceEnumerateMappings(pattern, doc)) {
    std::vector<xml::NodeId> tuple;
    for (const pattern::SelectedNode& s : pattern.selected()) {
      tuple.push_back(m.image[s.node]);
    }
    tuples.insert(tuple);
  }
  return tuples;
}

std::string TupleSetSummary(const std::set<std::vector<xml::NodeId>>& tuples) {
  std::string out = "{";
  for (const auto& tuple : tuples) {
    out += "(";
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(tuple[i]);
    }
    out += ")";
  }
  return out + "}";
}

std::string FdCheckFingerprint(const fd::CheckResult& r) {
  std::string out = r.satisfied ? "sat" : "vio";
  out += ":" + std::to_string(r.num_mappings) + ":" +
         std::to_string(r.num_groups);
  if (r.violation.has_value()) {
    for (xml::NodeId n : r.violation->first.image) {
      out += "," + std::to_string(n);
    }
    out += "|";
    for (xml::NodeId n : r.violation->second.image) {
      out += "," + std::to_string(n);
    }
  }
  return out;
}

}  // namespace

Status CheckDenseVsReference(const pattern::TreePattern& pattern,
                             const xml::Document& doc) {
  std::vector<std::vector<xml::NodeId>> dense =
      pattern::EvaluateSelected(pattern, doc);
  std::set<std::vector<xml::NodeId>> dense_set(dense.begin(), dense.end());
  std::set<std::vector<xml::NodeId>> reference =
      ReferenceSelectedTuples(pattern, doc);
  if (dense_set != reference) {
    // A tripped ambient guard means one side ran on partial tables — not a
    // disagreement. Surface the resource status, never a bogus mismatch.
    RTP_RETURN_IF_ERROR(guard::CurrentStatus());
    return InternalError(
        "dense vs reference evaluation disagree: dense=" +
        TupleSetSummary(dense_set) + " reference=" +
        TupleSetSummary(reference) + " pattern:\n" +
        pattern::PatternToDsl(pattern, doc.alphabet()));
  }
  return Status::OK();
}

Status CheckEvalParallelVsSerial(const pattern::TreePattern& pattern,
                                 const std::vector<const xml::Document*>& docs,
                                 int jobs) {
  if (docs.empty()) return Status::OK();
  std::vector<std::vector<std::vector<xml::NodeId>>> serial;
  for (const xml::Document* doc : docs) {
    serial.push_back(pattern::EvaluateSelected(pattern, *doc));
  }
  std::vector<std::vector<std::vector<xml::NodeId>>> parallel =
      pattern::EvaluateSelectedBatch(pattern, docs, jobs);
  if (parallel != serial) {
    // Pool workers do not inherit this thread's guard: a trip makes the
    // serial side partial while the batch side completed. Not a mismatch.
    RTP_RETURN_IF_ERROR(guard::CurrentStatus());
    return InternalError(
        "EvaluateSelectedBatch(jobs=" + std::to_string(jobs) +
        ") differs from serial evaluation; pattern:\n" +
        pattern::PatternToDsl(pattern, docs[0]->alphabet()));
  }
  return Status::OK();
}

Status CheckFdParallelVsSerial(const fd::FunctionalDependency& fd,
                               const std::vector<const xml::Document*>& docs,
                               int jobs) {
  fd::BatchCheckOptions options;
  options.jobs = jobs;
  std::vector<fd::CheckResult> parallel = fd::CheckFdBatch(fd, docs, options);
  for (size_t i = 0; i < docs.size(); ++i) {
    std::string serial = FdCheckFingerprint(fd::CheckFd(fd, *docs[i]));
    std::string batch = FdCheckFingerprint(parallel[i]);
    if (serial != batch) {
      RTP_RETURN_IF_ERROR(guard::CurrentStatus());
      return InternalError("CheckFdBatch(jobs=" + std::to_string(jobs) +
                           ") differs from serial CheckFd on document " +
                           std::to_string(i) + ": serial=" + serial +
                           " batch=" + batch);
    }
  }
  return Status::OK();
}

Status CheckFdVsNaive(const fd::FunctionalDependency& fd,
                      const xml::Document& doc) {
  bool fast = fd::CheckFd(fd, doc).satisfied;
  bool naive = fd::ReferenceCheckFd(fd, doc);
  if (fast != naive) {
    RTP_RETURN_IF_ERROR(guard::CurrentStatus());
    return InternalError(
        std::string("hashed FD checker says ") +
        (fast ? "satisfied" : "violated") +
        " but the naive quadratic checker says the opposite; fd:\n" +
        fd.ToString(doc.alphabet()));
  }
  return Status::OK();
}

Status CheckCriterionVsBruteForce(const fd::FunctionalDependency& fd,
                                  const update::UpdateClass& update,
                                  const schema::Schema* schema,
                                  Alphabet* alphabet,
                                  const SmallDocParams& small_docs) {
  independence::CriterionOptions options;
  options.want_conflict_candidate = true;
  StatusOr<independence::CriterionResult> result =
      independence::CheckIndependence(fd, update, schema, alphabet, options);
  if (!result.ok()) {
    // A budget trip is a real outcome the caller must see; anything else
    // means the pair is outside the criterion's fragment (e.g. a selected
    // non-leaf) and there is no verdict to cross-check.
    if (guard::IsResourceStatus(result.status())) return result.status();
    return Status::OK();
  }
  if (result->independent) {
    // Emptiness of L must agree with the brute-force membership test on
    // every small document.
    Status found = Status::OK();
    ForEachSmallDocument(alphabet, small_docs, [&](const xml::Document& doc) {
      if (independence::IsInCriterionLanguage(doc, fd, update, schema)) {
        found = InternalError(
            "criterion claims independence (L empty) but a document with " +
            std::to_string(doc.LiveNodeCount()) +
            " nodes is in L per IsInCriterionLanguage; fd:\n" +
            fd.ToString(*alphabet) + "update pattern:\n" +
            pattern::PatternToDsl(update.pattern(), *alphabet));
        return false;
      }
      return true;
    });
    RTP_RETURN_IF_ERROR(guard::CurrentStatus());
    return found;
  }
  if (result->conflict_candidate.has_value() &&
      !independence::IsInCriterionLanguage(*result->conflict_candidate, fd,
                                           update, schema)) {
    RTP_RETURN_IF_ERROR(guard::CurrentStatus());
    return InternalError(
        "synthesized conflict candidate is not in L per "
        "IsInCriterionLanguage; fd:\n" +
        fd.ToString(*alphabet) + "update pattern:\n" +
        pattern::PatternToDsl(update.pattern(), *alphabet));
  }
  return Status::OK();
}

Status RunOracleBattery(uint64_t seed, const OracleOptions& options) {
  Alphabet alphabet;
  Rng rng(seed);
  InstanceGenParams instance;

  // Small documents: the reference oracles are exponential and the
  // brute-force enumerator combinatorial, so everything stays tiny.
  std::vector<xml::Document> docs;
  for (uint32_t i = 0; i < options.num_documents; ++i) {
    workload::RandomTreeParams tree_params;
    tree_params.seed = rng.Next();
    tree_params.num_labels = instance.num_labels;
    tree_params.max_nodes = options.max_tree_nodes;
    docs.push_back(workload::GenerateRandomTree(&alphabet, tree_params));
  }
  std::vector<const xml::Document*> ptrs;
  for (const xml::Document& doc : docs) ptrs.push_back(&doc);

  auto annotate = [&](Status status) {
    if (status.ok()) return status;
    return Status(status.code(),
                  "[battery seed " + std::to_string(seed) + "] " +
                      status.message());
  };

  pattern::TreePattern pattern =
      GeneratePatternInstance(&alphabet, &rng, instance);
  for (const xml::Document& doc : docs) {
    RTP_RETURN_IF_ERROR(annotate(CheckDenseVsReference(pattern, doc)));
  }
  RTP_RETURN_IF_ERROR(
      annotate(CheckEvalParallelVsSerial(pattern, ptrs, options.jobs)));

  fd::FunctionalDependency fd = GenerateFdInstance(&alphabet, &rng, instance);
  for (const xml::Document& doc : docs) {
    RTP_RETURN_IF_ERROR(annotate(CheckFdVsNaive(fd, doc)));
  }
  RTP_RETURN_IF_ERROR(
      annotate(CheckFdParallelVsSerial(fd, ptrs, options.jobs)));

  update::UpdateClass update =
      GenerateUpdateClassInstance(&alphabet, &rng, instance);
  SmallDocParams small_docs;
  small_docs.max_nodes = options.small_doc_max_nodes;
  small_docs.labels.clear();
  for (uint32_t i = 0; i < instance.num_labels; ++i) {
    small_docs.labels.push_back("l" + std::to_string(i));
  }
  small_docs.labels.push_back("#text");
  RTP_RETURN_IF_ERROR(annotate(CheckCriterionVsBruteForce(
      fd, update, /*schema=*/nullptr, &alphabet, small_docs)));

  return Status::OK();
}

}  // namespace rtp::fuzz
