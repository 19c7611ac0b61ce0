// Differential battery for the parallel batch paths: every parallel API
// must be bit-identical to its serial counterpart for jobs in {1, 2, 8},
// and the serial counterpart is itself cross-checked against the reference
// oracles (ReferenceEnumerateMappings / ReferenceCheckFd) on randomized
// workloads with fixed seeds. Inputs stay tiny: the oracles are
// exponential, and the whole file runs under TSan in CI (`exec` label).

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/automaton_cache.h"
#include "fd/fd_checker.h"
#include "fd/functional_dependency.h"
#include "fd/reference_checker.h"
#include "independence/matrix.h"
#include "pattern/evaluator.h"
#include "pattern/pattern_parser.h"
#include "pattern/reference_evaluator.h"
#include "update/update_class.h"
#include "workload/exam_generator.h"
#include "xml/doc_index.h"
#include "workload/exam_schema.h"
#include "workload/paper_patterns.h"
#include "workload/random_pattern.h"

namespace rtp {
namespace {

constexpr int kJobs[] = {1, 2, 8};

// ---------------------------------------------------------------------------
// Independence matrix: paper FDs x paper update class, all jobs values.

std::string MatrixFingerprint(const independence::IndependenceMatrix& m) {
  std::string out;
  for (const auto& e : m.entries) {
    out += std::to_string(e.fd_index) + "," + std::to_string(e.class_index) +
           "," + (e.independent ? "1" : "0") + "," +
           std::to_string(e.product_size) + ";";
  }
  return out;
}

TEST(ParallelMatrixTest, PaperWorkloadIdenticalAcrossJobs) {
  Alphabet alphabet;
  std::vector<fd::FunctionalDependency> fds;
  for (auto* make : {workload::PaperFd1, workload::PaperFd2,
                     workload::PaperFd3, workload::PaperFd4,
                     workload::PaperFd5}) {
    auto fd = fd::FunctionalDependency::FromParsed(make(&alphabet));
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    fds.push_back(std::move(fd).value());
  }
  auto cls = update::UpdateClass::FromParsed(workload::PaperUpdateU(&alphabet));
  ASSERT_TRUE(cls.ok()) << cls.status().ToString();
  schema::Schema schema = workload::BuildExamSchema(&alphabet);

  std::vector<const fd::FunctionalDependency*> fd_ptrs;
  for (const auto& fd : fds) fd_ptrs.push_back(&fd);
  std::vector<const update::UpdateClass*> class_ptrs = {&cls.value()};

  std::string serial_fingerprint;
  for (int jobs : kJobs) {
    // A fresh cache per jobs value: hits/misses differ, results must not.
    exec::AutomatonCache cache;
    independence::MatrixOptions options;
    options.jobs = jobs;
    options.cache = &cache;
    auto matrix = independence::ComputeIndependenceMatrix(
        fd_ptrs, class_ptrs, &schema, &alphabet, options);
    ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
    EXPECT_EQ(matrix->num_fds, fds.size());
    EXPECT_EQ(matrix->num_classes, 1u);
    std::string fingerprint = MatrixFingerprint(*matrix);
    if (jobs == 1) {
      serial_fingerprint = fingerprint;
      // fd5 x U with the exam schema is the paper's independent pair.
      EXPECT_TRUE(matrix->at(4, 0).independent);
    } else {
      EXPECT_EQ(fingerprint, serial_fingerprint) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelMatrixTest, CachedAndUncachedAgree) {
  Alphabet alphabet;
  auto fd = fd::FunctionalDependency::FromParsed(workload::PaperFd5(&alphabet));
  ASSERT_TRUE(fd.ok());
  auto cls = update::UpdateClass::FromParsed(workload::PaperUpdateU(&alphabet));
  ASSERT_TRUE(cls.ok());
  schema::Schema schema = workload::BuildExamSchema(&alphabet);
  std::vector<const fd::FunctionalDependency*> fd_ptrs = {&fd.value()};
  std::vector<const update::UpdateClass*> class_ptrs = {&cls.value()};

  auto uncached = independence::ComputeIndependenceMatrix(
      fd_ptrs, class_ptrs, &schema, &alphabet, {});
  ASSERT_TRUE(uncached.ok());

  exec::AutomatonCache cache;
  independence::MatrixOptions options;
  options.jobs = 2;
  options.cache = &cache;
  auto cached = independence::ComputeIndependenceMatrix(
      fd_ptrs, class_ptrs, &schema, &alphabet, options);
  ASSERT_TRUE(cached.ok());

  EXPECT_EQ(MatrixFingerprint(*uncached), MatrixFingerprint(*cached));
  EXPECT_GT(cache.size(), 0u);
}

TEST(ParallelMatrixTest, StructuralErrorIsDeterministicAcrossJobs) {
  Alphabet alphabet;
  auto fd = fd::FunctionalDependency::FromParsed(workload::PaperFd1(&alphabet));
  ASSERT_TRUE(fd.ok());
  // The selected node has a template child, so the criterion's leaf
  // restriction rejects the pair with an InvalidArgument error.
  auto bad_parsed = pattern::ParsePattern(&alphabet,
                                          "root {\n"
                                          "  s = session {\n"
                                          "    candidate;\n"
                                          "  }\n"
                                          "}\n"
                                          "select s;\n");
  ASSERT_TRUE(bad_parsed.ok()) << bad_parsed.status().ToString();
  auto bad_cls = update::UpdateClass::FromParsed(std::move(bad_parsed).value());
  ASSERT_TRUE(bad_cls.ok());
  std::vector<const fd::FunctionalDependency*> fd_ptrs = {&fd.value()};
  std::vector<const update::UpdateClass*> class_ptrs = {&bad_cls.value()};

  std::string serial_error;
  for (int jobs : kJobs) {
    independence::MatrixOptions options;
    options.jobs = jobs;
    auto matrix = independence::ComputeIndependenceMatrix(
        fd_ptrs, class_ptrs, /*schema=*/nullptr, &alphabet, options);
    ASSERT_FALSE(matrix.ok());
    if (jobs == 1) {
      serial_error = matrix.status().ToString();
    } else {
      EXPECT_EQ(matrix.status().ToString(), serial_error) << "jobs=" << jobs;
    }
  }
}

// ---------------------------------------------------------------------------
// Batch FD checking: parallel == serial == reference oracle.

std::string CheckFingerprint(const fd::CheckResult& r) {
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

TEST(ParallelFdCheckTest, ExamWorkloadIdenticalAcrossJobsAndMatchesSerial) {
  Alphabet alphabet;
  auto fd = fd::FunctionalDependency::FromParsed(workload::PaperFd1(&alphabet));
  ASSERT_TRUE(fd.ok());

  // A mix of satisfying (consistent ranks) and violating documents.
  std::vector<xml::Document> docs;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    workload::ExamWorkloadParams params;
    params.num_candidates = 6;
    params.exams_per_candidate = 3;
    params.num_disciplines = 2;
    params.num_marks = 3;
    params.consistent_ranks = (seed % 2 == 0);
    params.seed = seed;
    docs.push_back(workload::GenerateExamDocument(&alphabet, params));
  }
  std::vector<const xml::Document*> ptrs;
  for (const auto& doc : docs) ptrs.push_back(&doc);

  std::vector<std::string> serial;
  for (const auto* doc : ptrs) {
    serial.push_back(CheckFingerprint(fd::CheckFd(fd.value(), *doc)));
  }
  for (int jobs : kJobs) {
    fd::BatchCheckOptions options;
    options.jobs = jobs;
    std::vector<fd::CheckResult> batch =
        fd::CheckFdBatch(fd.value(), ptrs, options);
    ASSERT_EQ(batch.size(), serial.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(CheckFingerprint(batch[i]), serial[i])
          << "jobs=" << jobs << " doc=" << i;
    }
  }
}

TEST(ParallelFdCheckTest, RandomTreesMatchReferenceOracle) {
  Alphabet alphabet;
  // A small FD over the random-tree label set: within the scope of an l0
  // node, the value of an l1 child determines the value of an l2 child.
  workload::RandomPatternParams pattern_params;
  pattern_params.num_labels = 3;

  for (uint64_t seed = 1; seed <= 6; ++seed) {
    pattern_params.seed = seed * 101;
    pattern_params.num_selected = 2;
    pattern::TreePattern pattern =
        workload::GenerateRandomPattern(&alphabet, pattern_params);
    auto fd = fd::FunctionalDependency::Create(std::move(pattern),
                                               pattern::TreePattern::kRoot);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();

    std::vector<xml::Document> docs;
    for (uint64_t tree_seed = 1; tree_seed <= 4; ++tree_seed) {
      workload::RandomTreeParams tree_params;
      tree_params.seed = seed * 1000 + tree_seed;
      tree_params.max_nodes = 10;
      docs.push_back(workload::GenerateRandomTree(&alphabet, tree_params));
    }
    std::vector<const xml::Document*> ptrs;
    for (const auto& doc : docs) ptrs.push_back(&doc);

    for (int jobs : kJobs) {
      fd::BatchCheckOptions options;
      options.jobs = jobs;
      std::vector<fd::CheckResult> batch =
          fd::CheckFdBatch(fd.value(), ptrs, options);
      ASSERT_EQ(batch.size(), docs.size());
      for (size_t i = 0; i < docs.size(); ++i) {
        bool expected = fd::ReferenceCheckFd(fd.value(), docs[i]);
        EXPECT_EQ(batch[i].satisfied, expected)
            << "seed=" << seed << " doc=" << i << " jobs=" << jobs;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batch pattern evaluation: parallel == serial == reference oracle.

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

TEST(ParallelEvalTest, RandomWorkloadMatchesSerialAndReference) {
  Alphabet alphabet;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    workload::RandomPatternParams pattern_params;
    pattern_params.seed = seed * 7;
    pattern::TreePattern pattern =
        workload::GenerateRandomPattern(&alphabet, pattern_params);

    std::vector<xml::Document> docs;
    for (uint64_t tree_seed = 1; tree_seed <= 5; ++tree_seed) {
      workload::RandomTreeParams tree_params;
      tree_params.seed = seed * 100 + tree_seed;
      docs.push_back(workload::GenerateRandomTree(&alphabet, tree_params));
    }
    std::vector<const xml::Document*> ptrs;
    for (const auto& doc : docs) ptrs.push_back(&doc);

    std::vector<std::vector<std::vector<xml::NodeId>>> serial;
    for (const auto* doc : ptrs) {
      serial.push_back(pattern::EvaluateSelected(pattern, *doc));
    }
    // Serial evaluator vs the Definition 2 oracle (as tuple sets — the
    // oracle's enumeration order differs).
    for (size_t i = 0; i < docs.size(); ++i) {
      std::set<std::vector<xml::NodeId>> got(serial[i].begin(),
                                             serial[i].end());
      EXPECT_EQ(got, ReferenceSelectedTuples(pattern, docs[i]))
          << "seed=" << seed << " doc=" << i;
    }
    // Batch vs serial: exact, order included, for every jobs value.
    for (int jobs : kJobs) {
      auto batch = pattern::EvaluateSelectedBatch(pattern, ptrs, jobs);
      EXPECT_EQ(batch, serial) << "seed=" << seed << " jobs=" << jobs;
    }
  }
}

// Dense kernel leg: the flat-table evaluator (DenseDfa + DocIndex; the
// only evaluator since PR 3) must agree with the Definition 2 oracle, and
// the per-document, shared-snapshot, and batch entry points must all be
// bit-identical to each other at every jobs value.
TEST(DenseKernelDifferentialTest, DocAndIndexAndBatchMatchReference) {
  Alphabet alphabet;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    workload::RandomPatternParams pattern_params;
    pattern_params.seed = seed * 13;
    pattern_params.num_labels = 4;
    pattern::TreePattern pattern =
        workload::GenerateRandomPattern(&alphabet, pattern_params);

    std::vector<xml::Document> docs;
    for (uint64_t tree_seed = 1; tree_seed <= 4; ++tree_seed) {
      workload::RandomTreeParams tree_params;
      tree_params.seed = seed * 500 + tree_seed;
      tree_params.max_nodes = 12;
      docs.push_back(workload::GenerateRandomTree(&alphabet, tree_params));
    }
    std::vector<const xml::Document*> ptrs;
    for (const auto& doc : docs) ptrs.push_back(&doc);

    std::vector<std::vector<std::vector<xml::NodeId>>> serial;
    for (size_t i = 0; i < docs.size(); ++i) {
      serial.push_back(pattern::EvaluateSelected(pattern, docs[i]));
      // Shared prebuilt snapshot: identical, order included.
      const xml::DocIndex index = xml::DocIndex::Build(docs[i]);
      EXPECT_EQ(pattern::EvaluateSelected(pattern, index), serial[i])
          << "seed=" << seed << " doc=" << i;
      // Oracle comparison as tuple sets.
      std::set<std::vector<xml::NodeId>> got(serial[i].begin(),
                                             serial[i].end());
      EXPECT_EQ(got, ReferenceSelectedTuples(pattern, docs[i]))
          << "seed=" << seed << " doc=" << i;
    }
    for (int jobs : kJobs) {
      auto batch = pattern::EvaluateSelectedBatch(pattern, ptrs, jobs);
      EXPECT_EQ(batch, serial) << "seed=" << seed << " jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace rtp
