// Table-driven regression suite for the independence criterion: a broad
// set of (fd, update-class, schema?) cases with expected verdicts,
// covering descendant wildcards, attribute/text updates, node-equality
// targets, deep patterns and schema-dependent decisions. Every "unknown"
// verdict is additionally justified by a synthesized conflict candidate
// that passes the direct L-membership test.

#include <gtest/gtest.h>

#include <ostream>

#include "independence/criterion.h"
#include "workload/exam_schema.h"

namespace rtp::independence {
namespace {

struct Case {
  const char* name;
  const char* fd_text;
  const char* update_text;
  bool with_schema;  // exam schema
  bool expect_independent;
};

// gtest prints the parameter into each listed test name, and ctest keeps
// that name as the test's id. Without a printer it prints the struct's raw
// bytes, pointers included, so the id would change with every process.
void PrintTo(const Case& c, std::ostream* os) {
  *os << (c.expect_independent ? "independent" : "unknown")
      << (c.with_schema ? "+schema" : "");
}

// fd templates reused across cases.
constexpr const char* kFd1 = R"(
  root { c = session { x = candidate/exam { p1 = discipline; p2 = mark; q = rank; } } }
  select p1, p2, q; context c;
)";
constexpr const char* kFd2 = R"(
  root { session { c = candidate { x = exam { p2 = discipline; p1 = date; } } } }
  select p1, p2, x[N]; context c;
)";
constexpr const char* kDeepFd = R"(
  root { c = session { x = candidate { q = exam/_*/rank; } } }
  select q; context c;
)";
constexpr const char* kAttrKey = R"(
  root { c = session { x = candidate { p = @IDN; } } }
  select p, x[N]; context c;
)";

const Case kCases[] = {
    // 1. Disjoint labels, no schema needed.
    {"fd1_vs_unrelated_label", kFd1,
     "root { s = session/candidate/firstJob-Year; } select s;", false, true},
    // 2. Target hit directly.
    {"fd1_vs_rank", kFd1, "root { s = session/candidate/exam/rank; } select s;",
     false, false},
    // 3. Condition hit.
    {"fd1_vs_discipline", kFd1,
     "root { s = session/candidate/exam/discipline; } select s;", false, false},
    // 4. Text node below a condition: still inside the covered subtree.
    {"fd1_vs_mark_text", kFd1,
     "root { s = session/candidate/exam/mark/#text; } select s;", false, false},
    // 5. Wildcard update class overlapping everything.
    {"fd1_vs_wildcard", kFd1, "root { s = _*/rank; } select s;", false, false},
    // 6. Wildcard that cannot reach fd1's covered set: anything below a
    // toBePassed node (fd1 has no toBePassed on its trace).
    {"fd1_vs_below_tbp", kFd1,
     "root { s = session/candidate/toBePassed/_+; } select s;", false, true},
    // 7. fd2's N-target: updates below the exam (not on condition paths)
    // are safe thanks to the node-equality refinement.
    {"fd2_vs_rank", kFd2, "root { s = session/candidate/exam/rank; } select s;",
     false, true},
    // 8. fd2 condition (date) hit.
    {"fd2_vs_date", kFd2, "root { s = session/candidate/exam/date; } select s;",
     false, false},
    // 9. Trace hit: updating exam nodes themselves... selected nodes must
    // be template leaves; 'exam' as a leaf selection IS allowed (the doc
    // node has children; the template node has none).
    {"fd2_vs_exam", kFd2, "root { s = session/candidate/exam; } select s;",
     false, false},
    // 10. Deep descendant target: a wildcard in the FD edge overlaps a
    // concrete update path.
    {"deepfd_vs_rank", kDeepFd,
     "root { s = session/candidate/exam/extra/rank; } select s;", false, false},
    // 11. But the deep FD is safe from level updates.
    {"deepfd_vs_level", kDeepFd,
     "root { s = session/candidate/level; } select s;", false, true},
    // 12. Attribute-keyed FD vs attribute updates.
    {"attrkey_vs_idn", kAttrKey,
     "root { s = session/candidate/@IDN; } select s;", false, false},
    // 13. Attribute-keyed FD vs other attributes.
    {"attrkey_vs_other_attr", kAttrKey,
     "root { s = session/candidate/exam/@weight; } select s;", false, true},
    // 14. Schema-dependent: without the schema a 'rank' could appear under
    // toBePassed (label-only reasoning says paths diverge... they do:
    // anchored paths; this one is independent either way).
    {"fd1_vs_below_tbp_schema", kFd1,
     "root { s = session/candidate/toBePassed/_+; } select s;", true, true},
    // 15. Schema rules out exam-under-exam nesting: without it, the
    // descendant update _*/exam/_*/mark could hit fd1's mark inside a
    // nested exam chain... it hits fd1's mark directly anyway.
    {"fd1_vs_any_mark", kFd1, "root { s = _*/mark; } select s;", true, false},
    // 16. Multiple selected update nodes: one overlaps, one does not.
    {"fd1_vs_level_and_rank", kFd1, R"(
       root { session/candidate { exam { a = rank; } b = level; } }
       select a, b;
     )",
     false, false},
    // 17. Multiple selected update nodes, none overlapping.
    {"fd1_vs_level_and_fj", kFd1, R"(
       root { session/candidate { a = level; b = firstJob-Year; } }
       select a, b;
     )",
     false, true},
};

class CriterionCasesTest : public ::testing::TestWithParam<Case> {};

TEST_P(CriterionCasesTest, VerdictMatches) {
  const Case& c = GetParam();
  Alphabet alphabet;
  std::optional<schema::Schema> schema;
  if (c.with_schema) schema = workload::BuildExamSchema(&alphabet);

  auto fd_parsed = pattern::ParsePattern(&alphabet, c.fd_text);
  ASSERT_TRUE(fd_parsed.ok()) << fd_parsed.status().ToString();
  auto fd = fd::FunctionalDependency::FromParsed(std::move(fd_parsed).value());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  auto u_parsed = pattern::ParsePattern(&alphabet, c.update_text);
  ASSERT_TRUE(u_parsed.ok()) << u_parsed.status().ToString();
  auto cls = update::UpdateClass::FromParsed(std::move(u_parsed).value());
  ASSERT_TRUE(cls.ok()) << cls.status().ToString();

  CriterionOptions options;
  options.want_conflict_candidate = true;
  auto result = CheckIndependence(*fd, *cls, schema ? &*schema : nullptr,
                                  &alphabet, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->independent, c.expect_independent) << c.name;

  if (!result->independent) {
    ASSERT_TRUE(result->conflict_candidate.has_value()) << c.name;
    EXPECT_TRUE(IsInCriterionLanguage(*result->conflict_candidate, *fd, *cls,
                                      schema ? &*schema : nullptr))
        << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, CriterionCasesTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace rtp::independence
