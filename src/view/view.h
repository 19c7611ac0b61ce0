#ifndef RTP_VIEW_VIEW_H_
#define RTP_VIEW_VIEW_H_

#include "common/status.h"
#include "independence/criterion.h"
#include "pattern/pattern_parser.h"
#include "pattern/tree_pattern.h"
#include "schema/schema.h"
#include "update/update_class.h"
#include "xml/document.h"

namespace rtp::view {

// A view over XML documents specified by an n-ary regular tree pattern —
// the setting of the paper's earlier companion work ([9] there), which the
// introduction presents as the same machinery: a view is independent of a
// class of updates when no update can change its materialization. The
// criterion is the analogue of Definition 6 with the FD pattern replaced
// by the view pattern.
class View {
 public:
  // The pattern's selected tuple defines the view output R(D): the tuples
  // of subtrees rooted at the selected images.
  static StatusOr<View> Create(pattern::TreePattern pattern);
  static StatusOr<View> FromParsed(pattern::ParsedPattern parsed);

  const pattern::TreePattern& pattern() const { return pattern_; }

  // Materializes R(D) as a document:
  //   /result/tuple*  with one <tuple> child per distinct selected tuple,
  // in document order, holding copies of the selected subtrees in tuple
  // order.
  xml::Document Materialize(const xml::Document& doc) const;

 private:
  explicit View(pattern::TreePattern pattern) : pattern_(std::move(pattern)) {}

  pattern::TreePattern pattern_;
};

// Sufficient criterion for view-update independence: empty L where L is
// the set of schema-valid documents containing a view trace and a U trace
// whose updated node lies on the view trace or inside a selected subtree.
// Preconditions mirror CheckIndependence (leaf-selected update class).
StatusOr<independence::CriterionResult> CheckViewIndependence(
    const View& view, const update::UpdateClass& update,
    const schema::Schema* schema, Alphabet* alphabet,
    const independence::CriterionOptions& options = {});

}  // namespace rtp::view

#endif  // RTP_VIEW_VIEW_H_
