#include "automata/pattern_compiler.h"

#include <map>
#include <set>

#include "guard/failpoints.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rtp::automata {

using pattern::PatternNodeId;
using pattern::TreePattern;

namespace {

// State layout bookkeeping for one compiled pattern.
class Compiler {
 public:
  Compiler(const TreePattern& pattern, MarkMode mode)
      : pattern_(pattern), mode_(mode) {
    covered_variants_ = mode == MarkMode::kTraceAndSelectedSubtrees;
    for (const pattern::SelectedNode& s : pattern.selected()) {
      selected_.insert(s.node);
      // Only value-compared selected nodes need their subtrees covered:
      // an update strictly below a node-equality image cannot change the
      // node's identity, so it cannot flip an existing trace's
      // (dis)agreement at that position. (Sound precision refinement of
      // Definition 6; updates ON the trace are caught by trace marks.)
      if (s.equality == pattern::EqualityType::kValue) {
        covered_roots_.insert(s.node);
      }
    }
  }

  HedgeAutomaton Compile() {
    AllocateStates();
    // A trip during allocation leaves unallocated (-1) state slots, so no
    // transition may be emitted; the partial automaton is discarded at the
    // caller's Status boundary either way.
    if (!guard::Ok()) return std::move(automaton_);
    EmitOutAndCovered();
    for (PatternNodeId w = 1; w < pattern_.NumNodes(); ++w) {
      if (!guard::KeepGoing()) break;
      EmitPathAndImage(w);
    }
    if (guard::Ok()) {
      EmitRoot();
      automaton_.AddRootAccepting(root_state_);
    }
    return std::move(automaton_);
  }

 private:
  int NumCov() const { return covered_variants_ ? 2 : 1; }

  void AllocateStates() {
    out_state_ = automaton_.AddState(/*mark=*/false);
    if (covered_variants_) {
      covered_state_ = automaton_.AddState(/*mark=*/true);
    }
    // path/img states per (w, dfa state, cov).
    path_state_.resize(pattern_.NumNodes());
    img_state_.resize(pattern_.NumNodes());
    for (PatternNodeId w = 1; w < pattern_.NumNodes(); ++w) {
      int32_t n = pattern_.edge(w).dfa().NumStates();
      // 2 * n * NumCov() automaton states per pattern node (path + img);
      // charging per node lets a quota trip before the largest edge's
      // block is allocated.
      guard::AccountStates(2 * static_cast<int64_t>(n) * NumCov());
      if (!guard::Ok()) return;
      path_state_[w].assign(static_cast<size_t>(n) * NumCov(), -1);
      img_state_[w].assign(static_cast<size_t>(n) * NumCov(), -1);
      for (int32_t s = 0; s < n; ++s) {
        for (int cov = 0; cov < NumCov(); ++cov) {
          bool trace_mark = mode_ == MarkMode::kTraceAndSelectedSubtrees;
          path_state_[w][Index(w, s, cov)] = automaton_.AddState(trace_mark);
          bool img_mark =
              trace_mark || (mode_ == MarkMode::kSelectedImagesOnly &&
                             selected_.count(w) > 0);
          img_state_[w][Index(w, s, cov)] = automaton_.AddState(img_mark);
        }
      }
    }
    root_state_ = automaton_.AddState(
        /*mark=*/mode_ == MarkMode::kTraceAndSelectedSubtrees);
  }

  size_t Index(PatternNodeId w, int32_t s, int cov) const {
    (void)w;
    return static_cast<size_t>(s) * NumCov() + cov;
  }

  StateId Path(PatternNodeId w, int32_t s, int cov) const {
    return path_state_[w][Index(w, s, cov)];
  }
  StateId Img(PatternNodeId w, int32_t s, int cov) const {
    return img_state_[w][Index(w, s, cov)];
  }
  StateId Filler(int cov) const {
    return cov == 0 ? out_state_ : covered_state_;
  }

  void EmitOutAndCovered() {
    // out: any label, all children out.
    automaton_.AddTransition(Guard::Any(), InterleavedHorizontal({}, {out_state_}),
                             out_state_);
    if (covered_variants_) {
      automaton_.AddTransition(Guard::Any(),
                               InterleavedHorizontal({}, {covered_state_}),
                               covered_state_);
    }
  }

  // Horizontal language of an image of w whose children live under
  // coverage `cov_children`.
  regex::Dfa ImageHorizontal(PatternNodeId w, int cov_children) const {
    std::vector<std::vector<StateId>> parts;
    for (PatternNodeId child : pattern_.children(w)) {
      int32_t init = pattern_.edge(child).dfa().initial();
      parts.push_back({Path(child, init, cov_children),
                       Img(child, init, cov_children)});
    }
    return InterleavedHorizontal(parts, {Filler(cov_children)});
  }

  // Emits transitions for path(w, s, cov) and img(w, s, cov) states.
  void EmitPathAndImage(PatternNodeId w) {
    const regex::Dfa& dfa = pattern_.edge(w).dfa();
    for (int cov = 0; cov < NumCov(); ++cov) {
      int child_cov =
          (covered_variants_ && (cov == 1 || covered_roots_.count(w) > 0)) ? 1
                                                                           : 0;
      regex::Dfa img_horizontal = ImageHorizontal(w, child_cov);
      for (int32_t s = 0; s < dfa.NumStates(); ++s) {
        if (!guard::KeepGoing()) return;
        // Group label options: explicit keys, then the 'otherwise' bucket.
        const regex::Dfa::State& dstate = dfa.state(s);
        std::vector<LabelId> keys;
        keys.reserve(dstate.next.size());
        for (const auto& [label, _] : dstate.next) keys.push_back(label);

        auto emit_for = [&](const Guard& guard, int32_t s_after) {
          if (s_after == regex::kDeadState) return;
          // Path continuation: exactly one child carries the rest.
          regex::Dfa cont = InterleavedHorizontal(
              {{Path(w, s_after, cov), Img(w, s_after, cov)}}, {Filler(cov)});
          automaton_.AddTransition(guard, std::move(cont), Path(w, s, cov));
          if (dfa.accepting(s_after)) {
            automaton_.AddTransition(guard, img_horizontal, Img(w, s, cov));
          }
        };
        for (LabelId label : keys) {
          emit_for(Guard::Label(label), dfa.Next(s, label));
        }
        emit_for(Guard::AnyExcept(keys), dstate.otherwise);
      }
    }
  }

  void EmitRoot() {
    int child_cov = (covered_variants_ &&
                     covered_roots_.count(TreePattern::kRoot) > 0)
                        ? 1
                        : 0;
    automaton_.AddTransition(Guard::Label(Alphabet::kRootLabel),
                             ImageHorizontal(TreePattern::kRoot, child_cov),
                             root_state_);
  }

  const TreePattern& pattern_;
  MarkMode mode_;
  bool covered_variants_ = false;
  std::set<PatternNodeId> selected_;
  std::set<PatternNodeId> covered_roots_;

  HedgeAutomaton automaton_;
  StateId out_state_ = -1;
  StateId covered_state_ = -1;
  StateId root_state_ = -1;
  std::vector<std::vector<StateId>> path_state_;
  std::vector<std::vector<StateId>> img_state_;
};

}  // namespace

HedgeAutomaton CompilePattern(const TreePattern& pattern, MarkMode mode) {
  RTP_OBS_COUNT("automata.compile.patterns");
  RTP_PHASE("automata.compile");
  RTP_FAILPOINT("automata.compile");
  HedgeAutomaton automaton = Compiler(pattern, mode).Compile();
  RTP_OBS_COUNT_N("automata.compile.states_built", automaton.NumStates());
  RTP_OBS_HISTOGRAM_RECORD("automata.compile.total_size",
                           automaton.TotalSize());
  return automaton;
}

}  // namespace rtp::automata
