#include "regex/regex.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rtp::regex {

StatusOr<Regex> Regex::Parse(Alphabet* alphabet, std::string_view text) {
  RTP_OBS_COUNT("regex.compilations");
  RTP_PHASE("regex.compile");
  RTP_ASSIGN_OR_RETURN(RegexAst ast, ParseRegex(alphabet, text));
  Dfa dfa = Dfa::FromAst(*ast).Minimize();
  return Regex(std::move(ast), std::move(dfa));
}

Regex Regex::FromAst(RegexAst ast) {
  RTP_OBS_COUNT("regex.compilations");
  RTP_PHASE("regex.compile");
  Dfa dfa = Dfa::FromAst(*ast).Minimize();
  return Regex(std::move(ast), std::move(dfa));
}

Regex Regex::FromAstUnminimized(RegexAst ast) {
  Dfa dfa = Dfa::FromAst(*ast);
  return Regex(std::move(ast), std::move(dfa));
}

void Regex::EnsureMinimalDfa() {
  Dfa minimized = dfa_.Minimize();
  if (minimized.NumStates() < dfa_.NumStates()) {
    RTP_OBS_COUNT("regex.edge_minimizations");
    dfa_ = std::move(minimized);
    dense_ = std::make_shared<const DenseDfa>(DenseDfa::Build(dfa_));
  }
}

}  // namespace rtp::regex
