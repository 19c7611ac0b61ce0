#include "fuzz/mutators.h"

#include <cstring>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "fuzz/generators.h"

namespace rtp::fuzz {

namespace {

std::string FreshInput(Harness harness, Rng* rng) {
  TextGenParams params;
  switch (harness) {
    case Harness::kRegex:
      return GenerateRegexText(rng, params);
    case Harness::kPattern:
      return GeneratePatternDslText(rng, params,
                                    /*with_context=*/rng->Percent(50));
    case Harness::kSchema:
      return GenerateSchemaDslText(rng, params);
    case Harness::kXml:
      return GenerateXmlText(rng, params);
    case Harness::kDifferential:
      // The differential harness only hashes its input into a battery
      // seed, so any short byte string is as good as any other.
      return GenerateRandomBytes(rng, 16);
    case Harness::kServe:
      return GenerateServeRequestLines(rng, params);
  }
  return "";
}

}  // namespace

size_t GrammarAwareMutate(Harness harness, uint8_t* data, size_t size,
                          size_t max_size, unsigned int seed) {
  Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + size);
  std::string out;
  if (size == 0 || rng.Percent(35)) {
    out = FreshInput(harness, &rng);
  } else {
    out = MutateBytes(
        std::string_view(reinterpret_cast<const char*>(data), size), &rng);
  }
  if (out.empty()) out = "a";
  size_t n = out.size() < max_size ? out.size() : max_size;
  std::memcpy(data, out.data(), n);
  return n;
}

}  // namespace rtp::fuzz
