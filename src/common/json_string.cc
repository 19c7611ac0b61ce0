#include "common/json_string.h"

#include <cstdint>
#include <cstdio>
#include <cstring>

namespace rtp {

size_t FindJsonEscape(std::string_view s, size_t from) {
  // Eight bytes per step: the word has a flagged byte iff one of the
  // classic has-less-than and has-zero tests below is nonzero. Bytes of
  // 0x80 and above never flag. The byte loop then finds which one it is.
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  constexpr uint64_t kHigh = 0x8080808080808080ULL;
  size_t i = from;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    const uint64_t quote = w ^ (kOnes * '"');
    const uint64_t backslash = w ^ (kOnes * '\\');
    const uint64_t flags = ((w - kOnes * 0x20) & ~w) |
                           ((quote - kOnes) & ~quote) |
                           ((backslash - kOnes) & ~backslash);
    if ((flags & kHigh) != 0) break;
  }
  for (; i < s.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    if (c < 0x20 || c == '"' || c == '\\') return i;
  }
  return s.size();
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  // Each run of bytes that needs no escape is appended at once.
  size_t run = 0;
  for (size_t i = FindJsonEscape(s, 0); i < s.size();
       i = FindJsonEscape(s, i + 1)) {
    out->append(s.data() + run, i - run);
    run = i + 1;
    unsigned char c = static_cast<unsigned char>(s[i]);
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out->append(buf);
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

}  // namespace rtp
