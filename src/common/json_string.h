#ifndef RTP_COMMON_JSON_STRING_H_
#define RTP_COMMON_JSON_STRING_H_

// The one JSON string escaper, shared by every JSON writer in the tree:
// the rtpd wire format (serve/json.h) and the obs dumps, profiles, logs
// and trace exports.

#include <cstddef>
#include <string>
#include <string_view>

namespace rtp {

// The index of the first byte at or after `from` that a JSON string
// literal must escape ('"', '\\' or a control byte below 0x20), or
// s.size(). AppendJsonString and serve::JsonValue::Parse both find their
// runs of plain bytes with it.
size_t FindJsonEscape(std::string_view s, size_t from);

// Appends `s` to `out` as a quoted JSON string literal: '"', '\\' and
// every control character below 0x20 are escaped; all other bytes,
// UTF-8 sequences included, are copied as they are.
void AppendJsonString(std::string* out, std::string_view s);

// The same literal as a new string, for stream-based writers.
inline std::string JsonString(std::string_view s) {
  std::string out;
  AppendJsonString(&out, s);
  return out;
}

}  // namespace rtp

#endif  // RTP_COMMON_JSON_STRING_H_
