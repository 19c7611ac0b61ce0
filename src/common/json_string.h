#ifndef RTP_COMMON_JSON_STRING_H_
#define RTP_COMMON_JSON_STRING_H_

// The one JSON string escaper, shared by every JSON writer in the tree:
// the rtpd wire format (serve/json.h) and the obs dumps, profiles, logs
// and trace exports.

#include <string>
#include <string_view>

namespace rtp {

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
