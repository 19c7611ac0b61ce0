#ifndef RTP_SERVE_FRAMING_H_
#define RTP_SERVE_FRAMING_H_

// Line framing for the rtpd wire protocol: the server's connection loop
// and serve::Client both read through it, and the torn-input tests and
// the `serve` fuzz harness drive the same code. The protocol is one JSON
// object per '\n'-terminated line; bytes arrive in arbitrary chunks
// (including mid-line, one byte at a time, or several lines at once).
//
// Oversized handling matches the server contract (docs/SERVING.md): a
// partial line that grows past max_line_bytes yields exactly one
// oversized marker (the caller answers RESOURCE_EXHAUSTED), and the rest
// of that line is discarded without buffering, so a hostile peer cannot
// balloon memory with an endless unterminated line.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace rtp::serve {

// Bytes per recv() on both ends of a connection. An eval answer can run
// to megabytes, and each read costs a syscall and a Feed().
inline constexpr size_t kReadChunkBytes = 64 * 1024;

class LineFramer {
 public:
  struct Line {
    std::string text;       // without the newline; trailing CR stripped
    bool oversized = false; // marker: the line exceeded max_line_bytes
  };

  // SIZE_MAX means no cap (the client side: responses have no limit).
  explicit LineFramer(size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  // Appends received bytes. While discarding an oversized line, only the
  // unterminated tail is retained (bounded memory).
  void Feed(std::string_view bytes);

  // Next complete line, an oversized marker, or nullopt when more bytes
  // are needed. Blank lines (and bare CRs) are swallowed — they are not
  // requests.
  std::optional<Line> Next();

  // True when bytes are buffered (an incomplete request is in flight —
  // relevant to drain/idle decisions in the server).
  bool HasBufferedData() const { return !buffer_.empty(); }
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
  size_t scanned_ = 0;  // buffer_[0, scanned_) holds no newline
  size_t max_line_bytes_;
  bool skipping_ = false;  // discarding the tail of an oversized line
};

}  // namespace rtp::serve

#endif  // RTP_SERVE_FRAMING_H_
