#include "serve/framing.h"

namespace rtp::serve {

void LineFramer::Feed(std::string_view bytes) {
  if (skipping_) {
    // Mid-discard: drop everything up to (and including) the terminating
    // newline without buffering it.
    size_t nl = bytes.find('\n');
    if (nl == std::string_view::npos) return;
    skipping_ = false;
    bytes.remove_prefix(nl + 1);
  }
  buffer_.append(bytes.data(), bytes.size());
}

std::optional<LineFramer::Line> LineFramer::Next() {
  while (true) {
    // Resume where the last search stopped, so a long line arriving in
    // many chunks is scanned once, not once per chunk.
    size_t nl = buffer_.find('\n', scanned_);
    if (nl == std::string::npos) {
      scanned_ = buffer_.size();
      if (!skipping_ && buffer_.size() > max_line_bytes_) {
        // The unterminated line is already too long: report it once and
        // discard everything until its newline eventually arrives.
        skipping_ = true;
        buffer_.clear();
        scanned_ = 0;
        Line line;
        line.oversized = true;
        return line;
      }
      return std::nullopt;
    }
    std::string text;
    if (nl + 1 == buffer_.size()) {
      // The line ends the buffer: hand the buffer over instead of
      // copying the line out of it.
      text = std::move(buffer_);
      text.pop_back();
      buffer_.clear();
    } else {
      text = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
    }
    scanned_ = 0;
    if (text.size() > max_line_bytes_) {
      Line line;
      line.oversized = true;
      return line;
    }
    if (!text.empty() && text.back() == '\r') text.pop_back();
    if (text.empty()) continue;
    Line line;
    line.text = std::move(text);
    return line;
  }
}

}  // namespace rtp::serve
