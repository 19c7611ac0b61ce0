#include "xml/xml_io.h"

#include <cctype>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rtp::xml {

namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.' || c == ':';
}

// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  Parser(Alphabet* alphabet, std::string_view input)
      : input_(input), doc_(alphabet) {}

  StatusOr<Document> Parse() {
    SkipMisc();
    if (Eof()) return ParseError("empty document");
    RTP_RETURN_IF_ERROR(ParseElement(doc_.root()));
    SkipMisc();
    if (!Eof()) return ParseError("trailing content after root element");
    return std::move(doc_);
  }

 private:
  bool Eof() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool StartsWith(std::string_view s) const {
    return input_.substr(pos_, s.size()) == s;
  }

  Status ParseError(std::string msg) const {
    return ::rtp::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (!Eof() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
  }

  // Skips whitespace, comments, PIs and the XML declaration.
  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (StartsWith("<!--")) {
        size_t end = input_.find("-->", pos_ + 4);
        pos_ = (end == std::string_view::npos) ? input_.size() : end + 3;
      } else if (StartsWith("<?")) {
        size_t end = input_.find("?>", pos_ + 2);
        pos_ = (end == std::string_view::npos) ? input_.size() : end + 2;
      } else if (StartsWith("<!DOCTYPE")) {
        size_t end = input_.find('>', pos_);
        pos_ = (end == std::string_view::npos) ? input_.size() : end + 1;
      } else {
        return;
      }
    }
  }

  StatusOr<std::string> ParseName() {
    size_t start = pos_;
    while (!Eof() && IsNameChar(Peek())) ++pos_;
    if (pos_ == start) return ParseError("expected a name");
    return std::string(input_.substr(start, pos_ - start));
  }

  // Decodes predefined entities in `raw`.
  StatusOr<std::string> DecodeText(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out.push_back(raw[i]);
        continue;
      }
      size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        return ::rtp::ParseError("unterminated entity reference");
      }
      std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "lt") out.push_back('<');
      else if (ent == "gt") out.push_back('>');
      else if (ent == "amp") out.push_back('&');
      else if (ent == "quot") out.push_back('"');
      else if (ent == "apos") out.push_back('\'');
      else return ::rtp::ParseError("unknown entity &" + std::string(ent) + ";");
      i = semi;
    }
    return out;
  }

  // Element nesting recurses; cap the depth so hostile documents fail with
  // a Status instead of overflowing the stack.
  Status ParseElement(NodeId parent) {
    if (++depth_ > kMaxNestingDepth) {
      return ResourceExhaustedError(
          "xml: element nesting depth exceeds " +
          std::to_string(kMaxNestingDepth) + " at offset " +
          std::to_string(pos_));
    }
    Status status = ParseElementBody(parent);
    --depth_;
    return status;
  }

  Status ParseElementBody(NodeId parent) {
    if (Eof() || Peek() != '<') return ParseError("expected '<'");
    ++pos_;
    RTP_ASSIGN_OR_RETURN(std::string name, ParseName());
    NodeId element = doc_.AddElement(parent, name);
    // Attributes.
    while (true) {
      SkipWhitespace();
      if (Eof()) return ParseError("unterminated start tag");
      if (Peek() == '>' || StartsWith("/>")) break;
      RTP_ASSIGN_OR_RETURN(std::string attr, ParseName());
      SkipWhitespace();
      if (Eof() || Peek() != '=') return ParseError("expected '=' after attribute name");
      ++pos_;
      SkipWhitespace();
      if (Eof() || (Peek() != '"' && Peek() != '\'')) {
        return ParseError("expected quoted attribute value");
      }
      char quote = Peek();
      ++pos_;
      size_t end = input_.find(quote, pos_);
      if (end == std::string_view::npos) return ParseError("unterminated attribute value");
      RTP_ASSIGN_OR_RETURN(std::string value,
                           DecodeText(input_.substr(pos_, end - pos_)));
      pos_ = end + 1;
      doc_.AddAttribute(element, "@" + attr, value);
    }
    if (StartsWith("/>")) {
      pos_ += 2;
      return Status::OK();
    }
    ++pos_;  // consume '>'
    // Content.
    while (true) {
      size_t text_start = pos_;
      while (!Eof() && Peek() != '<') ++pos_;
      if (pos_ > text_start) {
        std::string_view raw = input_.substr(text_start, pos_ - text_start);
        bool all_space = true;
        for (char c : raw) {
          if (!std::isspace(static_cast<unsigned char>(c))) {
            all_space = false;
            break;
          }
        }
        if (!all_space) {
          RTP_ASSIGN_OR_RETURN(std::string text, DecodeText(raw));
          // Adjacent runs merge even when a comment or PI split the raw
          // text, keeping "adjacent text runs merge" a real invariant
          // (serializing two sibling text nodes would concatenate them,
          // so round-tripping would otherwise change the tree).
          NodeId last = doc_.last_child(element);
          if (last != kInvalidNode && doc_.type(last) == NodeType::kText) {
            doc_.set_value(last, doc_.value(last) + text);
          } else {
            doc_.AddText(element, text);
          }
        }
      }
      if (Eof()) return ParseError("unterminated element <" + name + ">");
      if (StartsWith("</")) {
        pos_ += 2;
        RTP_ASSIGN_OR_RETURN(std::string close, ParseName());
        if (close != name) {
          return ParseError("mismatched close tag </" + close + "> for <" +
                            name + ">");
        }
        SkipWhitespace();
        if (Eof() || Peek() != '>') return ParseError("expected '>' in close tag");
        ++pos_;
        return Status::OK();
      }
      if (StartsWith("<!--")) {
        size_t end = input_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) return ParseError("unterminated comment");
        pos_ = end + 3;
        continue;
      }
      // Processing instructions are skipped in content, same as at
      // document level.
      if (StartsWith("<?")) {
        size_t end = input_.find("?>", pos_ + 2);
        if (end == std::string_view::npos) {
          return ParseError("unterminated processing instruction");
        }
        pos_ = end + 2;
        continue;
      }
      RTP_RETURN_IF_ERROR(ParseElement(element));
    }
  }

  static constexpr int kMaxNestingDepth = 256;

  std::string_view input_;
  size_t pos_ = 0;
  int depth_ = 0;
  Document doc_;
};

// Appends `raw` with XML's special characters as entities; each run of
// bytes that needs none is appended at once.
void EncodeInto(std::string_view raw, bool attribute, std::string* out) {
  size_t run = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    std::string_view entity;
    switch (raw[i]) {
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '&': entity = "&amp;"; break;
      case '"':
        if (!attribute) continue;
        entity = "&quot;";
        break;
      default: continue;
    }
    out->append(raw.data() + run, i - run);
    out->append(entity);
    run = i + 1;
  }
  out->append(raw.data() + run, raw.size() - run);
}

void WriteElement(const Document& doc, NodeId n, bool indent, int depth,
                  std::string* out) {
  auto pad = [&](int d) {
    if (indent) out->append(static_cast<size_t>(d) * 2, ' ');
  };
  pad(depth);
  out->push_back('<');
  out->append(doc.label_name(n));
  // The first pass writes the attributes and notes what content follows;
  // the second writes the content.
  bool has_content = false;
  bool has_text = false;
  for (NodeId c = doc.first_child(n); c != kInvalidNode;
       c = doc.next_sibling(c)) {
    switch (doc.type(c)) {
      case NodeType::kAttribute:
        out->push_back(' ');
        out->append(std::string_view(doc.label_name(c)).substr(1));  // '@'
        out->append("=\"");
        EncodeInto(doc.value(c), /*attribute=*/true, out);
        out->push_back('"');
        break;
      case NodeType::kText:
        has_text = true;
        has_content = true;
        break;
      case NodeType::kElement:
        has_content = true;
        break;
    }
  }
  if (!has_content) {
    out->append("/>");
    if (indent) out->push_back('\n');
    return;
  }
  out->push_back('>');
  // Any whitespace the pretty-printer inserts next to a text run merges
  // into that run's value on reparse, so content with text children —
  // text-only and mixed alike — is written inline, without indentation.
  if (!has_text && indent) out->push_back('\n');
  for (NodeId c = doc.first_child(n); c != kInvalidNode;
       c = doc.next_sibling(c)) {
    if (doc.type(c) == NodeType::kText) {
      EncodeInto(doc.value(c), /*attribute=*/false, out);
    } else if (doc.type(c) == NodeType::kElement) {
      WriteElement(doc, c, indent && !has_text, depth + 1, out);
    }
  }
  if (!has_text) pad(depth);
  out->append("</");
  out->append(doc.label_name(n));
  out->push_back('>');
  if (indent) out->push_back('\n');
}

}  // namespace

StatusOr<Document> ParseXml(Alphabet* alphabet, std::string_view input) {
  RTP_OBS_COUNT("xml.parse.documents");
  RTP_PHASE("xml.parse");
  Parser parser(alphabet, input);
  StatusOr<Document> doc = parser.Parse();
  // A fresh parse detaches nothing, so every arena node is live.
  if (doc.ok()) RTP_OBS_COUNT_N("xml.parse.nodes", doc->ArenaSize());
  return doc;
}

void AppendXmlSubtree(const Document& doc, NodeId n, bool indent,
                      std::string* out) {
  if (doc.type(n) == NodeType::kElement && doc.label(n) != Alphabet::kRootLabel) {
    WriteElement(doc, n, indent, 0, out);
  } else if (doc.label(n) == Alphabet::kRootLabel) {
    for (NodeId c = doc.first_child(n); c != kInvalidNode;
         c = doc.next_sibling(c)) {
      if (doc.type(c) == NodeType::kText) {
        EncodeInto(doc.value(c), /*attribute=*/false, out);
      } else {
        WriteElement(doc, c, indent, 0, out);
      }
    }
  } else {
    // Leaf: render its value.
    out->append(doc.value(n));
  }
}

std::string WriteXmlSubtree(const Document& doc, NodeId n, bool indent) {
  std::string out;
  AppendXmlSubtree(doc, n, indent, &out);
  return out;
}

std::string WriteXml(const Document& doc, bool indent) {
  return WriteXmlSubtree(doc, doc.root(), indent);
}

}  // namespace rtp::xml
