#include "serve/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/json_string.h"

namespace rtp::serve {
namespace {

class Parser {
 public:
  Parser(std::string_view text, size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  StatusOr<JsonValue> Run() {
    SkipWs();
    JsonValue v;
    Status s = ParseValue(&v, 0);
    if (!s.ok()) return s;
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return v;
  }

 private:
  Status Error(const std::string& message) const {
    return Status(StatusCode::kParseError,
                  "json: " + message + " at offset " + std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Status ParseValue(JsonValue* out, size_t depth) {
    if (depth > max_depth_) {
      return Status(StatusCode::kResourceExhausted,
                    "json: nesting depth exceeds " +
                        std::to_string(max_depth_));
    }
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        Status st = ParseString(&s);
        if (!st.ok()) return st;
        *out = JsonValue::String(std::move(s));
        return Status::OK();
      }
      case 't':
        if (!ConsumeLiteral("true")) return Error("invalid literal");
        *out = JsonValue::Bool(true);
        return Status::OK();
      case 'f':
        if (!ConsumeLiteral("false")) return Error("invalid literal");
        *out = JsonValue::Bool(false);
        return Status::OK();
      case 'n':
        if (!ConsumeLiteral("null")) return Error("invalid literal");
        *out = JsonValue::Null();
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, size_t depth) {
    ++pos_;  // '{'
    *out = JsonValue::Object();
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      std::string key;
      Status st = ParseString(&key);
      if (!st.ok()) return st;
      SkipWs();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      st = ParseValue(&value, depth + 1);
      if (!st.ok()) return st;
      out->Add(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, size_t depth) {
    ++pos_;  // '['
    *out = JsonValue::Array();
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue item;
      Status st = ParseValue(&item, depth + 1);
      if (!st.ok()) return st;
      out->Push(std::move(item));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            unsigned code = 0;
            Status st = ParseHex4(&code);
            if (!st.ok()) return st;
            if (code >= 0xD800 && code <= 0xDBFF) {
              // High surrogate: require the paired low surrogate.
              if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return Error("unpaired surrogate");
              }
              pos_ += 2;
              unsigned low = 0;
              st = ParseHex4(&low);
              if (!st.ok()) return st;
              if (low < 0xDC00 || low > 0xDFFF) {
                return Error("invalid low surrogate");
              }
              unsigned cp =
                  0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
              AppendUtf8(out, cp);
            } else if (code >= 0xDC00 && code <= 0xDFFF) {
              return Error("unpaired surrogate");
            } else {
              AppendUtf8(out, code);
            }
            break;
          }
          default:
            return Error("invalid escape character");
        }
        continue;
      }
      if (c < 0x20) return Error("unescaped control character in string");
      out->push_back(static_cast<char>(c));
      ++pos_;
    }
  }

  Status ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else return Error("invalid hex digit in \\u escape");
    }
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Consume('-')) { /* sign */ }
    if (pos_ >= text_.size() || !std::isdigit(
            static_cast<unsigned char>(text_[pos_]))) {
      return Error("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // leading zero must stand alone
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(
              static_cast<unsigned char>(text_[pos_]))) {
        return Error("digit expected after decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !std::isdigit(
              static_cast<unsigned char>(text_[pos_]))) {
        return Error("digit expected in exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    // The slice is a valid JSON number grammar-wise; strtod cannot fail on
    // it (it may round, which is fine for protocol-scale integers).
    std::string slice(text_.substr(start, pos_ - start));
    *out = JsonValue::Number(std::strtod(slice.c_str(), nullptr));
    return Status::OK();
  }

  std::string_view text_;
  size_t max_depth_;
  size_t pos_ = 0;
};

void SerializeTo(const JsonValue& v, std::string* out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      out->append("null");
      break;
    case JsonValue::Kind::kBool:
      out->append(v.bool_value() ? "true" : "false");
      break;
    case JsonValue::Kind::kNumber: {
      double d = v.number_value();
      if (v.is_int()) {
        // Integral within the double-exact range: render without a point.
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(d));
        out->append(buf);
      } else if (std::isfinite(d)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        out->append(buf);
      } else {
        out->append("null");  // JSON has no Inf/NaN; protocol never emits them
      }
      break;
    }
    case JsonValue::Kind::kString:
      AppendJsonString(out, v.string_value());
      break;
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : v.array_items()) {
        if (!first) out->push_back(',');
        first = false;
        SerializeTo(item, out);
      }
      out->push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.object_items()) {
        if (!first) out->push_back(',');
        first = false;
        AppendJsonString(out, key);
        out->push_back(':');
        SerializeTo(value, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

StatusOr<JsonValue> JsonValue::Parse(std::string_view text, size_t max_depth) {
  return Parser(text, max_depth).Run();
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(*this, &out);
  return out;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonValue::is_int() const {
  constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53
  return kind_ == Kind::kNumber && std::isfinite(number_) &&
         number_ == std::floor(number_) && std::abs(number_) <= kMaxExactInt;
}

int64_t JsonValue::FindInt(std::string_view key, int64_t def) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_int()) ? v->int_value() : def;
}

bool JsonValue::FindBool(std::string_view key, bool def) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_value() : def;
}

std::string JsonValue::FindString(std::string_view key,
                                  const std::string& def) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value() : def;
}

bool JsonValue::MatchesWithWildcards(const JsonValue& other) const {
  if (kind_ == Kind::kString && string_ == "*") return true;
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kNumber:
      return number_ == other.number_;
    case Kind::kString:
      return string_ == other.string_;
    case Kind::kArray: {
      if (array_.size() != other.array_.size()) return false;
      for (size_t i = 0; i < array_.size(); ++i) {
        if (!array_[i].MatchesWithWildcards(other.array_[i])) return false;
      }
      return true;
    }
    case Kind::kObject: {
      if (object_.size() != other.object_.size()) return false;
      // Order-insensitive: every pattern key must appear in `other` with a
      // matching value, and the sizes agree, so the member sets coincide.
      for (const auto& [key, value] : object_) {
        const JsonValue* ov = other.Find(key);
        if (ov == nullptr || !value.MatchesWithWildcards(*ov)) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace rtp::serve
