#ifndef RTP_SERVE_JSON_H_
#define RTP_SERVE_JSON_H_

// Minimal JSON for the rtpd wire protocol (docs/SERVING.md).
//
// The library deliberately has no external dependencies, so the serving
// layer carries its own JSON value: enough of RFC 8259 for line-delimited
// request/response objects, hardened for untrusted input (nesting cap,
// strict number/escape validation, no trailing garbage) because every byte
// a client sends goes through Parse. Objects preserve insertion order, so
// serialization is deterministic — the golden wire-protocol transcripts
// (tests/serve_protocol_test.cc) depend on that.
//
// Numbers are stored as double; the protocol only carries ids, counts and
// budgets, all far below 2^53, so the lossless-integer range of a double
// covers them. Serialization renders integral values without a decimal
// point, so integer fields round-trip byte-identically.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace rtp::serve {

class JsonValue {
 public:
  enum class Kind : uint8_t {
    kNull = 0,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
    kRaw,  // already-rendered JSON text; see Raw()
  };

  // Parses exactly one JSON value spanning the whole input (trailing
  // whitespace allowed, anything else is a PARSE_ERROR). `max_depth` caps
  // array/object nesting; exceeding it returns RESOURCE_EXHAUSTED, the
  // same contract as the library's recursive parsers.
  static StatusOr<JsonValue> Parse(std::string_view text,
                                   size_t max_depth = 64);

  // Compact single-line serialization (no spaces, keys in insertion
  // order). Parse(Serialize(v)) == v for every v that Parse returns.
  std::string Serialize() const;

  // Constructors for building values.
  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b) {
    JsonValue v;
    v.kind_ = Kind::kBool;
    v.bool_ = b;
    return v;
  }
  static JsonValue Number(double d) {
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.number_ = d;
    return v;
  }
  static JsonValue Int(int64_t i) {
    return Number(static_cast<double>(i));
  }
  static JsonValue String(std::string s) {
    JsonValue v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(s);
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }
  // A value that Serialize writes as `json`, verbatim; the caller
  // guarantees `json` is one valid JSON value. Parse never produces one.
  // It lets a writer render a large array straight into its text and
  // still take the envelope around it from the usual builders.
  static JsonValue Raw(std::string json) {
    JsonValue v;
    v.kind_ = Kind::kRaw;
    v.string_ = std::move(json);
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // A finite, integral number of magnitude at most 2^53: the integers a
  // double holds exactly, and the only numbers int_value() may convert.
  bool is_int() const;

  // Typed accessors; the value must hold the matching kind (is_int() for
  // int_value(): any other double is outside int64_t or not an integer).
  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  int64_t int_value() const { return static_cast<int64_t>(number_); }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object_items() const {
    return object_;
  }

  // Mutable access, so a decoder can move strings out of a parsed value
  // instead of copying them.
  std::string& mutable_string_value() { return string_; }
  std::vector<JsonValue>& mutable_array_items() { return array_; }

  // Array building.
  JsonValue& Push(JsonValue item) {
    array_.push_back(std::move(item));
    return *this;
  }

  // Object building; duplicate keys are appended as-is (the protocol
  // never emits duplicates, and Find returns the first).
  JsonValue& Add(std::string key, JsonValue value) {
    object_.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  // First member named `key`, or nullptr (also for non-objects).
  const JsonValue* Find(std::string_view key) const;
  JsonValue* Find(std::string_view key) {
    return const_cast<JsonValue*>(std::as_const(*this).Find(key));
  }

  // Convenience typed lookups with defaults (missing key / wrong kind
  // yield the default, as does a number that is not is_int() for FindInt
  // — the decoder validates kinds where it matters).
  int64_t FindInt(std::string_view key, int64_t def = 0) const;
  bool FindBool(std::string_view key, bool def = false) const;
  std::string FindString(std::string_view key,
                         const std::string& def = "") const;

  // Structural equality; object member *order is ignored* so golden
  // transcripts stay valid across serializer reorderings. A string value
  // "*" in `pattern` (this) matches anything in `other` — the transcript
  // wildcard for volatile fields like trip messages.
  bool MatchesWithWildcards(const JsonValue& other) const;

  // Exact structural equality: kinds, values, element and member order.
  friend bool operator==(const JsonValue&, const JsonValue&) = default;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

}  // namespace rtp::serve

#endif  // RTP_SERVE_JSON_H_
