// Minimal JSON layer of the FairHMS library: a value tree + parser and one
// writer, JsonWriter.
//
// This is the wire format of the serving surface — api/protocol.h builds
// the versioned request/response envelope on top of it, and both the
// fairhms_cli batch driver and the fairhms_serve daemon speak it — so it
// lives in common/, not in the tools. Scope is deliberately small: the
// JSON core only (objects, arrays, strings, numbers, booleans, null; no
// comments, no NaN/Infinity), which is exactly what newline-delimited
// request streams need.
//
// JsonWriter is the serving surface's one JSON writer: every protocol line
// (RenderResponse, RenderErrorLine, the echoed request id) and the request
// line fairhms_cli builds from its flags go through it. It emits one canonical
// byte sequence per document — members in call order, doubles via %.17g
// (round-trip exact), non-finite doubles as null, `", "` / `": "`
// separators — so responses can be compared byte-for-byte across runs,
// threads and transports.

#ifndef FAIRHMS_COMMON_JSON_H_
#define FAIRHMS_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/statusor.h"

namespace fairhms {

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes added).
std::string JsonEscape(const std::string& s);

/// JSON value tree: objects, arrays, strings, numbers, booleans and null.
/// Object member order is preserved; duplicate keys keep the last
/// occurrence (Find returns it).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Object member by key (last occurrence), or nullptr when absent or not
  /// an object.
  const JsonValue* Find(const std::string& key) const;

  /// The value as a whole-number int64 — error when not a number or not
  /// integral (e.g. 2.5 where a count is expected).
  StatusOr<int64_t> AsInt64() const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one JSON document (the whole input; trailing garbage is an
/// error). Supports the JSON core: no comments, no NaN/Infinity literals.
StatusOr<JsonValue> ParseJson(std::string_view text);

/// Streaming writer for JSON documents with the envelope's spacing
/// (`{"a": 1, "b": [2, 3]}`) and the formatting control it needs: Double
/// emits %.17g (bit round-trip), Fixed emits %.*f (human-scale timings),
/// Raw splices a pre-rendered fragment (the id token). The writer
/// trusts its caller to call Key exactly once before every object value;
/// it asserts nothing and simply concatenates, so misuse yields malformed
/// JSON rather than UB.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Emits the member separator (when needed) plus `"name": `.
  JsonWriter& Key(std::string_view name);
  JsonWriter& String(const std::string& v);
  JsonWriter& Bool(bool v);
  JsonWriter& Null();
  JsonWriter& Int(int64_t v);
  JsonWriter& UInt(uint64_t v);
  /// %.17g, or null when not finite (JSON has no NaN/Infinity).
  JsonWriter& Double(double v);
  /// %.*f with `precision` digits, or null when not finite.
  JsonWriter& Fixed(double v, int precision);
  /// Splices `fragment` verbatim as one value (caller guarantees validity).
  JsonWriter& Raw(std::string_view fragment);

  const std::string& str() const { return out_; }
  /// Moves the built document out; the writer is spent afterwards.
  std::string Take() { return std::move(out_); }

 private:
  void BeforeValue();

  std::string out_;
  /// One flag per open container: true once it holds a value (so the next
  /// one is prefixed with ", ").
  std::vector<bool> has_value_;
  bool after_key_ = false;
};

}  // namespace fairhms

#endif  // FAIRHMS_COMMON_JSON_H_
