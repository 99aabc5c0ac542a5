#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace fairhms {

namespace {

/// Appends `s` JSON-escaped (no surrounding quotes); runs of plain bytes go
/// in one append.
void AppendEscaped(std::string_view s, std::string* out) {
  size_t plain = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escape = nullptr;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\n': escape = "\\n"; break;
      case '\r': escape = "\\r"; break;
      case '\t': escape = "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out->append(s.substr(plain, i - plain));
    if (escape != nullptr) {
      out->append(escape);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    }
    plain = i + 1;
  }
  out->append(s.substr(plain));
}

template <typename T>
void AppendInteger(T v, std::string* out) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out->append(buf, static_cast<size_t>(end - buf));
}

/// Appends one printf conversion of a double.
template <typename... Args>
void AppendFormatted(std::string* out, const char* fmt, Args... args) {
  char buf[32];
  const int len = std::snprintf(buf, sizeof(buf), fmt, args...);
  if (len >= 0 && static_cast<size_t>(len) < sizeof(buf)) {
    out->append(buf, static_cast<size_t>(len));
  } else {  // %f of a large magnitude.
    out->append(StrFormat(fmt, args...));
  }
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(s, &out);
  return out;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) found = &value;
  }
  return found;
}

StatusOr<int64_t> JsonValue::AsInt64() const {
  if (!is_number()) return Status::InvalidArgument("expected a number");
  const double v = number_;
  // Range check before the cast: double -> int64 outside the representable
  // range is undefined behavior. 2^63 is exactly representable as a double.
  if (!(v >= -9223372036854775808.0 && v < 9223372036854775808.0)) {
    return Status::InvalidArgument(
        StrFormat("number %g is out of the 64-bit integer range", v));
  }
  if (v != static_cast<double>(static_cast<int64_t>(v))) {
    return Status::InvalidArgument(
        StrFormat("expected a whole number, got %g", v));
  }
  return static_cast<int64_t>(v);
}

/// Recursive-descent JSON parser over a string_view.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    JsonValue value;
    FAIRHMS_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after the JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at offset %zu: %s", pos_, what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->kind_ = JsonValue::Kind::kString;
      return ParseString(&out->string_);
    }
    if (ConsumeLiteral("true")) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = true;
      return Status::OK();
    }
    if (ConsumeLiteral("false")) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = false;
      return Status::OK();
    }
    if (ConsumeLiteral("null")) {
      out->kind_ = JsonValue::Kind::kNull;
      return Status::OK();
    }
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
    return Error(StrFormat("unexpected character '%c'", c));
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected a string object key");
      }
      std::string key;
      FAIRHMS_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      JsonValue value;
      FAIRHMS_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->members_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      JsonValue value;
      FAIRHMS_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->items_.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // Opening quote.
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = text_[pos_ + static_cast<size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Error("bad \\u escape digit");
            }
            pos_ += 4;
            // UTF-8 encode the code point (surrogate pairs are passed
            // through individually — labels are treated as opaque bytes).
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Error(StrFormat("bad escape '\\%c'", esc));
        }
        ++pos_;
        continue;
      }
      out->push_back(c);
      ++pos_;
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double v = 0.0;
    if (!ParseDouble(text_.substr(start, pos_ - start), &v)) {
      pos_ = start;
      return Error("malformed number");
    }
    out->kind_ = JsonValue::Kind::kNumber;
    out->number_ = v;
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_value_.empty()) {
    if (has_value_.back()) out_ += ", ";
    has_value_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  has_value_.pop_back();
  if (!has_value_.empty()) has_value_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  has_value_.pop_back();
  if (!has_value_.empty()) has_value_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view name) {
  if (!has_value_.empty() && has_value_.back()) out_ += ", ";
  if (!has_value_.empty()) has_value_.back() = true;
  out_ += '"';
  AppendEscaped(name, &out_);
  out_ += "\": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& v) {
  BeforeValue();
  out_ += '"';
  AppendEscaped(v, &out_);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Bool(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t v) {
  BeforeValue();
  AppendInteger(v, &out_);
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t v) {
  BeforeValue();
  AppendInteger(v, &out_);
  return *this;
}

JsonWriter& JsonWriter::Double(double v) {
  BeforeValue();
  if (std::isfinite(v)) {
    AppendFormatted(&out_, "%.17g", v);
  } else {
    out_ += "null";
  }
  return *this;
}

JsonWriter& JsonWriter::Fixed(double v, int precision) {
  BeforeValue();
  if (std::isfinite(v)) {
    AppendFormatted(&out_, "%.*f", precision, v);
  } else {
    out_ += "null";
  }
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view fragment) {
  BeforeValue();
  out_ += fragment;
  return *this;
}

}  // namespace fairhms
