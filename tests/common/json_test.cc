// Tests for the common JSON layer: parser semantics (the wire format of
// the serving surface), the deterministic writer, and their round-trip.

#include "common/json.h"

#include <limits>
#include <string>

#include "gtest/gtest.h"

namespace fairhms {
namespace {

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->bool_value());
  EXPECT_FALSE(ParseJson("false")->bool_value());
  EXPECT_DOUBLE_EQ(ParseJson("-2.5e3")->number_value(), -2500.0);
  EXPECT_EQ(ParseJson("\"hi\"")->string_value(), "hi");
}

TEST(JsonParseTest, ParsesNestedStructures) {
  auto v = ParseJson(R"({"a": [1, {"b": "x"}, null], "c": true})");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[1].Find("b")->string_value(), "x");
  EXPECT_TRUE(a->items()[2].is_null());
  EXPECT_TRUE(v->Find("c")->bool_value());
}

TEST(JsonParseTest, MemberOrderPreservedAndDuplicatesKeepLast) {
  auto v = ParseJson(R"({"z": 1, "a": 2, "z": 3})");
  ASSERT_TRUE(v.ok());
  ASSERT_EQ(v->members().size(), 3u);
  EXPECT_EQ(v->members()[0].first, "z");
  EXPECT_EQ(v->members()[1].first, "a");
  EXPECT_DOUBLE_EQ(v->Find("z")->number_value(), 3.0);
}

TEST(JsonParseTest, StringEscapes) {
  auto v = ParseJson(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(), "a\"b\\c\ndA");
}

TEST(JsonParseTest, UnicodeEscapeEncodesUtf8) {
  // é (2-byte UTF-8) and € (3-byte UTF-8) via the escape path.
  auto v = ParseJson("\"\\u00e9\\u20acA\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(), "\xc3\xa9\xe2\x82\xac" "A");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());  // Trailing garbage.
  EXPECT_FALSE(ParseJson("{} {}").ok());
}

TEST(JsonParseTest, RejectsDeepNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonValueTest, AsInt64RejectsNonIntegers) {
  EXPECT_EQ(*ParseJson("42")->AsInt64(), 42);
  EXPECT_EQ(*ParseJson("-7")->AsInt64(), -7);
  EXPECT_FALSE(ParseJson("2.5")->AsInt64().ok());
  EXPECT_FALSE(ParseJson("\"42\"")->AsInt64().ok());
  EXPECT_FALSE(ParseJson("1e300")->AsInt64().ok());  // Out of int64 range.
}

TEST(JsonValueTest, FindOnNonObjectReturnsNull) {
  EXPECT_EQ(ParseJson("[1]")->Find("a"), nullptr);
  EXPECT_EQ(ParseJson("3")->Find("a"), nullptr);
}

TEST(JsonEscapeTest, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonWriteTest, RoundTripsThroughParse) {
  const std::string doc =
      R"({"name": "d\"x", "rows": [1, 2, 3], "ok": true, "note": null})";
  JsonWriter w;
  w.BeginObject().Key("name").String("d\"x");
  w.Key("rows").BeginArray().Int(1).Int(2).Int(3).EndArray();
  w.Key("ok").Bool(true).Key("note").Null().EndObject();
  EXPECT_EQ(w.str(), doc);
  auto v = ParseJson(w.str());
  ASSERT_TRUE(v.ok());
  ASSERT_EQ(v->members().size(), 4u);
  EXPECT_EQ(v->members()[0].first, "name");
  EXPECT_EQ(v->Find("name")->string_value(), "d\"x");
  const JsonValue* rows = v->Find("rows");
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->items().size(), 3u);
  EXPECT_EQ(*rows->items()[2].AsInt64(), 3);
  EXPECT_TRUE(v->Find("ok")->bool_value());
  EXPECT_TRUE(v->Find("note")->is_null());
}

TEST(JsonWriteTest, LegacyEnvelopeSpacing) {
  // The `", "` / `": "` separators are the byte contract of the batch
  // protocol — a change here would break bit-identity of responses.
  JsonWriter w;
  w.BeginObject().Key("id").Int(3).Key("ok").Bool(true);
  w.Key("rows").BeginArray().Int(1).Int(2).EndArray().EndObject();
  EXPECT_EQ(w.str(), "{\"id\": 3, \"ok\": true, \"rows\": [1, 2]}");
}

TEST(JsonWriteTest, DoubleUsesRoundTripPrecision) {
  JsonWriter w;
  w.BeginArray().Double(0.1).Double(1.5).EndArray();
  EXPECT_EQ(w.str(), "[0.10000000000000001, 1.5]");
}

TEST(JsonWriteTest, FixedUsesRequestedPrecision) {
  JsonWriter w;
  w.Fixed(1.23456, 3);
  EXPECT_EQ(w.str(), "1.235");
  // Wider than the writer's stack buffer: every digit still arrives.
  JsonWriter wide;
  wide.Fixed(1e30, 3);
  EXPECT_EQ(wide.str(), "1000000000000000019884624838656.000");
}

TEST(JsonWriteTest, NonFiniteRendersNull) {
  JsonWriter w;
  w.BeginArray()
      .Double(std::numeric_limits<double>::infinity())
      .Fixed(std::numeric_limits<double>::quiet_NaN(), 3)
      .EndArray();
  EXPECT_EQ(w.str(), "[null, null]");
}

TEST(JsonWriteTest, RawSplicesVerbatim) {
  JsonWriter w;
  w.BeginObject().Key("body").Raw("{\"x\": 1}").EndObject();
  EXPECT_EQ(w.str(), "{\"body\": {\"x\": 1}}");
}

}  // namespace
}  // namespace fairhms
