#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/json.hpp"

namespace {

using nd::json::Array;
using nd::json::Object;
using nd::json::parse;
using nd::json::Value;

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseStructures) {
  const Value v = parse(R"({"a": [1, 2, 3], "b": {"c": "x"}, "d": null})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.0);
  EXPECT_EQ(v.at("b").at("c").as_string(), "x");
  EXPECT_TRUE(v.at("d").is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(static_cast<void>(v.at("missing")), std::invalid_argument);
}

TEST(Json, StringEscapes) {
  const Value v = parse(R"("line\nquote\"back\\slash\ttabA")");
  EXPECT_EQ(v.as_string(), "line\nquote\"back\\slash\ttabA");
}

TEST(Json, UnicodeEscapeUtf8) {
  EXPECT_EQ(parse(R"("é")").as_string(), "\xC3\xA9");    // é
  EXPECT_EQ(parse(R"("€")").as_string(), "\xE2\x82\xAC");  // €
}

TEST(Json, WhitespaceTolerant) {
  const Value v = parse("  {\n\t\"a\" :\r [ 1 ,2 ]\n}  ");
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
}

TEST(Json, RejectsMalformed) {
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("{"), std::invalid_argument);
  EXPECT_THROW(parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(parse("{\"a\":}"), std::invalid_argument);
  EXPECT_THROW(parse("tru"), std::invalid_argument);
  EXPECT_THROW(parse("1 2"), std::invalid_argument);  // trailing token
  EXPECT_THROW(parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(parse("nan"), std::invalid_argument);
  EXPECT_THROW(parse("1e999"), std::invalid_argument);  // overflows a double
}

TEST(Json, TypeMismatchThrows) {
  const Value v = parse("[1]");
  EXPECT_THROW(static_cast<void>(v.as_object()), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(v.as_number()), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(v.as_string()), std::invalid_argument);
}

TEST(Json, DumpCompactAndPretty) {
  const Value v = Object{{"a", Value(Array{Value(1), Value(2)})}, {"b", Value("x")}};
  EXPECT_EQ(v.dump(), R"({"a":[1,2],"b":"x"})");
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find("\n  \"a\""), std::string::npos);
}

TEST(Json, RoundTripPreservesStructure) {
  const std::string doc =
      R"({"name":"mesh","dims":[4,4],"scale":0.25,"flags":{"multi":true,"single":false},"note":null})";
  const Value v = parse(doc);
  const Value again = parse(v.dump());
  EXPECT_EQ(v, again);
  EXPECT_EQ(parse(v.dump(4)), v);  // pretty printing round-trips too
}

TEST(Json, NumberPrecisionRoundTrip) {
  const double vals[] = {1.0 / 3.0, 2.5e-10, 1e15, -0.0, 123456789.123456789,
                         std::numeric_limits<double>::denorm_min(), -1e-310};
  for (const double d : vals) {
    const Value v = Value(d);
    EXPECT_DOUBLE_EQ(parse(v.dump()).as_number(), d) << d;
  }
}

TEST(Json, ObjectPreservesInsertionOrder) {
  const Value v = parse(R"({"z":1,"a":2,"m":3})");
  const Object& o = v.as_object();
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
}

TEST(Json, DeepNesting) {
  std::string doc;
  for (int i = 0; i < 50; ++i) doc += "[";
  doc += "7";
  for (int i = 0; i < 50; ++i) doc += "]";
  Value v = parse(doc);
  for (int i = 0; i < 50; ++i) {
    Value next = v.as_array()[0];  // copy out before reassigning the owner
    v = std::move(next);
  }
  EXPECT_DOUBLE_EQ(v.as_number(), 7.0);
}

}  // namespace
