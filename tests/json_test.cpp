// Tests for the shared JSON module (src/json/): the one string escaper, the
// parser, and the strict-field readers every document parser uses.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "json/json.hpp"

namespace conga::json {
namespace {

std::string escaped_control(unsigned char b) {
  switch (b) {
    case '\n': return "\\n";
    case '\t': return "\\t";
    case '\r': return "\\r";
    default: {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(b));
      return buf;
    }
  }
}

TEST(JsonEscape, EveryByteRoundTripsThroughDumpAndParse) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string s = std::string("a") + static_cast<char>(b) + "z";
    const std::string text = Json::string(s).dump();
    Json back;
    std::string err;
    ASSERT_TRUE(Json::parse(text, back, err)) << "byte " << b << ": " << err;
    ASSERT_TRUE(back.is_string());
    EXPECT_EQ(back.as_string(), s) << "byte " << b;
    all.push_back(static_cast<char>(b));
  }
  Json back;
  std::string err;
  ASSERT_TRUE(Json::parse(Json::string(all).dump(), back, err)) << err;
  EXPECT_EQ(back.as_string(), all);
}

TEST(JsonEscape, ControlCharactersAreEscapedNeverRaw) {
  for (int b = 0; b < 0x20; ++b) {
    const std::string s(1, static_cast<char>(b));
    const std::string text = Json::string(s).dump();
    std::string want = "\"";
    want += escaped_control(static_cast<unsigned char>(b));
    want += '"';
    EXPECT_EQ(text, want) << "byte " << b;
    for (const char c : text) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "byte " << b;
    }
  }
  EXPECT_EQ(Json::string("\"\\").dump(), "\"\\\"\\\\\"");
}

TEST(JsonEscape, QuoteMatchesTheDocumentWriter) {
  for (const std::string& s : {std::string(""), std::string("up:l1s1p0"),
                              std::string("a\"b\\c\nd\x01\x1f\x7f\xc3\xa9")}) {
    EXPECT_EQ(quote(s), Json::string(s).dump());
  }
}

TEST(JsonParse, RejectsRawControlCharactersAndTrailingGarbage) {
  Json out;
  std::string err;
  EXPECT_FALSE(Json::parse(std::string("\"a\nb\""), out, err));
  EXPECT_NE(err.find("raw control character"), std::string::npos) << err;
  EXPECT_FALSE(Json::parse("{} x", out, err));
  EXPECT_NE(err.find("trailing garbage"), std::string::npos) << err;
  EXPECT_FALSE(Json::parse("{\"a\":}", out, err));
}

TEST(JsonParse, DecodesEscapesToUtf8) {
  Json out;
  std::string err;
  ASSERT_TRUE(Json::parse("\"\\u00e9\\u20ac\\/\\b\\f\"", out, err)) << err;
  EXPECT_EQ(out.as_string(), "\xc3\xa9\xe2\x82\xac/\b\f");
}

TEST(JsonParse, PrettyAndCompactFormsParseToTheSameDocument) {
  Json doc = Json::object();
  doc.set("n", Json::integer(-3));
  doc.set("u", Json::uinteger(18446744073709551615ULL));
  doc.set("d", Json::number(0.1));
  Json arr = Json::array();
  arr.push_back(Json::boolean(true));
  arr.push_back(Json::null());
  arr.push_back(Json::string("x"));
  doc.set("a", std::move(arr));
  doc.set("empty", Json::object());
  Json back;
  std::string err;
  ASSERT_TRUE(Json::parse(doc.dump_pretty(), back, err)) << err;
  EXPECT_EQ(back.dump(), doc.dump());
  EXPECT_EQ(doc.dump(),
            "{\"n\":-3,\"u\":18446744073709551615,\"d\":0.1,"
            "\"a\":[true,null,\"x\"],\"empty\":{}}");
}

TEST(JsonFieldReader, ChecksKindsAndKeepsTheFirstError) {
  std::string err;
  FieldReader r{err};
  int i = 0;
  double d = 0;
  std::string s;
  EXPECT_TRUE(read_int(r, Json::integer(7), "n", i));
  EXPECT_EQ(i, 7);
  EXPECT_TRUE(read_double(r, Json::integer(2), "x", d));
  EXPECT_EQ(d, 2.0);
  EXPECT_TRUE(r.ok);

  EXPECT_FALSE(read_int(r, Json::number(1.5), "n", i));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(err, "expected integer n");
  EXPECT_FALSE(read_string(r, Json::integer(1), "name", s));
  EXPECT_EQ(err, "expected integer n");

  std::string err2;
  FieldReader r2{err2};
  bool b = false;
  std::uint64_t u = 0;
  EXPECT_FALSE(read_bool(r2, Json::string("true"), "flag", b));
  EXPECT_EQ(err2, "expected bool flag");
  err2.clear();
  FieldReader r3{err2};
  EXPECT_FALSE(read_u64(r3, Json::null(), "seed", u));
  EXPECT_EQ(err2, "expected integer seed");
}

}  // namespace
}  // namespace conga::json
