#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace scalpel {
namespace {

TEST(Json, ScalarsRoundTrip) {
  EXPECT_EQ(Json::null().dump(), "null");
  EXPECT_EQ(Json::boolean(true).dump(), "true");
  EXPECT_EQ(Json::boolean(false).dump(), "false");
  EXPECT_EQ(Json::number(42).dump(), "42");
  EXPECT_EQ(Json::number(-3.5).dump(), "-3.5");
  EXPECT_EQ(Json::string("hi").dump(), "\"hi\"");
}

TEST(Json, TypedAccessors) {
  EXPECT_TRUE(Json::boolean(true).as_bool());
  EXPECT_DOUBLE_EQ(Json::number(2.5).as_number(), 2.5);
  EXPECT_EQ(Json::number(7).as_int(), 7);
  EXPECT_EQ(Json::string("x").as_string(), "x");
  EXPECT_THROW(Json::number(1).as_string(), ContractViolation);
  EXPECT_THROW(Json::string("x").as_number(), ContractViolation);
  EXPECT_THROW(Json::number(1.5).as_int(), ContractViolation);
}

TEST(Json, ArrayOperations) {
  Json a = Json::array();
  a.push_back(Json::number(1));
  a.push_back(Json::string("two"));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.at(0).as_int(), 1);
  EXPECT_EQ(a.at(1).as_string(), "two");
  EXPECT_THROW(a.at(2), ContractViolation);
  EXPECT_EQ(a.dump(), "[1,\"two\"]");
}

TEST(Json, ObjectOperationsPreserveInsertionOrder) {
  Json o = Json::object();
  o.set("z", Json::number(1));
  o.set("a", Json::number(2));
  o.set("z", Json::number(3));  // overwrite keeps position
  EXPECT_EQ(o.size(), 2u);
  EXPECT_TRUE(o.contains("a"));
  EXPECT_FALSE(o.contains("b"));
  EXPECT_EQ(o.at("z").as_int(), 3);
  EXPECT_EQ(o.dump(), "{\"z\":3,\"a\":2}");
  EXPECT_THROW(o.at("missing"), ContractViolation);
}

TEST(Json, StringEscaping) {
  const Json s = Json::string("a\"b\\c\nd\te\x01");
  const std::string dumped = s.dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  EXPECT_EQ(Json::parse(dumped).as_string(), s.as_string());
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse(" true ").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("-12.25e1").as_number(), -122.5);
  EXPECT_EQ(Json::parse("\"x\\u0041y\"").as_string(), "xAy");
}

TEST(Json, ParseNested) {
  const auto j = Json::parse(
      R"({"name":"lab","devices":[{"id":0,"rate":2.5},{"id":1,"rate":1.0}],)"
      R"("ok":true})");
  EXPECT_EQ(j.at("name").as_string(), "lab");
  EXPECT_EQ(j.at("devices").size(), 2u);
  EXPECT_DOUBLE_EQ(j.at("devices").at(0).at("rate").as_number(), 2.5);
  EXPECT_TRUE(j.at("ok").as_bool());
}

TEST(Json, RoundTripComplexDocument) {
  Json o = Json::object();
  Json& arr = o.set("list", Json::array());
  for (int i = 0; i < 5; ++i) {
    Json item = Json::object();
    item.set("i", Json::number(i));
    item.set("sq", Json::number(i * i));
    arr.push_back(std::move(item));
  }
  o.set("meta", Json::string("round trip"));
  const Json parsed = Json::parse(o.dump());
  EXPECT_EQ(parsed, o);
  const Json pretty_parsed = Json::parse(o.dump_pretty());
  EXPECT_EQ(pretty_parsed, o);
}

TEST(Json, PrettyPrintShape) {
  Json o = Json::object();
  o.set("a", Json::number(1));
  Json arr = Json::array();
  arr.push_back(Json::number(2));
  o.set("b", std::move(arr));
  const std::string s = o.dump_pretty();
  EXPECT_NE(s.find("{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}"),
            std::string::npos);
}

TEST(Json, ParseErrorsAreDiagnosed) {
  EXPECT_THROW(Json::parse(""), ContractViolation);
  EXPECT_THROW(Json::parse("{"), ContractViolation);
  EXPECT_THROW(Json::parse("[1,]"), ContractViolation);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), ContractViolation);
  EXPECT_THROW(Json::parse("tru"), ContractViolation);
  EXPECT_THROW(Json::parse("1 2"), ContractViolation);
  EXPECT_THROW(Json::parse("\"unterminated"), ContractViolation);
  EXPECT_THROW(Json::parse("{a:1}"), ContractViolation);
}

TEST(Json, NumbersPrintIntegersCleanly) {
  EXPECT_EQ(Json::number(1e6).dump(), "1000000");
  EXPECT_EQ(Json::number(0.5).dump(), "0.5");
  // Round-trips preserve value.
  EXPECT_DOUBLE_EQ(Json::parse(Json::number(0.1).dump()).as_number(), 0.1);
}

TEST(Json, RejectsNonFiniteNumbers) {
  EXPECT_THROW(Json::number(std::numeric_limits<double>::infinity()),
               ContractViolation);
}

TEST(Json, EqualityIsStructural) {
  const auto a = Json::parse(R"({"x":[1,2],"y":"s"})");
  const auto b = Json::parse(R"({ "x" : [ 1 , 2 ] , "y" : "s" })");
  EXPECT_EQ(a, b);
  const auto c = Json::parse(R"({"x":[1,3],"y":"s"})");
  EXPECT_NE(a, c);
}

// --- JsonWriter: the one formatter -----------------------------------------

/// Strings built from pieces that exercise every escape: control
/// characters (including NUL), quote, backslash, slash, DEL and UTF-8.
std::string random_string(std::mt19937_64& rng) {
  static const std::vector<std::string> kPieces = {
      "a",  "Zq", "\"", "\\", "/",    "\n",       "\t",  "\b",
      "\f", "\r", "\x01", "\x1f", "\x7f", std::string(1, '\0'), " ", "\xc3\xa9",
      "key"};
  std::string out;
  const auto n = static_cast<int>(rng() % 6);
  for (int i = 0; i < n; ++i) out += kPieces[rng() % kPieces.size()];
  return out;
}

/// Numbers at the edges of the integer and %.17g paths, and random doubles.
double random_number(std::mt19937_64& rng) {
  static const double kEdges[] = {
      9007199254740992.0,  -9007199254740992.0, 9007199254740991.0,
      9.0e15,              -9.0e15,             std::nextafter(9.0e15, 0.0),
      -std::nextafter(9.0e15, 0.0), 9.0e15 + 2.0, -0.0,
      0.0,                 4.9406564584124654e-324, 2.2250738585072009e-308,
      -1.0e-310,           1e308,               -1.7976931348623157e308,
      0.1,                 1.0 / 3.0,           123456789.125,
      42.0,                -7.0,                1e-7};
  switch (rng() % 4) {
    case 0: return kEdges[rng() % (sizeof kEdges / sizeof kEdges[0])];
    case 1: return static_cast<double>(static_cast<std::int64_t>(rng() % 2001) - 1000);
    case 2: return std::uniform_real_distribution<double>(-1e6, 1e6)(rng);
    default: {
      double v = 0.0;
      do {
        const std::uint64_t bits = rng();
        std::memcpy(&v, &bits, sizeof v);
      } while (!std::isfinite(v));
      return v;
    }
  }
}

Json random_tree(std::mt19937_64& rng, int depth) {
  // Below the depth limit, half the picks are containers.
  const auto pick = rng() % (depth > 0 ? 8 : 4);
  switch (pick) {
    case 0: return Json::null();
    case 1: return Json::boolean(rng() % 2 == 0);
    case 2: return Json::number(random_number(rng));
    case 3: return Json::string(random_string(rng));
    case 4:
    case 5: {
      Json a = Json::array();
      const auto n = rng() % 5;
      for (std::uint64_t i = 0; i < n; ++i) {
        a.push_back(random_tree(rng, depth - 1));
      }
      return a;
    }
    default: {
      Json o = Json::object();
      const auto n = rng() % 5;
      for (std::uint64_t i = 0; i < n; ++i) {
        o.set(random_string(rng), random_tree(rng, depth - 1));
      }
      return o;
    }
  }
}

TEST(JsonWriter, RandomTreesRoundTripCompactAndPretty) {
  std::mt19937_64 rng(20261017);
  for (int i = 0; i < 2000; ++i) {
    const Json x = random_tree(rng, 6);
    const std::string compact = x.dump();
    const std::string pretty = x.dump_pretty();
    ASSERT_EQ(Json::parse(compact), x) << compact;
    ASSERT_EQ(Json::parse(pretty), x) << pretty;
    // Compact and pretty differ only by whitespace outside strings.
    ASSERT_EQ(Json::parse(pretty).dump(), compact);
  }
}

TEST(JsonWriter, NumbersMatchPrintf) {
  std::mt19937_64 rng(9001);
  char ref[32];
  for (int i = 0; i < 200000; ++i) {
    const double v = random_number(rng);
    if (std::abs(v) < 9.0e15 && v == std::round(v)) {
      std::snprintf(ref, sizeof ref, "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(ref, sizeof ref, "%.17g", v);
    }
    ASSERT_EQ(Json::number(v).dump(), ref);
    ASSERT_EQ(Json::parse(ref).as_number(), v) << ref;
  }
  EXPECT_EQ(Json::number(-0.0).dump(), "0");
  EXPECT_EQ(Json::number(9.0e15).dump(), "9000000000000000");
  EXPECT_EQ(Json::number(8999999999999999.0).dump(), "8999999999999999");
  EXPECT_EQ(Json::number(0.1).dump(), "0.10000000000000001");
  EXPECT_EQ(Json::number(1e308).dump(), "1e+308");
  EXPECT_EQ(Json::number(4.9406564584124654e-324).dump(),
            "4.9406564584124654e-324");
}

TEST(JsonWriter, StreamsTheSameBytesInChunks) {
  Json big = Json::array();
  for (int i = 0; i < 20000; ++i) {
    Json e = Json::object();
    e.set("i", Json::number(i));
    e.set("x", Json::number(i / 7.0));
    e.set("s", Json::string("line\n\"" + std::to_string(i)));
    big.push_back(std::move(e));
  }
  for (const int indent : {0, 2}) {
    std::ostringstream out;
    JsonWriter w(out, indent);
    w.value(big);
    w.finish();
    EXPECT_EQ(out.str(), indent == 0 ? big.dump() : big.dump_pretty());
    EXPECT_GT(out.str().size(), std::size_t{1} << 17);
  }
}

TEST(JsonWriter, WritesTheDomLayoutDirectly) {
  JsonWriter w(2);
  w.begin_object();
  w.key("a").value(1.0);
  w.key("b").begin_array().value(true).null().value("x").end_array();
  w.key("c").begin_object().end_object();
  w.key("d").begin_array().end_array();
  w.end_object();
  const std::string text = w.take();
  EXPECT_EQ(text,
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null,\n    \"x\"\n  ],"
            "\n  \"c\": {},\n  \"d\": []\n}");
  EXPECT_EQ(Json::parse(text).dump_pretty(), text);
}

TEST(JsonWriter, RejectsMisuse) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.value(bad), ContractViolation);
  }
  {
    JsonWriter w;  // a value without a key inside an object
    w.begin_object();
    EXPECT_THROW(w.value(1.0), ContractViolation);
    EXPECT_THROW(w.begin_array(), ContractViolation);
  }
  {
    JsonWriter w;  // a key inside an array, or at the top level
    EXPECT_THROW(w.key("k"), ContractViolation);
    w.begin_array();
    EXPECT_THROW(w.key("k"), ContractViolation);
  }
  {
    JsonWriter w;  // two keys in a row, or a dangling key at the end
    w.begin_object().key("a");
    EXPECT_THROW(w.key("b"), ContractViolation);
    EXPECT_THROW(w.end_object(), ContractViolation);
  }
  {
    JsonWriter w;  // mismatched end
    w.begin_array();
    EXPECT_THROW(w.end_object(), ContractViolation);
  }
  {
    JsonWriter w;  // containers left open at finish
    w.begin_array().begin_object();
    EXPECT_THROW(w.finish(), ContractViolation);
    w.end_object();
    EXPECT_THROW(w.take(), ContractViolation);
  }
  {
    JsonWriter w;  // nothing written, or a second top-level value
    EXPECT_THROW(w.finish(), ContractViolation);
    w.value(1.0);
    EXPECT_THROW(w.value(2.0), ContractViolation);
    EXPECT_EQ(w.take(), "1");
  }
}

TEST(Json, MalformedNumbersKeepTheirErrorOffsets) {
  auto message = [](const std::string& text) {
    try {
      Json::parse(text);
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      return what.substr(what.find("offset"));
    }
    return std::string("parsed");
  };
  EXPECT_EQ(message("-"), "offset 1: malformed number");
  EXPECT_EQ(message("[1-2]"), "offset 4: malformed number");
  EXPECT_EQ(message("1e"), "offset 2: malformed number");
  EXPECT_EQ(message("-inf"), "offset 1: malformed number");
  EXPECT_EQ(message("[0x10]"), "offset 3: expected ',' or ']' in array");
  EXPECT_EQ(message("1e999"), "offset 5: number out of range");
  EXPECT_EQ(message("[nul]"), "offset 1: bad literal");
  EXPECT_EQ(message("[true,fals]"), "offset 6: bad literal");
  EXPECT_DOUBLE_EQ(Json::parse("[+5]").at(0).as_number(), 5.0);
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e-1 ").as_number(), -1.25);
}

TEST(Json, KeysAreACopyInInsertionOrder) {
  Json o = Json::object();
  o.set("b", Json::number(1));
  o.set("a", Json::number(2));
  const std::vector<std::string> keys = o.keys();
  o.set("c", Json::number(3));
  EXPECT_EQ(keys, (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(o.keys(), (std::vector<std::string>{"b", "a", "c"}));
}

}  // namespace
}  // namespace scalpel
