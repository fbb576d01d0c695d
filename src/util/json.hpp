#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace scalpel {

class JsonWriter;

/// Minimal JSON document model + parser. Exists so decisions, cluster
/// descriptions and experiment configs can cross process boundaries (CLI
/// configs, deployment handoff) without external dependencies. Serialization
/// goes through JsonWriter, the one JSON formatter.
///
/// Supported: objects, arrays, strings (with \" \\ \/ \b \f \n \r \t \uXXXX
/// for BMP code points), numbers (doubles), booleans, null. Object members
/// keep insertion order; lookup by key is a linear scan, which suits the
/// small objects this codebase builds.
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  static Json null();
  static Json boolean(bool v);
  static Json number(double v);
  static Json string(std::string v);
  static Json array();
  static Json object();

  Kind kind() const { return static_cast<Kind>(value_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_object() const { return kind() == Kind::kObject; }
  bool is_array() const { return kind() == Kind::kArray; }

  /// Typed accessors; throw ContractViolation on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;  // number, checked integral within 2^53
  const std::string& as_string() const;

  // --- Array ---
  std::size_t size() const;  // array or object
  const Json& at(std::size_t i) const;
  /// Returns a ref to the stored element; the next push_back on the same
  /// array may invalidate it.
  Json& push_back(Json v);

  // --- Object ---
  bool contains(const std::string& key) const;
  const Json& at(const std::string& key) const;
  /// Insert-or-assign; returns a ref to the stored element. Like push_back's,
  /// the ref dangles after the next set() of a new key on the same object:
  /// fill a child before inserting it, or finish with it before the next
  /// set().
  Json& set(const std::string& key, Json v);
  /// Keys in insertion order.
  std::vector<std::string> keys() const;

  /// Compact serialization (no whitespace).
  std::string dump() const;
  /// Pretty serialization with 2-space indentation.
  std::string dump_pretty() const;

  /// Parse a complete JSON document; throws ContractViolation with a
  /// position-annotated message on malformed input.
  static Json parse(const std::string& text);

  bool operator==(const Json& other) const;
  bool operator!=(const Json& other) const { return !(*this == other); }

 private:
  friend class JsonWriter;
  using Array = std::vector<Json>;
  using Members = std::vector<std::pair<std::string, Json>>;

  // One alternative per Kind, in Kind order: kind() is the index.
  std::variant<std::monostate, bool, double, std::string, Array, Members>
      value_;
};

/// Streaming JSON writer: the codebase's only formatter. Json::dump and
/// dump_pretty walk the DOM through it; large exports (the Chrome traces)
/// call it directly and never build a DOM.
///
/// indent 0 writes the compact form, indent > 0 the pretty form with that
/// many spaces per level — byte for byte what Json::dump / dump_pretty
/// produce. Integral numbers below 9e15 in magnitude print without a
/// fraction; every other number prints with 17 significant digits (%.17g),
/// so it parses back to the same double. Misuse throws ContractViolation: a
/// non-finite number, a value without a key inside an object, a key outside
/// an object, a mismatched end_*(), a second top-level value, or finish()
/// with a container still open.
class JsonWriter {
 public:
  /// Writes into an internal string; take() returns it.
  explicit JsonWriter(int indent = 0);
  /// Writes to `out` in chunks; finish() flushes the rest.
  JsonWriter(std::ostream& out, int indent);

  JsonWriter& begin_object() { return open(true); }
  JsonWriter& end_object() { return close(true); }
  JsonWriter& begin_array() { return open(false); }
  JsonWriter& end_array() { return close(false); }
  JsonWriter& key(std::string_view k);

  JsonWriter& value(double v);
  JsonWriter& value(bool v) { return literal(v ? "true" : "false"); }
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(const Json& doc);  // a whole DOM subtree
  JsonWriter& null() { return literal("null"); }

  /// Requires one complete top-level value and flushes it to the stream.
  void finish();
  /// finish(), then hands over the text (string mode only).
  std::string take();

 private:
  JsonWriter& open(bool object);
  JsonWriter& close(bool object);
  JsonWriter& literal(std::string_view text);
  void before_value();
  void separate();  // the comma and line break before an element
  void newline_pad(std::size_t depth);
  void escape(std::string_view s);

  std::ostream* out_ = nullptr;
  std::string buf_;
  int indent_ = 0;
  // One entry per open container: true = object.
  std::vector<bool> open_;
  bool first_ = true;         // the open container has no element yet
  bool key_pending_ = false;  // key() written, its value not yet
  bool started_ = false;      // the top-level value has begun
};

/// The framing every JSON export file shares: creates/truncates `path`,
/// lets `body` write one document into a pretty (2-space) JsonWriter on the
/// file, then ends it with a newline. Returns false (and logs) on I/O
/// failure.
bool write_json_file(const std::string& path,
                     const std::function<void(JsonWriter&)>& body);

}  // namespace scalpel
