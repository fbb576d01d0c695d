#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace scalpel {

Json Json::null() { return Json(); }

Json Json::boolean(bool v) {
  Json j;
  j.value_.emplace<bool>(v);
  return j;
}

Json Json::number(double v) {
  SCALPEL_REQUIRE(std::isfinite(v), "JSON numbers must be finite");
  Json j;
  j.value_.emplace<double>(v);
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.value_.emplace<std::string>(std::move(v));
  return j;
}

Json Json::array() {
  Json j;
  j.value_.emplace<Array>();
  return j;
}

Json Json::object() {
  Json j;
  j.value_.emplace<Members>();
  return j;
}

bool Json::as_bool() const {
  const bool* v = std::get_if<bool>(&value_);
  SCALPEL_REQUIRE(v != nullptr, "JSON value is not a boolean");
  return *v;
}

double Json::as_number() const {
  const double* v = std::get_if<double>(&value_);
  SCALPEL_REQUIRE(v != nullptr, "JSON value is not a number");
  return *v;
}

std::int64_t Json::as_int() const {
  const double v = as_number();
  const double r = std::round(v);
  SCALPEL_REQUIRE(std::abs(v - r) < 1e-9 && std::abs(v) < 9.0e15,
                  "JSON number is not an exact integer");
  return static_cast<std::int64_t>(r);
}

const std::string& Json::as_string() const {
  const std::string* v = std::get_if<std::string>(&value_);
  SCALPEL_REQUIRE(v != nullptr, "JSON value is not a string");
  return *v;
}

std::size_t Json::size() const {
  if (const auto* a = std::get_if<Array>(&value_)) return a->size();
  if (const auto* m = std::get_if<Members>(&value_)) return m->size();
  SCALPEL_REQUIRE(false, "JSON size() on a scalar");
}

const Json& Json::at(std::size_t i) const {
  const auto* a = std::get_if<Array>(&value_);
  SCALPEL_REQUIRE(a != nullptr, "JSON value is not an array");
  SCALPEL_REQUIRE(i < a->size(), "JSON array index out of range");
  return (*a)[i];
}

Json& Json::push_back(Json v) {
  auto* a = std::get_if<Array>(&value_);
  SCALPEL_REQUIRE(a != nullptr, "push_back on non-array JSON");
  a->push_back(std::move(v));
  return a->back();
}

bool Json::contains(const std::string& key) const {
  const auto* m = std::get_if<Members>(&value_);
  SCALPEL_REQUIRE(m != nullptr, "contains() on non-object JSON");
  for (const auto& [k, v] : *m) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::at(const std::string& key) const {
  const auto* m = std::get_if<Members>(&value_);
  SCALPEL_REQUIRE(m != nullptr, "JSON value is not an object");
  for (const auto& [k, v] : *m) {
    if (k == key) return v;
  }
  SCALPEL_REQUIRE(false, "missing JSON key: " + key);
}

Json& Json::set(const std::string& key, Json v) {
  auto* m = std::get_if<Members>(&value_);
  SCALPEL_REQUIRE(m != nullptr, "set() on non-object JSON");
  for (auto& [k, stored] : *m) {
    if (k == key) {
      stored = std::move(v);
      return stored;
    }
  }
  m->emplace_back(key, std::move(v));
  return m->back().second;
}

std::vector<std::string> Json::keys() const {
  const auto* m = std::get_if<Members>(&value_);
  SCALPEL_REQUIRE(m != nullptr, "keys() on non-object JSON");
  std::vector<std::string> out;
  out.reserve(m->size());
  for (const auto& [k, v] : *m) out.push_back(k);
  return out;
}

bool Json::operator==(const Json& other) const {
  return value_ == other.value_;
}

std::string Json::dump() const {
  JsonWriter w;
  w.value(*this);
  return w.take();
}

std::string Json::dump_pretty() const {
  JsonWriter w(2);
  w.value(*this);
  return w.take();
}

namespace {

// Stream mode hands the buffer to the stream once it holds this many bytes.
constexpr std::size_t kFlushChunk = std::size_t{1} << 16;

}  // namespace

JsonWriter::JsonWriter(int indent) : indent_(indent) {}

JsonWriter::JsonWriter(std::ostream& out, int indent)
    : out_(&out), indent_(indent) {
  buf_.reserve(kFlushChunk + 256);
}

void JsonWriter::newline_pad(std::size_t depth) {
  buf_ += '\n';
  buf_.append(static_cast<std::size_t>(indent_) * depth, ' ');
}

void JsonWriter::before_value() {
  if (out_ != nullptr && buf_.size() >= kFlushChunk) {
    out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }
  if (open_.empty()) {
    SCALPEL_REQUIRE(!started_, "JSON writer: a second top-level value");
    started_ = true;
    return;
  }
  if (open_.back()) {
    SCALPEL_REQUIRE(key_pending_, "JSON writer: object value without a key");
    key_pending_ = false;
    return;
  }
  separate();
}

void JsonWriter::separate() {
  if (!first_) buf_ += ',';
  first_ = false;
  if (indent_ > 0) newline_pad(open_.size());
}

JsonWriter& JsonWriter::open(bool object) {
  before_value();
  buf_ += object ? '{' : '[';
  open_.push_back(object);
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::close(bool object) {
  SCALPEL_REQUIRE(!open_.empty() && open_.back() == object,
                  "JSON writer: end does not match the open container");
  SCALPEL_REQUIRE(!key_pending_, "JSON writer: key without a value");
  open_.pop_back();
  if (!first_ && indent_ > 0) newline_pad(open_.size());
  buf_ += object ? '}' : ']';
  first_ = false;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  SCALPEL_REQUIRE(!open_.empty() && open_.back(),
                  "JSON writer: key outside an object");
  SCALPEL_REQUIRE(!key_pending_, "JSON writer: key without a value");
  separate();
  escape(k);
  buf_ += indent_ > 0 ? ": " : ":";
  key_pending_ = true;
  return *this;
}

void JsonWriter::escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  buf_ += '"';
  std::size_t run = 0;  // start of the pending verbatim run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto ch = static_cast<unsigned char>(s[i]);
    if (ch >= 0x20 && ch != '"' && ch != '\\') continue;
    buf_.append(s.data() + run, i - run);
    run = i + 1;
    switch (ch) {
      case '"': buf_ += "\\\""; break;
      case '\\': buf_ += "\\\\"; break;
      case '\b': buf_ += "\\b"; break;
      case '\f': buf_ += "\\f"; break;
      case '\n': buf_ += "\\n"; break;
      case '\r': buf_ += "\\r"; break;
      case '\t': buf_ += "\\t"; break;
      default:
        buf_ += "\\u00";
        buf_ += kHex[ch >> 4];
        buf_ += kHex[ch & 0xf];
    }
  }
  buf_.append(s.data() + run, s.size() - run);
  buf_ += '"';
}

JsonWriter& JsonWriter::value(double v) {
  SCALPEL_REQUIRE(std::isfinite(v), "JSON numbers must be finite");
  before_value();
  char tmp[32];
  // Integers print without a fraction; everything else round-trips with 17
  // significant digits, exactly as %.17g prints them.
  const std::to_chars_result r =
      std::abs(v) < 9.0e15 && v == std::round(v)
          ? std::to_chars(tmp, tmp + sizeof tmp, static_cast<long long>(v))
          : std::to_chars(tmp, tmp + sizeof tmp, v,
                          std::chars_format::general, 17);
  buf_.append(tmp, r.ptr);
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_value();
  escape(s);
  return *this;
}

JsonWriter& JsonWriter::literal(std::string_view text) {
  before_value();
  buf_ += text;
  return *this;
}

JsonWriter& JsonWriter::value(const Json& doc) {
  switch (doc.kind()) {
    case Json::Kind::kNull: return null();
    case Json::Kind::kBool: return value(std::get<bool>(doc.value_));
    case Json::Kind::kNumber: return value(std::get<double>(doc.value_));
    case Json::Kind::kString:
      return value(std::string_view(std::get<std::string>(doc.value_)));
    case Json::Kind::kArray:
      begin_array();
      for (const Json& e : std::get<Json::Array>(doc.value_)) value(e);
      return end_array();
    case Json::Kind::kObject:
      begin_object();
      for (const auto& [k, v] : std::get<Json::Members>(doc.value_)) {
        key(k);
        value(v);
      }
      return end_object();
  }
  return *this;
}

void JsonWriter::finish() {
  SCALPEL_REQUIRE(started_ && open_.empty(),
                  "JSON writer: finish() before the document is complete");
  if (out_ != nullptr) {
    out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }
}

std::string JsonWriter::take() {
  SCALPEL_REQUIRE(out_ == nullptr, "JSON writer: take() on a stream writer");
  finish();
  return std::move(buf_);
}

bool write_json_file(const std::string& path,
                     const std::function<void(JsonWriter&)>& body) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    log_warn("could not open JSON output file: " + path);
    return false;
  }
  JsonWriter w(out, 2);
  body(w);
  w.finish();
  out << '\n';
  return static_cast<bool>(out);
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    require(pos_ == text_.size(), "trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    SCALPEL_REQUIRE(false, "JSON parse error at offset " +
                               std::to_string(pos_) + ": " + msg);
  }
  void require(bool cond, const char* msg) const {
    if (!cond) fail(msg);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }
  char take() {
    const char ch = peek();
    ++pos_;
    return ch;
  }
  void expect(char ch) {
    if (take() != ch) fail(std::string("expected '") + ch + "'");
  }
  bool consume_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit, n) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char ch = peek();
    switch (ch) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json::string(parse_string());
      case 't':
        require(consume_literal("true"), "bad literal");
        return Json::boolean(true);
      case 'f':
        require(consume_literal("false"), "bad literal");
        return Json::boolean(false);
      case 'n':
        require(consume_literal("null"), "bad literal");
        return Json::null();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      const char ch = take();
      if (ch == '}') return obj;
      require(ch == ',', "expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char ch = take();
      if (ch == ']') return arr;
      require(ch == ',', "expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run up to the next quote or escape in one append.
      std::size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\') {
        ++run;
      }
      out.append(text_, pos_, run - pos_);
      pos_ = run;
      const char ch = take();
      if (ch == '"') return out;
      const char esc = take();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs unsupported).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    require(pos_ > start, "expected a number");
    const char* first = text_.c_str() + start;
    const char* last = text_.c_str() + pos_;
    char* end = nullptr;
    double v = std::strtod(first, &end);
    if (end > last) {
      // strtod read a hex or inf/nan form on past the scanned token; judge
      // the token alone, as the grammar always has.
      const std::string tok(first, last);
      v = std::strtod(tok.c_str(), &end);
      end = const_cast<char*>(first) + (end - tok.c_str());
    }
    require(end == last, "malformed number");
    require(std::isfinite(v), "number out of range");
    return Json::number(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace scalpel
