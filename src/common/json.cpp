#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace nd::json {

namespace {
[[noreturn]] void type_error(const char* want) {
  throw std::invalid_argument(std::string("json: value is not a ") + want);
}
}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) type_error("bool");
  return std::get<bool>(v_);
}

double Value::as_number() const {
  if (!is_number()) type_error("number");
  return std::get<double>(v_);
}

const std::string& Value::as_string() const {
  if (!is_string()) type_error("string");
  return std::get<std::string>(v_);
}

const Array& Value::as_array() const {
  if (!is_array()) type_error("array");
  return std::get<Array>(v_);
}

const Object& Value::as_object() const {
  if (!is_object()) type_error("object");
  return std::get<Object>(v_);
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) type_error("object");
  for (const auto& [k, v] : std::get<Object>(v_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) throw std::invalid_argument("json: missing key '" + key + "'");
  return *v;
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(double d, std::string& out) {
  if (std::floor(d) == d && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  }
}

}  // namespace

std::string Value::dump(int indent) const {
  std::string out;
  // Recursive lambda keeps the serializer local.
  auto rec = [&](auto&& self, const Value& v, int depth) -> void {
    const auto pad = [&](int d) {
      if (indent >= 0) {
        out += '\n';
        out.append(static_cast<std::size_t>(d * indent), ' ');
      }
    };
    if (v.is_null()) {
      out += "null";
    } else if (v.is_bool()) {
      out += v.as_bool() ? "true" : "false";
    } else if (v.is_number()) {
      dump_number(v.as_number(), out);
    } else if (v.is_string()) {
      dump_string(v.as_string(), out);
    } else if (v.is_array()) {
      const Array& a = v.as_array();
      if (a.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) out += ',';
        pad(depth + 1);
        self(self, a[i], depth + 1);
      }
      pad(depth);
      out += ']';
    } else {
      const Object& o = v.as_object();
      if (o.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, val] : o) {
        if (!first) out += ',';
        first = false;
        pad(depth + 1);
        dump_string(k, out);
        out += indent >= 0 ? ": " : ":";
        self(self, val, depth + 1);
      }
      pad(depth);
      out += '}';
    }
  };
  rec(rec, *this, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value run() {
    Value v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    std::ostringstream os;
    os << "json parse error at offset " << pos_ << ": " << msg;
    throw std::invalid_argument(os.str());
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  char get() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (get() != c) fail(std::string("expected '") + c + "'");
  }

  void expect_word(const char* w) {
    for (const char* p = w; *p != '\0'; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p) fail(std::string("expected '") + w + "'");
      ++pos_;
    }
  }

  Value value() {
    skip_ws();
    switch (peek()) {
      case 'n': expect_word("null"); return Value(nullptr);
      case 't': expect_word("true"); return Value(true);
      case 'f': expect_word("false"); return Value(false);
      case '"': return Value(string());
      case '[': return array();
      case '{': return object();
      default: return number();
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = get();
      if (c == '"') break;
      if (c == '\\') {
        const char e = get();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = get();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad \\u escape");
              }
            }
            // Encode BMP code point as UTF-8 (surrogate pairs unsupported —
            // the library never emits them).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Value number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string tok = s_.substr(start, pos_ - start);
    // strtod rather than stod: stod throws on the ERANGE a subnormal result
    // raises, and dump() writes subnormals like any other double. A value
    // that overflows to infinity stays malformed.
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || std::isinf(d)) {
      fail("malformed number '" + tok + "'");
    }
    return Value(d);
  }

  Value array() {
    expect('[');
    Array out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      out.push_back(value());
      skip_ws();
      const char c = get();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return Value(std::move(out));
  }

  Value object() {
    expect('{');
    Object out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      out.emplace_back(std::move(key), value());
      skip_ws();
      const char c = get();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return Value(std::move(out));
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).run(); }

}  // namespace nd::json
