#include "core/jsonio.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace xr::core {

std::string format_hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_hex64(std::string_view text) {
  std::uint64_t v = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto res = std::from_chars(first, last, v, 16);
  if (text.empty() || res.ec != std::errc{} || res.ptr != last)
    throw std::invalid_argument("parse_hex64: malformed hex '" +
                                std::string(text) + "'");
  return v;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string format_double(double v) {
  if (!std::isfinite(v))
    throw std::invalid_argument("format_double: non-finite value");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  if (res.ec != std::errc{})
    throw std::invalid_argument("format_double: to_chars failed");
  return std::string(buf, res.ptr);
}

double parse_double(std::string_view text) {
  double v = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto res = std::from_chars(first, last, v);
  if (res.ec != std::errc{} || res.ptr != last)
    throw std::invalid_argument("parse_double: malformed number '" +
                                std::string(text) + "'");
  return v;
}

bool Json::as_bool() const {
  if (type_ != Type::kBool)
    throw std::invalid_argument("Json: not a bool");
  return bool_;
}

double Json::as_double() const {
  if (type_ != Type::kNumber)
    throw std::invalid_argument("Json: not a number");
  return number_;
}

std::size_t Json::as_size() const {
  const double v = as_double();
  if (v < 0 || v != std::floor(v) || v > 9.007199254740992e15)
    throw std::invalid_argument("Json: not a non-negative integer");
  return std::size_t(v);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString)
    throw std::invalid_argument("Json: not a string");
  return string_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::kArray)
    throw std::invalid_argument("Json: not an array");
  return array_;
}

const Json::Object& Json::as_object() const {
  if (type_ != Type::kObject)
    throw std::invalid_argument("Json: not an object");
  return object_;
}

const Json& Json::at(std::string_view key) const {
  if (const Json* j = find(key)) return *j;
  throw std::invalid_argument("Json: missing member '" + std::string(key) +
                              "'");
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

bool Json::set(std::string key, Json value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject)
    throw std::invalid_argument("Json: set() on non-object");
  for (auto& [k, v] : object_)
    if (k == key) {
      v = std::move(value);
      return true;
    }
  object_.emplace_back(std::move(key), std::move(value));
  return false;
}

Json& Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray)
    throw std::invalid_argument("Json: push_back() on non-array");
  array_.push_back(std::move(value));
  return *this;
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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

}  // namespace

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: out += format_double(number_); return;
    case Type::kString: dump_string(string_, out); return;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        array_[i].dump_to(out);
      }
      out += ']';
      return;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) out += ',';
        dump_string(object_[i].first, out);
        out += ':';
        object_[i].second.dump_to(out);
      }
      out += '}';
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  out.reserve(64);
  dump_to(out);
  return out;
}

namespace {

/// Recursive-descent parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(std::string_view what) const {
    throw std::invalid_argument("Json::parse: " + std::string(what) +
                                " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return Json(string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Json(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Json(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Json();
    }
    return number();
  }

  Json number() {
    double v = 0;
    const char* first = text_.data() + pos_;
    const char* last = text_.data() + text_.size();
    const auto res = std::from_chars(first, last, v);
    // from_chars accepts "inf"/"nan", which are not JSON and would make
    // dump() throw far from here; reject them at the parse site.
    if (res.ec != std::errc{} || !std::isfinite(v))
      fail("malformed number");
    pos_ += std::size_t(res.ptr - first);
    return Json(v);
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDFFF)
            fail("surrogate pairs unsupported");
          // Encode the BMP code point as UTF-8.
          if (code < 0x80) {
            out += char(code);
          } else if (code < 0x800) {
            out += char(0xC0 | (code >> 6));
            out += char(0x80 | (code & 0x3F));
          } else {
            out += char(0xE0 | (code >> 12));
            out += char(0x80 | ((code >> 6) & 0x3F));
            out += char(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json array() {
    expect('[');
    Json out = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push_back(value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Json object() {
    expect('{');
    Json out = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      if (out.set(key, value())) fail("duplicate key '" + key + "'");
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace xr::core
