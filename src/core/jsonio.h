// Minimal JSON value type shared by every serializable document in the repo.
//
// Sweep requests, grid/scenario specs, dumped result records, and
// partial-reduction summaries all cross process boundaries as JSON, and all
// of them must round-trip IEEE-754 doubles *exactly* — the merge law
// (sharded run ≡ monolithic run, bitwise) depends on it — so numbers are
// formatted with std::to_chars (shortest round-trip form) and parsed with
// std::from_chars, both locale-independent.
//
// This is deliberately a small, dependency-free subset of JSON: UTF-8
// strings with the standard escapes, doubles, bools, null, arrays, and
// objects that preserve insertion order (so dump() is deterministic).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xr::core {

/// Format a finite double so that parse_double(format_double(v)) == v
/// bitwise (shortest round-trip form, std::to_chars).
[[nodiscard]] std::string format_double(double v);
/// Exact inverse of format_double; also accepts any JSON number. Throws
/// std::invalid_argument on malformed input.
[[nodiscard]] double parse_double(std::string_view text);

/// 64-bit value as fixed-width lowercase hex (values like the grid
/// fingerprint do not survive a double-typed JSON number).
[[nodiscard]] std::string format_hex64(std::uint64_t v);
/// Strict inverse of format_hex64; throws std::invalid_argument on
/// anything but a full hex string (a corrupt fingerprint must fail loud,
/// not parse as 0 and defeat the mismatch guard).
[[nodiscard]] std::uint64_t parse_hex64(std::string_view text);

/// Slurp a whole file; throws std::runtime_error when it cannot be opened.
[[nodiscard]] std::string read_text_file(const std::string& path);

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  /// Insertion-ordered object so serialization is deterministic.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), number_(v) {}
  Json(int v) : type_(Type::kNumber), number_(double(v)) {}
  Json(std::size_t v) : type_(Type::kNumber), number_(double(v)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}

  [[nodiscard]] static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }

  // ---- typed access (throws std::invalid_argument on type mismatch) ----
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  /// Number as a non-negative integral index; throws if negative or not
  /// integral.
  [[nodiscard]] std::size_t as_size() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  // ---- object helpers --------------------------------------------------
  /// Member lookup; throws std::invalid_argument when missing.
  [[nodiscard]] const Json& at(std::string_view key) const;
  /// Member lookup; nullptr when missing (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;
  /// Append-or-replace a member (value becomes an object if null).
  /// Returns true when it replaced one — the parser's duplicate-key check
  /// rides on this one scan.
  bool set(std::string key, Json value);

  // ---- array helpers ---------------------------------------------------
  /// Append an element (value becomes an array if null).
  Json& push_back(Json value);

  /// Compact single-line serialization.
  [[nodiscard]] std::string dump() const;

  /// Parse one JSON document (the whole input, surrounding whitespace
  /// allowed). Throws std::invalid_argument with position info on error,
  /// a key repeated within one object included.
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Strict-object walker shared by every strict parser: calls `field(key,
/// value)` for each member of `j` and throws std::invalid_argument, naming
/// the document part `what` and the offending key, when `field` returns
/// false. A non-object `j` throws too.
template <typename F>
void walk_strict(const Json& j, const char* what, F&& field) {
  for (const auto& [key, value] : j.as_object()) {
    if (!field(key, value))
      throw std::invalid_argument(std::string(what) + ": unknown field '" +
                                  key + "'");
  }
}

}  // namespace xr::core
