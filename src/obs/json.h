// Minimal JSON reader for the run-analysis CLI (`itm obs`).
//
// The repo's JSON *writers* (metrics, traces, bench records) are hand-rolled
// ostream code; `itm obs report`/`itm obs trace` need the reverse direction
// to consume those artifacts, and the no-new-dependencies rule applies. This
// is a strict recursive-descent parser over the subset those writers emit
// (objects, arrays, strings with the writers' escapes, numbers, booleans,
// null) — sufficient for any RFC-8259 document, kept deliberately small.
// Object keys preserve insertion order is NOT guaranteed: keys land in a
// sorted map, matching the writers' sorted-key convention.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace itm::obs {

class JsonValue;
using JsonObject = std::map<std::string, JsonValue, std::less<>>;
using JsonArray = std::vector<JsonValue>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }

  [[nodiscard]] double number() const { return number_; }
  // A number's literal exactly as written. A double rounds integers above
  // 2^53, so exact comparisons (a 64-bit hash) compare literals instead.
  [[nodiscard]] const std::string& literal() const { return string_; }
  [[nodiscard]] const std::string& string() const { return string_; }
  [[nodiscard]] bool boolean() const { return bool_; }
  [[nodiscard]] const JsonObject& object() const { return *object_; }
  [[nodiscard]] const JsonArray& array() const { return *array_; }

  // Member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  // Dotted-path lookup through nested objects ("metrics.deterministic").
  [[nodiscard]] const JsonValue* find_path(std::string_view dotted) const;
  // Numeric member as double; nullopt when absent or non-numeric.
  [[nodiscard]] std::optional<double> number_at(std::string_view key) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;  // a string's contents or a number's literal
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

// Parses a complete document; nullopt (with a diagnostic in *error when
// given) on any syntax error or trailing garbage.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error = nullptr);

}  // namespace itm::obs
