#include "obs/json.h"

#include <cctype>
#include <cstdlib>
#include <utility>

namespace itm::obs {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

const JsonValue* JsonValue::find_path(std::string_view dotted) const {
  const JsonValue* node = this;
  while (!dotted.empty()) {
    const std::size_t dot = dotted.find('.');
    const std::string_view head =
        dot == std::string_view::npos ? dotted : dotted.substr(0, dot);
    node = node->find(head);
    if (node == nullptr) return nullptr;
    if (dot == std::string_view::npos) break;
    dotted.remove_prefix(dot + 1);
  }
  return node;
}

std::optional<double> JsonValue::number_at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->number();
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue value;
    if (!parse_value(value)) {
      if (error != nullptr) *error = fail_reason_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing garbage at offset " + std::to_string(pos_);
      }
      return std::nullopt;
    }
    return value;
  }

 private:
  bool fail(const std::string& why) {
    if (fail_reason_.empty()) {
      fail_reason_ = why + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool consume(char expected) {
    if (at_end() || text_[pos_] != expected) {
      return fail(std::string("expected '") + expected + "'");
    }
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        out.type_ = JsonValue::Type::kString;
        return parse_string(out.string_);
      }
      case 't':
      case 'f': return parse_bool(out);
      case 'n': return parse_null(out);
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    if (!consume('{')) return false;
    out.type_ = JsonValue::Type::kObject;
    out.object_ = std::make_shared<JsonObject>();
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      JsonValue value;
      if (!parse_value(value)) return false;
      (*out.object_)[std::move(key)] = std::move(value);
      skip_ws();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return consume('}');
    }
  }

  bool parse_array(JsonValue& out) {
    if (!consume('[')) return false;
    out.type_ = JsonValue::Type::kArray;
    out.array_ = std::make_shared<JsonArray>();
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array_->push_back(std::move(value));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return consume(']');
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (!at_end()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // The writers only \u-escape control characters; emit them as
          // single bytes and anything else best-effort UTF-8 (2-byte max —
          // enough for metric/stage names, which are ASCII by lint rule).
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
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_bool(JsonValue& out) {
    if (text_.substr(pos_, 4) == "true") {
      out.type_ = JsonValue::Type::kBool;
      out.bool_ = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out.type_ = JsonValue::Type::kBool;
      out.bool_ = false;
      pos_ += 5;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_null(JsonValue& out) {
    if (text_.substr(pos_, 4) == "null") {
      out.type_ = JsonValue::Type::kNull;
      pos_ += 4;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!at_end() && (peek() == '-' || peek() == '+')) ++pos_;
    bool digits = false;
    while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                         peek() == '.' || peek() == 'e' || peek() == 'E' ||
                         peek() == '+' || peek() == '-')) {
      if (std::isdigit(static_cast<unsigned char>(peek()))) digits = true;
      ++pos_;
    }
    if (!digits) return fail("bad number");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number_ = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    out.type_ = JsonValue::Type::kNumber;
    out.string_ = std::move(token);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string fail_reason_;
};

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return JsonParser(text).parse(error);
}

}  // namespace itm::obs
