#include "lexer.h"

#include <cctype>

namespace itm::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

// Multi-character punctuators, longest first so max-munch works by ordered
// probing. `::` must be one token (range-for detection keys on a bare `:`),
// and `>>` must be one token (template-argument skipping closes two depths).
constexpr std::string_view kPuncts[] = {
    "<=>", "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "<<", ">>",
    "<=",  ">=",  "==",  "!=",  "&&",  "||", "+=", "-=", "*=", "/=", "%=",
    "&=",  "|=",  "^=",  ".*",  "##",
};

// Length of an encoding prefix (u8, u, U, L, optionally followed by R for a
// raw string) glued to a quote at `rest[len]`; 0 when `rest` does not start
// a prefixed literal. The bare-R raw string reports length 1.
std::size_t literal_prefix_len(std::string_view rest) {
  std::size_t len = 0;
  if (rest.starts_with("u8")) {
    len = 2;
  } else if (!rest.empty() &&
             (rest[0] == 'u' || rest[0] == 'U' || rest[0] == 'L')) {
    len = 1;
  }
  if (len < rest.size() && rest[len] == 'R') ++len;
  if (len >= rest.size() || (rest[len] != '"' && rest[len] != '\'')) {
    // Not a literal prefix unless it ends exactly at a quote — but a lone R
    // before `"` is the classic raw-string form.
    return !rest.empty() && rest[0] == 'R' && rest.size() > 1 &&
                   rest[1] == '"'
               ? 1
               : 0;
  }
  return len;
}

// Consumes a user-defined literal suffix ("x"_kb, 10'000_rows handled by the
// pp-number path) directly attached to a just-lexed literal: the suffix is
// part of the literal token, never a phantom identifier a rule could match.
void consume_udl_suffix(std::string_view src, std::size_t& i) {
  if (i < src.size() && ident_start(src[i])) {
    while (i < src.size() && ident_char(src[i])) ++i;
  }
}

}  // namespace

std::vector<Token> tokenize(std::string_view src) {
  std::vector<Token> out;
  std::size_t i = 0;
  std::size_t line = 1;
  const std::size_t n = src.size();

  const auto advance_lines = [&](std::string_view text) {
    for (const char c : text) {
      if (c == '\n') ++line;
    }
  };
  const auto push = [&](TokKind kind, std::size_t begin, std::size_t end,
                        std::size_t at_line) {
    out.push_back(Token{kind, src.substr(begin, end - begin), at_line});
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    const std::size_t start_line = line;

    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') ++i;
      push(TokKind::kComment, start, i, start_line);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) ++i;
      i = i + 1 < n ? i + 2 : n;
      push(TokKind::kComment, start, i, start_line);
      advance_lines(src.substr(start, i - start));
      continue;
    }

    // Encoding prefixes make a literal: u8R"(..)", LR"(..)", u"..", L'x'.
    // The prefix must glue directly onto the quote, otherwise it is an
    // ordinary identifier.
    const std::size_t prefix = literal_prefix_len(src.substr(i));

    // Raw strings: [prefix]R"delim( ... )delim".
    if (prefix > 0 && src[i + prefix - 1] == 'R' && i + prefix < n &&
        src[i + prefix] == '"') {
      std::size_t d = i + prefix + 1;
      while (d < n && src[d] != '(' && src[d] != '"' && src[d] != '\n') ++d;
      if (d < n && src[d] == '(') {
        const std::string close =
            cat(')', src.substr(i + prefix + 1, d - (i + prefix + 1)), '"');
        const std::size_t end = src.find(close, d + 1);
        i = end == std::string_view::npos ? n : end + close.size();
        consume_udl_suffix(src, i);
        push(TokKind::kString, start, i, start_line);
        advance_lines(src.substr(start, i - start));
        continue;
      }
    }

    // String / char literals (escape-aware), with optional encoding prefix
    // and user-defined literal suffix ("x"_sv, 'c'_u, u8"y"sv).
    if (c == '"' || c == '\'' ||
        (prefix > 0 && i + prefix < n &&
         (src[i + prefix] == '"' || src[i + prefix] == '\''))) {
      i += prefix;
      const char quote = src[i];
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) ++i;
        if (src[i] == '\n') ++line;
        ++i;
      }
      if (i < n) ++i;  // closing quote
      consume_udl_suffix(src, i);
      push(TokKind::kString, start, i, start_line);
      continue;
    }

    if (ident_start(c)) {
      while (i < n && ident_char(src[i])) ++i;
      push(TokKind::kIdentifier, start, i, start_line);
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      // pp-number: good enough for 0x1p-3, 1'000'000, 1e+9, 0b1010ull.
      ++i;
      while (i < n) {
        const char d = src[i];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++i;
        } else if ((d == '+' || d == '-') &&
                   (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                    src[i - 1] == 'p' || src[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      push(TokKind::kNumber, start, i, start_line);
      continue;
    }

    // Punctuation, longest match first.
    std::size_t len = 1;
    for (const std::string_view p : kPuncts) {
      if (src.substr(i, p.size()) == p) {
        len = p.size();
        break;
      }
    }
    i += len;
    push(TokKind::kPunct, start, i, start_line);
  }

  out.push_back(Token{TokKind::kEof, src.substr(n, 0), line});
  return out;
}

}  // namespace itm::lint
