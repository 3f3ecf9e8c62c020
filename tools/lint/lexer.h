// Minimal C++ lexer for itm-lint.
//
// itm-lint is deliberately AST-lite: the determinism rules it enforces are
// about *lexical shapes* (range-for over an unordered container, a clock
// identifier outside an allowlisted file, an Rng consumed inside an executor
// lambda), so a token stream with line numbers is enough. The lexer must
// still be a real lexer — rule keywords like "random_device" appear inside
// this tool's own string literals, and itm-lint scans its own source — so
// comments, string/char literals and raw strings are lexed as single tokens
// and never mistaken for code.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace itm::lint {

enum class TokKind {
  kIdentifier,  // identifiers and keywords (no distinction needed)
  kNumber,
  kString,   // string literal, char literal, raw string (quotes included)
  kPunct,    // operators and punctuation; multi-char ops are one token
  kComment,  // // or /* */, text includes the delimiters
  kEof,
};

struct Token {
  TokKind kind = TokKind::kEof;
  std::string_view text;  // view into the source buffer
  std::size_t line = 0;   // 1-based line of the token's first character
};

// Tokenizes `source`. The returned tokens view into `source`, which must
// outlive them. Comments are kept (suppression scanning needs them); rule
// code that walks the stream should use a comment-skipping cursor.
// Unterminated literals/comments are closed at end of file rather than
// reported — itm-lint lints code that already compiles.
[[nodiscard]] std::vector<Token> tokenize(std::string_view source);

// True for tokens rule logic should see (everything but comments/EOF).
[[nodiscard]] inline bool is_code(const Token& t) {
  return t.kind != TokKind::kComment && t.kind != TokKind::kEof;
}

// Concatenates strings, string_views and chars by appending, for
// diagnostics and raw-string delimiters. GCC 12's Release builds misreport
// `"literal" + std::string&&` as an overlapping copy (-Wrestrict).
template <typename... Parts>
[[nodiscard]] std::string cat(const Parts&... parts) {
  std::string out;
  (out += ... += parts);
  return out;
}

}  // namespace itm::lint
