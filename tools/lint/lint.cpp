#include "lint.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "graph_rules.h"
#include "index.h"
#include "lexer.h"

namespace itm::lint {

namespace {

constexpr std::string_view kRuleNondetIteration = "nondet-iteration";
constexpr std::string_view kRuleBannedSources = "banned-nondet-sources";
constexpr std::string_view kRuleRngDiscipline = "rng-discipline";
constexpr std::string_view kRuleExecutorCapture = "executor-capture";
constexpr std::string_view kRuleFloatReduction = "float-reduction-order";
constexpr std::string_view kRuleStaleSuppression = "stale-suppression";
constexpr std::string_view kRuleMetricName = "metric-name-format";
constexpr std::string_view kRuleSignalSafety = "signal-safety";
constexpr std::string_view kRuleDeterminismTaint = "determinism-taint";
constexpr std::string_view kRuleExecutorReentrancy = "executor-reentrancy";
constexpr std::string_view kRuleFormatPairing = "format-pairing";

const std::set<std::string_view> kKnownRules = {
    kRuleNondetIteration,  kRuleBannedSources,      kRuleRngDiscipline,
    kRuleExecutorCapture,  kRuleFloatReduction,     kRuleMetricName,
    kRuleSignalSafety,     kRuleDeterminismTaint,   kRuleExecutorReentrancy,
    kRuleFormatPairing,
};

// Clock identifiers are banned in deterministic stages; src/obs/ owns wall
// time by design (DESIGN.md decision #7), so it is allowlisted wholesale.
const std::set<std::string_view> kBannedClocks = {
    "system_clock", "steady_clock", "high_resolution_clock"};

// All randomness must flow through itm::Rng: <random> engines and
// distributions differ across standard libraries, random_device is
// nondeterministic by definition.
const std::set<std::string_view> kBannedRandom = {
    "rand",
    "srand",
    "random_device",
    "mt19937",
    "mt19937_64",
    "default_random_engine",
    "minstd_rand",
    "minstd_rand0",
    "ranlux24",
    "ranlux48",
    "knuth_b",
    "uniform_int_distribution",
    "uniform_real_distribution",
    "normal_distribution",
    "bernoulli_distribution",
    "poisson_distribution",
    "geometric_distribution",
    "exponential_distribution",
    "discrete_distribution",
    "piecewise_constant_distribution",
};

const std::set<std::string_view> kBannedEnv = {"getenv", "secure_getenv"};

// Rng methods that advance generator state. split() is absent on purpose:
// deriving a child stream is the sanctioned pattern inside parallel code.
const std::set<std::string_view> kRngConsumingMethods = {
    "next_u64",    "next_below",  "uniform_int", "uniform",
    "bernoulli",   "normal",      "lognormal",   "exponential",
    "pareto",      "poisson",     "weighted_index", "shuffle",
    "sample_indices", "reseed",
};

// Container/object mutations that are racy (and order-dependent) when the
// receiver is shared across executor shards.
const std::set<std::string_view> kMutatingMethods = {
    "push_back", "emplace_back", "pop_back", "insert",  "emplace",
    "try_emplace", "erase",      "clear",    "resize",  "assign",
    "merge",     "swap",         "reset",    "push",    "pop",
};

const std::set<std::string_view> kAssignOps = {
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};

// Read-modify-write operators that commute, so shard interleaving cannot
// change the result when the receiver is a std::atomic (the same doctrine
// obs::Counter is built on: commutative integer ops, relaxed order).
const std::set<std::string_view> kCommutativeOps = {"++", "--", "+=", "-=",
                                                    "&=", "|=", "^="};

const std::set<std::string_view> kExecutorEntryPoints = {
    "parallel_for", "parallel_map", "map_shards"};

struct Suppression {
  std::size_t line = 0;
  std::string rule;
  bool used = false;
};

double monotonic_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// Lambda model for the executor rules.

struct LambdaInfo {
  bool default_ref_capture = false;
  bool default_copy_capture = false;
  std::size_t bracket_line = 0;            // line of the `[`
  std::set<std::string> ref_captures;      // explicit &name
  std::set<std::string> copy_captures;     // explicit name / init-captures
  std::size_t body_begin = 0;              // index of `{`
  std::size_t body_end = 0;                // index of matching `}`
};

// True when `[` at toks[i] starts a lambda rather than a subscript: a
// subscript's `[` follows a value (identifier, `)`, `]`, literal).
bool starts_lambda(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return true;
  const Token& prev = toks[i - 1];
  if (prev.kind == TokKind::kIdentifier || prev.kind == TokKind::kNumber ||
      prev.kind == TokKind::kString) {
    return false;
  }
  return !(is_punct(prev, ")") || is_punct(prev, "]"));
}

// Parses the lambda whose `[` is at toks[i]; returns false if it has no
// body we can find (e.g. an attribute or array-new expression).
bool parse_lambda(const std::vector<Token>& toks, std::size_t i,
                  LambdaInfo& out) {
  const std::size_t cap_end = match_balanced(toks, i);
  if (cap_end >= toks.size()) return false;
  out.bracket_line = toks[i].line;
  // Capture items, comma-separated at depth 0.
  std::size_t j = i + 1;
  while (j < cap_end) {
    if (is_punct(toks[j], "&")) {
      if (j + 1 < cap_end && is_ident(toks[j + 1])) {
        out.ref_captures.insert(std::string(toks[j + 1].text));
        j += 2;
      } else {
        out.default_ref_capture = true;
        ++j;
      }
    } else if (is_punct(toks[j], "=")) {
      out.default_copy_capture = true;
      ++j;
    } else if (is_ident(toks[j]) && toks[j].text != "this") {
      out.copy_captures.insert(std::string(toks[j].text));
      ++j;
    } else {
      ++j;
    }
    // Skip the remainder of this capture item (init-captures etc.).
    int depth = 0;
    while (j < cap_end) {
      if (is_punct(toks[j], "(") || is_punct(toks[j], "{") ||
          is_punct(toks[j], "[")) {
        ++depth;
      } else if (is_punct(toks[j], ")") || is_punct(toks[j], "}") ||
                 is_punct(toks[j], "]")) {
        --depth;
      } else if (depth == 0 && is_punct(toks[j], ",")) {
        ++j;
        break;
      }
      ++j;
    }
  }
  // Parameters (optional), then anything up to the body brace.
  j = cap_end + 1;
  if (j < toks.size() && is_punct(toks[j], "(")) {
    j = match_balanced(toks, j) + 1;
  }
  while (j < toks.size() && !is_punct(toks[j], "{")) {
    // A `;` or `)` before `{` means this bracket was not a lambda.
    if (is_punct(toks[j], ";") || is_punct(toks[j], ")")) return false;
    ++j;
  }
  if (j >= toks.size()) return false;
  out.body_begin = j;
  out.body_end = match_balanced(toks, j);
  return out.body_end < toks.size();
}

// Declarator decorations between a type and its name (const, &, *, &&).
std::size_t skip_decl_prefix(const std::vector<Token>& toks, std::size_t i) {
  while (i < toks.size() &&
         (is_ident(toks[i], "const") || is_punct(toks[i], "&") ||
          is_punct(toks[i], "*") || is_punct(toks[i], "&&"))) {
    ++i;
  }
  return i;
}

// Names declared with the given type keyword inside [begin, end) — used to
// exempt shard-local variables from the capture rules.
std::set<std::string> local_decls_of(const std::vector<Token>& toks,
                                     std::size_t begin, std::size_t end,
                                     const std::set<std::string_view>& types) {
  std::set<std::string> out;
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (is_ident(toks[i]) && types.count(toks[i].text) > 0) {
      std::size_t j = skip_decl_prefix(toks, i + 1);
      if (j < end && is_ident(toks[j])) out.insert(std::string(toks[j].text));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------

// Token-level rules for one file, reading names through the file's visible
// table (its own declarations plus its include closure). Diagnostics go
// straight to the shared raw sink; suppressions are applied globally after
// every rule family has run.
class FileLinter {
 public:
  FileLinter(const SymbolIndex& index, std::size_t file,
             const NameTable& table, std::vector<Diagnostic>& sink)
      : index_(index),
        file_(file),
        path_(index.files()[file].path),
        code_(index.files()[file].code),
        table_(table),
        sink_(sink) {}

  // --- banned-nondet-sources -----------------------------------------------
  void rule_banned_sources() {
    const bool obs_wallclock_allowed =
        path_.find("src/obs/") != std::string::npos;
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const Token& t = code_[i];
      if (!is_ident(t)) continue;
      if (kBannedClocks.count(t.text) > 0 && !obs_wallclock_allowed) {
        report(t.line, kRuleBannedSources,
               cat('\'', t.text,
                   "' is wall-clock: deterministic stages must use SimTime; "
                   "wall time belongs to itm::obs spans"));
      } else if (kBannedRandom.count(t.text) > 0) {
        report(t.line, kRuleBannedSources,
               cat('\'', t.text,
                   "' bypasses itm::Rng: all randomness must derive from the "
                   "scenario seed via Rng/Rng::split"));
      } else if (kBannedEnv.count(t.text) > 0) {
        report(t.line, kRuleBannedSources,
               cat('\'', t.text,
                   "' reads ambient process state inside a deterministic "
                   "stage; plumb configuration through options structs"));
      } else if (t.text == "hash" && i + 1 < code_.size() &&
                 is_punct(code_[i + 1], "<")) {
        const std::size_t after = skip_template_args(code_, i + 1);
        for (std::size_t j = i + 2; j + 1 < after; ++j) {
          if (is_punct(code_[j], "*")) {
            report(t.line, kRuleBannedSources,
                   "hashing a pointer value: pointer identity varies run to "
                   "run (ASLR); hash a stable id instead");
            break;
          }
        }
      }
    }
  }

  // --- nondet-iteration ----------------------------------------------------
  void rule_nondet_iteration() {
    for (std::size_t i = 0; i + 1 < code_.size(); ++i) {
      if (!is_ident(code_[i], "for") || !is_punct(code_[i + 1], "(")) continue;
      const std::size_t close = match_balanced(code_, i + 1);
      if (close >= code_.size()) continue;
      // Find the range-for `:` at paren depth 1 (a `;` first means a
      // classic for loop).
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (is_punct(code_[j], "(") || is_punct(code_[j], "{") ||
            is_punct(code_[j], "[")) {
          ++depth;
        } else if (is_punct(code_[j], ")") || is_punct(code_[j], "}") ||
                   is_punct(code_[j], "]")) {
          --depth;
        } else if (depth == 1 && is_punct(code_[j], ";")) {
          break;
        } else if (depth == 1 && is_punct(code_[j], ":")) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      // An identifier of unordered type anywhere in the range expression —
      // unless it is wrapped in one of net/ordered.h's sorted snapshots.
      std::string culprit;
      std::size_t culprit_tok = 0;
      bool ordered_wrapper = false;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (!is_ident(code_[j])) continue;
        if (code_[j].text == "sorted_items" ||
            code_[j].text == "sorted_keys") {
          ordered_wrapper = true;
          break;
        }
        if (culprit.empty() &&
            table_.unordered.count(std::string(code_[j].text)) > 0) {
          culprit = std::string(code_[j].text);
          culprit_tok = j;
        }
      }
      if (ordered_wrapper) continue;
      if (culprit.empty()) continue;
      if (local_ordered_decl(culprit, culprit_tok)) continue;
      if (sorted_after_loop(i, close)) continue;
      report(code_[i].line, kRuleNondetIteration,
             "range-for over unordered container '" + culprit +
                 "': iteration order is a hash-layout accident; iterate a "
                 "sorted copy (or sort what this loop builds) before it can "
                 "feed outputs or merges");
    }
  }

  // The unordered name may be shadowed by a local `auto` declaration whose
  // initializer involves nothing unordered (`const auto* series =
  // activity.series_of(asn);`): the local provably holds an ordered value,
  // so the member name from an included header does not apply here.
  bool local_ordered_decl(const std::string& name, std::size_t use_tok) {
    const std::size_t fn = index_.enclosing_function(file_, use_tok);
    if (fn == SymbolIndex::npos) return false;
    const FunctionDef& def = index_.functions()[fn];
    for (std::size_t k = def.body_begin + 1; k < use_tok; ++k) {
      if (!is_ident(code_[k], "auto")) continue;
      std::size_t j = skip_decl_prefix(code_, k + 1);
      if (j >= use_tok || !is_ident(code_[j], name) ||
          !is_punct(code_[j + 1], "=")) {
        continue;
      }
      bool unordered_init = false;
      for (std::size_t m = j + 2; m < use_tok && !is_punct(code_[m], ";");
           ++m) {
        if (is_ident(code_[m]) &&
            table_.unordered.count(std::string(code_[m].text)) > 0) {
          unordered_init = true;
          break;
        }
      }
      if (!unordered_init) return true;
    }
    return false;
  }

  // True when everything the loop body push_backs into is std::sort-ed
  // within the following window — the sanctioned snapshot-then-sort idiom.
  bool sorted_after_loop(std::size_t for_idx, std::size_t paren_close) {
    std::size_t body_begin = paren_close + 1;
    if (body_begin >= code_.size()) return false;
    std::size_t body_end;
    if (is_punct(code_[body_begin], "{")) {
      body_end = match_balanced(code_, body_begin);
    } else {
      body_end = body_begin;
      while (body_end < code_.size() && !is_punct(code_[body_end], ";")) {
        ++body_end;
      }
    }
    if (body_end >= code_.size()) return false;
    (void)for_idx;
    std::set<std::string> pushed;
    for (std::size_t j = body_begin; j + 3 < body_end; ++j) {
      if (is_ident(code_[j]) && is_punct(code_[j + 1], ".") &&
          (is_ident(code_[j + 2], "push_back") ||
           is_ident(code_[j + 2], "emplace_back")) &&
          is_punct(code_[j + 3], "(")) {
        pushed.insert(std::string(code_[j].text));
      }
    }
    if (pushed.empty()) return false;
    // Look ahead a bounded window for a sort of a pushed container:
    // `sort(...X.begin...)` with X within a few tokens of the call (handles
    // member chains like `sort(impact.services.begin(), ...)`).
    const std::size_t limit = std::min(code_.size(), body_end + 400);
    for (std::size_t j = body_end; j + 1 < limit; ++j) {
      if (!(is_ident(code_[j], "sort") || is_ident(code_[j], "stable_sort")) ||
          !is_punct(code_[j + 1], "(")) {
        continue;
      }
      const std::size_t probe_end = std::min(limit, j + 10);
      for (std::size_t p = j + 2; p + 2 < probe_end; ++p) {
        if (is_ident(code_[p]) &&
            pushed.count(std::string(code_[p].text)) > 0 &&
            is_punct(code_[p + 1], ".") && is_ident(code_[p + 2], "begin")) {
          return true;
        }
      }
    }
    return false;
  }

  // --- metric-name-format --------------------------------------------------
  // Metric and span names are a flat namespace shared across the whole
  // pipeline, dumped into JSON keys and diffed by tools: they must be
  // lowercase dotted identifiers ([a-z0-9_.]+). Only obs call sites with a
  // string-literal first argument are checked — a bare `count` collides
  // with std names, so the free functions require `obs::`
  // qualification and the registry methods a `.`/`->` receiver.
  void rule_metric_names() {
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const Token& t = code_[i];
      if (!is_ident(t)) continue;
      bool site = false;
      if (t.text == "count" || t.text == "gauge_set" ||
          t.text == "gauge_max" || t.text == "observe_quantile") {
        site = i >= 2 && is_punct(code_[i - 1], "::") &&
               is_ident(code_[i - 2], "obs");
      } else if (t.text == "counter" || t.text == "gauge" ||
                 t.text == "quantile") {
        site = i >= 1 && (is_punct(code_[i - 1], ".") ||
                          is_punct(code_[i - 1], "->"));
      } else if (t.text == "Span" || t.text == "StageScope") {
        site = true;
      }
      // The name literal is the first ( argument; RAII declarations put the
      // variable identifier between the type and the paren (Span s("x")).
      std::size_t open = i + 1;
      if (site && (t.text == "Span" || t.text == "StageScope") &&
          open < code_.size() && is_ident(code_[open])) {
        ++open;
      }
      if (!site || open + 1 >= code_.size() || !is_punct(code_[open], "(") ||
          code_[open + 1].kind != TokKind::kString) {
        continue;
      }
      std::string_view name = code_[open + 1].text;  // quotes included
      if (name.size() < 2 || name.front() != '"' || name.back() != '"') {
        continue;  // char/raw literal — not a metric name
      }
      name = name.substr(1, name.size() - 2);
      const bool ok =
          !name.empty() && std::all_of(name.begin(), name.end(), [](char c) {
            return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                   c == '_' || c == '.';
          });
      if (!ok) {
        report(code_[open + 1].line, kRuleMetricName,
               cat("metric/span name \"", name,
                   "\" must match [a-z0-9_.]+ — one flat lowercase dotted "
                   "namespace keeps exports greppable and diffable"));
      }
    }
  }

  // --- rng-discipline / executor-capture / float-reduction-order -----------
  void rule_executor_lambdas() {
    for (std::size_t i = 0; i < code_.size(); ++i) {
      if (!is_ident(code_[i]) ||
          kExecutorEntryPoints.count(code_[i].text) == 0) {
        continue;
      }
      std::size_t j = skip_template_args(code_, i + 1);
      if (j >= code_.size() || !is_punct(code_[j], "(")) continue;
      const std::size_t args_end = match_balanced(code_, j);
      if (args_end >= code_.size()) continue;
      for (std::size_t k = j + 1; k < args_end; ++k) {
        if (!is_punct(code_[k], "[") || !starts_lambda(code_, k)) continue;
        LambdaInfo lambda;
        if (!parse_lambda(code_, k, lambda)) continue;
        check_executor_lambda(lambda);
        k = lambda.body_end;  // don't rescan inside this lambda
      }
      i = args_end;
    }
  }

 private:
  void report(std::size_t line, std::string_view rule, std::string message) {
    sink_.push_back(
        Diagnostic{path_, line, std::string(rule), std::move(message)});
  }

  bool captured_by_ref(const LambdaInfo& l, const std::string& name) const {
    return l.ref_captures.count(name) > 0 || l.default_ref_capture;
  }

  bool is_atomic(const std::string& name) const {
    return table_.atomics.count(name) > 0;
  }

  void check_executor_lambda(const LambdaInfo& lambda) {
    if (lambda.default_ref_capture) {
      report(lambda.bracket_line, kRuleExecutorCapture,
             "default [&] capture in an executor lambda hides shared mutable "
             "state; list every capture explicitly");
    }
    const auto local_rngs =
        local_decls_of(code_, lambda.body_begin, lambda.body_end, {"Rng"});
    const auto local_floats = local_decls_of(
        code_, lambda.body_begin, lambda.body_end, {"double", "float"});
    for (std::size_t i = lambda.body_begin + 1; i < lambda.body_end; ++i) {
      if (!is_ident(code_[i])) continue;
      const std::string name(code_[i].text);
      // Skip member accesses (`x.name`): only the receiver is checked.
      if (i > 0 && (is_punct(code_[i - 1], ".") ||
                    is_punct(code_[i - 1], "->"))) {
        continue;
      }
      const Token* next = i + 1 < lambda.body_end ? &code_[i + 1] : nullptr;
      if (next == nullptr) continue;

      // rng-discipline: consuming a shared generator from a shard.
      if (table_.rng.count(name) > 0 && local_rngs.count(name) == 0 &&
          captured_by_ref(lambda, name) && is_punct(*next, ".") &&
          i + 2 < lambda.body_end && is_ident(code_[i + 2]) &&
          kRngConsumingMethods.count(code_[i + 2].text) > 0) {
        report(code_[i].line, kRuleRngDiscipline,
               cat("shared Rng '", name, "' consumed ('", code_[i + 2].text,
                   "') inside an executor lambda: draws depend on shard "
                   "interleaving; derive a per-item stream with "
                   "Rng::split"));
        continue;
      }

      // Mutations of by-ref captured names that are not per-slot writes.
      if (!captured_by_ref(lambda, name) ||
          table_.rng.count(name) > 0) {
        continue;
      }
      if (is_punct(*next, "[")) continue;  // indexed slot: the contract
      const bool is_float =
          table_.floats.count(name) > 0 && local_floats.count(name) == 0;
      // Walk a member chain (`x.a.b`) to the operation that applies to it.
      std::size_t op = i + 1;
      while (op + 1 < lambda.body_end && is_punct(code_[op], ".") &&
             is_ident(code_[op + 1])) {
        const std::string_view member = code_[op + 1].text;
        if (kMutatingMethods.count(member) > 0 && op + 2 < lambda.body_end &&
            is_punct(code_[op + 2], "(")) {
          report(code_[i].line, kRuleExecutorCapture,
                 cat('\'', name, '.', member,
                     "(...)' mutates state captured by reference in an "
                     "executor lambda: write per-index slots or per-shard "
                     "accumulators merged in shard order"));
          op = lambda.body_end;
          break;
        }
        op += 2;
      }
      if (op >= lambda.body_end) continue;
      const Token& op_tok = code_[op];
      const bool direct = op == i + 1;  // operator applies to the bare name
      if (op_tok.kind != TokKind::kPunct) continue;
      if (direct && is_punct(op_tok, "+=") && is_float) {
        report(code_[i].line, kRuleFloatReduction,
               "floating-point '+=' into by-ref captured '" + name +
                   "' inside an executor lambda: float addition is not "
                   "associative, so the sum depends on scheduling; keep a "
                   "per-shard accumulator and merge in shard order");
      } else if (direct && is_atomic(name) &&
                 kCommutativeOps.count(op_tok.text) > 0) {
        // Commutative read-modify-write on a std::atomic: racy-by-design
        // but order-independent, the same contract obs::Counter relies on.
        continue;
      } else if (kAssignOps.count(op_tok.text) > 0 ||
                 is_punct(op_tok, "++") || is_punct(op_tok, "--")) {
        report(code_[i].line, kRuleExecutorCapture,
               cat('\'', name, ' ', op_tok.text,
                   "' mutates state captured by reference in an executor "
                   "lambda: a data race and an order dependence; write "
                   "per-index slots or per-shard accumulators"));
      }
    }
    // Prefix increments of captured names (`++shared`).
    for (std::size_t i = lambda.body_begin + 1; i + 1 < lambda.body_end;
         ++i) {
      if ((is_punct(code_[i], "++") || is_punct(code_[i], "--")) &&
          is_ident(code_[i + 1]) &&
          captured_by_ref(lambda, std::string(code_[i + 1].text)) &&
          !(i > 0 && (is_punct(code_[i - 1], ".") ||
                      is_punct(code_[i - 1], "->")))) {
        // `++x` where x is captured by ref and not followed by `[`;
        // atomics commute under ++/--, so they are exempt by design.
        if (i + 2 < lambda.body_end && is_punct(code_[i + 2], "[")) continue;
        if (is_atomic(std::string(code_[i + 1].text))) continue;
        report(code_[i].line, kRuleExecutorCapture,
               cat('\'', code_[i].text, code_[i + 1].text,
                   "' mutates state captured by reference in an executor "
                   "lambda: a data race and an order dependence; write "
                   "per-index slots or per-shard accumulators"));
      }
    }
  }

  const SymbolIndex& index_;
  std::size_t file_;
  const std::string& path_;
  const std::vector<Token>& code_;
  const NameTable& table_;
  std::vector<Diagnostic>& sink_;
};

// Scans one file's raw tokens (comments included) for `itm-lint: allow(...)`
// comments. Unknown rule names are reported immediately; valid ones are
// returned for the global flush.
std::vector<Suppression> collect_suppressions(const FileTokens& file,
                                              std::vector<Diagnostic>& sink) {
  std::vector<Suppression> out;
  for (const Token& t : file.raw) {
    if (t.kind != TokKind::kComment) continue;
    std::string_view text = t.text;
    std::size_t pos = text.find("itm-lint:");
    while (pos != std::string_view::npos) {
      const std::size_t open = text.find("allow(", pos);
      if (open == std::string_view::npos) break;
      const std::size_t close = text.find(')', open);
      if (close == std::string_view::npos) break;
      std::string_view inner = text.substr(open + 6, close - (open + 6));
      // Comma-separated rule list.
      while (!inner.empty()) {
        const std::size_t comma = inner.find(',');
        std::string_view rule = inner.substr(0, comma);
        while (!rule.empty() && rule.front() == ' ') rule.remove_prefix(1);
        while (!rule.empty() && rule.back() == ' ') rule.remove_suffix(1);
        // Placeholder text in prose (`allow(<rule>)`, `allow(...)`) is
        // not a suppression attempt; only identifier-shaped rules count.
        const bool rule_shaped =
            !rule.empty() && std::all_of(rule.begin(), rule.end(), [](char c) {
              return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                     c == '-' || c == '_';
            });
        if (rule_shaped) {
          if (kKnownRules.count(rule) == 0) {
            sink.push_back(Diagnostic{
                file.path, t.line, std::string(kRuleStaleSuppression),
                cat("unknown rule '", rule, "' in itm-lint: allow(...)")});
          } else {
            out.push_back(Suppression{t.line, std::string(rule), false});
          }
        }
        if (comma == std::string_view::npos) break;
        inner.remove_prefix(comma + 1);
      }
      pos = text.find("itm-lint:", close);
    }
  }
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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
  return out;
}

}  // namespace

const std::set<std::string_view>& known_rules() { return kKnownRules; }

LintResult lint_sources(const std::vector<SourceFile>& files) {
  LintResult result;
  result.files_scanned = files.size();
  std::vector<Diagnostic> raw;

  const auto timed = [&](std::string_view pass, const auto& body) {
    const double t0 = monotonic_seconds();
    body();
    result.rule_seconds.emplace_back(std::string(pass),
                                     monotonic_seconds() - t0);
  };

  // Pass 1: the symbol index and per-file effective name tables.
  SymbolIndex index;
  std::vector<NameTable> visible;
  timed("index", [&] {
    index = SymbolIndex::build(files);
    visible.resize(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
      visible[i] = index.visible_names(i);
    }
  });

  // Pass 2a: file-local token rules.
  const auto per_file = [&](std::string_view pass, const auto& rule) {
    timed(pass, [&] {
      for (std::size_t i = 0; i < files.size(); ++i) {
        FileLinter linter(index, i, visible[i], raw);
        rule(linter);
      }
    });
  };
  per_file(kRuleBannedSources,
           [](FileLinter& l) { l.rule_banned_sources(); });
  per_file(kRuleNondetIteration,
           [](FileLinter& l) { l.rule_nondet_iteration(); });
  per_file("executor-captures",
           [](FileLinter& l) { l.rule_executor_lambdas(); });
  per_file(kRuleMetricName, [](FileLinter& l) { l.rule_metric_names(); });

  // Pass 2b: cross-TU graph rules.
  timed(kRuleSignalSafety, [&] { rule_signal_safety(index, raw); });
  timed(kRuleDeterminismTaint,
        [&] { rule_determinism_taint(index, visible, raw); });
  timed(kRuleExecutorReentrancy,
        [&] { rule_executor_reentrancy(index, raw); });
  timed(kRuleFormatPairing,
        [&] { rule_format_pairing(index, visible, raw); });

  // Global suppression flush, keyed by path so cross-TU diagnostics are
  // suppressible exactly like token-rule ones.
  timed("suppressions", [&] {
    std::map<std::string, std::vector<Suppression>> by_path;
    for (std::size_t i = 0; i < files.size(); ++i) {
      by_path[index.files()[i].path] =
          collect_suppressions(index.files()[i], raw);
    }
    for (Diagnostic& d : raw) {
      bool suppressed = false;
      if (d.rule != kRuleStaleSuppression) {
        const auto it = by_path.find(d.path);
        if (it != by_path.end()) {
          for (Suppression& s : it->second) {
            if (s.rule == d.rule &&
                (d.line == s.line || d.line == s.line + 1)) {
              s.used = true;
              suppressed = true;
            }
          }
        }
      }
      if (!suppressed) result.diagnostics.push_back(std::move(d));
    }
    for (const auto& [path, suppressions] : by_path) {
      for (const Suppression& s : suppressions) {
        if (s.used) {
          ++result.suppressions_used[s.rule];
        } else {
          result.diagnostics.push_back(Diagnostic{
              path, s.line, std::string(kRuleStaleSuppression),
              "itm-lint: allow(" + s.rule +
                  ") suppresses nothing on this or the next line; remove "
                  "it"});
        }
      }
    }
    std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       if (a.path != b.path) return a.path < b.path;
                       return a.line < b.line;
                     });
  });
  return result;
}

std::string format_diagnostic(const Diagnostic& d) {
  std::ostringstream os;
  os << d.path << ":" << d.line << ": [" << d.rule << "] " << d.message;
  return os.str();
}

std::string to_json(const LintResult& result,
                    const std::vector<std::string>& budget_errors) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"tool\": \"itm-lint\",\n";
  os << "  \"schema\": \"itm-lint-json/1\",\n";
  os << "  \"files_scanned\": " << result.files_scanned << ",\n";
  os << "  \"diagnostics\": [";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"path\": \"" << json_escape(d.path)
       << "\", \"line\": " << d.line << ", \"rule\": \"" << json_escape(d.rule)
       << "\", \"message\": \"" << json_escape(d.message) << "\"}";
  }
  os << (result.diagnostics.empty() ? "],\n" : "\n  ],\n");
  os << "  \"suppressions_used\": {";
  std::size_t n = 0;
  for (const auto& [rule, used] : result.suppressions_used) {
    os << (n++ == 0 ? "\n" : ",\n");
    os << "    \"" << json_escape(rule) << "\": " << used;
  }
  os << (n == 0 ? "},\n" : "\n  },\n");
  os << "  \"budget_errors\": [";
  for (std::size_t i = 0; i < budget_errors.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    os << "    \"" << json_escape(budget_errors[i]) << "\"";
  }
  os << (budget_errors.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

std::map<std::string, std::size_t> parse_budget(const std::string& text) {
  std::map<std::string, std::size_t> budget;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string rule;
    if (!(fields >> rule)) continue;  // blank / comment-only line
    long long cap = -1;
    if (!(fields >> cap) || cap < 0) {
      throw std::runtime_error("budget line " + std::to_string(lineno) +
                               ": expected '<rule> <count>', got '" + line +
                               "'");
    }
    if (kKnownRules.count(rule) == 0) {
      throw std::runtime_error("budget line " + std::to_string(lineno) +
                               ": unknown rule '" + rule + "'");
    }
    if (budget.count(rule) > 0) {
      throw std::runtime_error("budget line " + std::to_string(lineno) +
                               ": duplicate rule '" + rule + "'");
    }
    budget[rule] = static_cast<std::size_t>(cap);
  }
  return budget;
}

std::vector<std::string> check_budget(
    const LintResult& result,
    const std::map<std::string, std::size_t>& budget) {
  std::vector<std::string> errors;
  for (const auto& [rule, used] : result.suppressions_used) {
    const auto it = budget.find(rule);
    const std::size_t cap = it == budget.end() ? 0 : it->second;
    if (used > cap) {
      errors.push_back(rule + ": " + std::to_string(used) +
                       " live suppressions exceed the budget of " +
                       std::to_string(cap) +
                       " (tools/lint/suppressions.budget); fix the new "
                       "violation instead of suppressing it");
    }
  }
  return errors;
}

}  // namespace itm::lint
