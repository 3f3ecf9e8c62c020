#include "graph_rules.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <set>
#include <string>

namespace itm::lint {

namespace {

constexpr std::string_view kRuleSignalSafety = "signal-safety";
constexpr std::string_view kRuleDeterminismTaint = "determinism-taint";
constexpr std::string_view kRuleExecutorReentrancy = "executor-reentrancy";
constexpr std::string_view kRuleFormatPairing = "format-pairing";

void report(std::vector<Diagnostic>& sink, const SymbolIndex& index,
            std::size_t file, std::size_t line, std::string_view rule,
            std::string message) {
  Diagnostic d;
  d.path = index.files()[file].path;
  d.line = line;
  d.rule = std::string(rule);
  d.message = std::move(message);
  sink.push_back(std::move(d));
}

// The token index of the argument-list `(` for the call at ident `i`
// (skipping explicit template arguments), or npos when `i` opens no call.
std::size_t call_open_paren(const std::vector<Token>& code, std::size_t i) {
  std::size_t open = i + 1;
  if (open < code.size() && is_punct(code[open], "<")) {
    const std::size_t after = skip_template_args(code, open);
    if (after == open) return SymbolIndex::npos;
    open = after;
  }
  if (open >= code.size() || !is_punct(code[open], "(")) {
    return SymbolIndex::npos;
  }
  return open;
}

bool range_has_ident(const std::vector<Token>& code, std::size_t begin,
                     std::size_t end, std::string_view name) {
  for (std::size_t i = begin; i < end; ++i) {
    if (is_ident(code[i], name)) return true;
  }
  return false;
}

// --- signal-safety ---------------------------------------------------------

// External calls tolerated on a handler path: the POSIX async-signal-safe
// set this repo actually uses, plus std::atomic member operations (lock-free
// on the integral types the recorder stores).
const std::set<std::string_view> kSignalSafeExternal = {
    "write",          "close",       "open",        "openat",
    "read",           "clock_gettime", "signal",    "raise",
    "kill",           "sigaction",   "sigemptyset", "sigfillset",
    "sigaddset",      "abort",       "_exit",       "_Exit",
    "memcpy",         "memmove",     "memset",      "memcmp",
    "strlen",         "load",        "store",       "exchange",
    "fetch_add",      "fetch_sub",   "fetch_or",    "fetch_and",
    "compare_exchange_weak", "compare_exchange_strong", "test_and_set",
};

// Identifiers whose mere appearance in a handler-reachable body is a
// violation: allocation, stdio, locks, and the std types that allocate.
const std::set<std::string_view> kSignalUnsafeMention = {
    "malloc",    "calloc",      "realloc",     "free",
    "printf",    "fprintf",     "sprintf",     "snprintf",
    "vsnprintf", "puts",        "fputs",       "fwrite",
    "fopen",     "fclose",      "cout",        "cerr",
    "clog",      "endl",        "lock_guard",  "unique_lock",
    "scoped_lock", "shared_lock", "mutex",     "condition_variable",
    "to_string", "string",      "vector",      "ostringstream",
    "stringstream",
};

// Function names registered as signal/terminate handlers: targets of
// `sa_handler =` / `sa_sigaction =` assignments and function arguments of
// `set_terminate(...)` / `signal(...)` calls that resolve to tree defs.
std::vector<std::size_t> handler_roots(const SymbolIndex& index) {
  std::set<std::size_t> roots;
  for (std::size_t f = 0; f < index.files().size(); ++f) {
    const std::vector<Token>& code = index.files()[f].code;
    for (std::size_t i = 0; i + 2 < code.size(); ++i) {
      if ((is_ident(code[i], "sa_handler") ||
           is_ident(code[i], "sa_sigaction")) &&
          is_punct(code[i + 1], "=") && is_ident(code[i + 2])) {
        for (const std::size_t fn :
             index.functions_named(code[i + 2].text)) {
          roots.insert(fn);
        }
      }
      if ((is_ident(code[i], "set_terminate") || is_ident(code[i], "signal")) &&
          is_punct(code[i + 1], "(")) {
        const std::size_t close = match_balanced(code, i + 1);
        for (std::size_t j = i + 2; j < close && j < code.size(); ++j) {
          if (!is_ident(code[j]) || !is_callable_name(code[j].text)) continue;
          for (const std::size_t fn : index.functions_named(code[j].text)) {
            roots.insert(fn);
          }
        }
      }
    }
  }
  return {roots.begin(), roots.end()};
}

}  // namespace

void rule_signal_safety(const SymbolIndex& index,
                        std::vector<Diagnostic>& sink) {
  const std::vector<std::size_t> roots = handler_roots(index);
  // BFS from every handler at once; chain[fn] is a human-readable call path
  // from the registered handler, used verbatim in diagnostics.
  std::map<std::size_t, std::string> chain;
  std::deque<std::size_t> queue;
  for (const std::size_t fn : roots) {
    if (chain.emplace(fn, index.functions()[fn].qualified).second) {
      queue.push_back(fn);
    }
  }

  while (!queue.empty()) {
    const std::size_t fn = queue.front();
    queue.pop_front();
    const FunctionDef& def = index.functions()[fn];
    const std::vector<Token>& code = index.files()[def.file].code;
    const std::string& path_here = chain[fn];

    // Any mention of an allocating/locking/stdio identifier, or a `new` /
    // `delete` / `throw`, anywhere in the reachable body.
    for (std::size_t k = def.body_begin + 1; k < def.body_end; ++k) {
      const Token& t = code[k];
      if (!is_ident(t)) continue;
      if (t.text == "new" || t.text == "delete" || t.text == "throw") {
        report(sink, index, def.file, t.line, kRuleSignalSafety,
               cat('`', t.text, "` in `", def.qualified,
                   "`, reachable from signal handler via ", path_here));
      } else if (kSignalUnsafeMention.count(t.text) > 0) {
        report(sink, index, def.file, t.line, kRuleSignalSafety,
               cat('`', t.text, "` in `", def.qualified,
                   "` is not async-signal-safe (handler path ", path_here,
                   ')'));
      }
    }

    for (const CallSite& call : index.calls_of(fn)) {
      if (index.lambda_locals_of(fn).count(call.name) > 0) continue;
      if (kSignalUnsafeMention.count(call.name) > 0) continue;  // reported
      const std::vector<std::size_t>& defs = index.functions_named(call.name);
      if (call.global_qualified || defs.empty()) {
        if (kSignalSafeExternal.count(call.name) == 0) {
          report(sink, index, def.file, call.line, kRuleSignalSafety,
                 "`" + call.name + "` called from `" + def.qualified +
                     "` (handler path " + path_here +
                     ") is not on the async-signal-safe allowlist");
        }
        continue;
      }
      for (const std::size_t callee : defs) {
        if (chain.emplace(callee, path_here + " -> " + call.name).second) {
          queue.push_back(callee);
        }
      }
    }
  }
}

// --- determinism-taint -----------------------------------------------------

namespace {

// Calls that produce a wall-clock / resource value by name.
const std::set<std::string_view> kTaintSourceCalls = {
    "elapsed_ns", "elapsed_us", "elapsed_s",   "current_rss_bytes",
    "peak_rss_bytes", "unix_millis", "wall_ms_now",
};

// QuantileHistogram reads taint only through a receiver declared with that
// type — `h.quantile(0.5)` is wall-clock, `set.count(x)` is not.
const std::set<std::string_view> kQuantileReads = {
    "quantile", "mean", "sum", "max", "count", "counts",
};

// obs:: free registration helpers that default to kDeterministic.
const std::set<std::string_view> kFreeSinks = {"count", "gauge_set",
                                               "gauge_max"};
const std::set<std::string_view> kRegisterCalls = {"counter", "gauge"};
const std::set<std::string_view> kRecordOps = {"add", "set", "maximize"};
const std::set<std::string_view> kWriterConsume = {"u8", "u32", "u64", "f64",
                                                   "bytes"};

struct TaintContext {
  const SymbolIndex* index = nullptr;
  const std::vector<NameTable>* visible = nullptr;
  std::set<std::string> tainted_fns;  // functions whose return is tainted
};

bool method_receiver_in(const std::vector<Token>& code, std::size_t i,
                        const std::set<std::string>& table) {
  return i >= 2 &&
         (is_punct(code[i - 1], ".") || is_punct(code[i - 1], "->")) &&
         is_ident(code[i - 2]) &&
         table.count(std::string(code[i - 2].text)) > 0;
}

// Does the token at `i` open a call whose value is wall-clock tainted?
bool taint_call_at(const TaintContext& ctx, std::size_t file,
                   const std::vector<Token>& code, std::size_t i) {
  if (!is_ident(code[i]) || call_open_paren(code, i) == SymbolIndex::npos) {
    return false;
  }
  if (kTaintSourceCalls.count(code[i].text) > 0) return true;
  if (kQuantileReads.count(code[i].text) > 0 &&
      method_receiver_in(code, i, (*ctx.visible)[file].quantile)) {
    return true;
  }
  return ctx.tainted_fns.count(std::string(code[i].text)) > 0;
}

// Is any token in [begin, end) a tainted call or a tainted local?
// `deterministic_cast(...)` is the sanctioned escape hatch: its argument
// range is skipped wholesale.
bool range_tainted(const TaintContext& ctx, std::size_t file,
                   const std::vector<Token>& code, std::size_t begin,
                   std::size_t end, const std::set<std::string>& locals) {
  for (std::size_t i = begin; i < end; ++i) {
    if (is_ident(code[i], "deterministic_cast")) {
      const std::size_t open = call_open_paren(code, i);
      if (open != SymbolIndex::npos) {
        const std::size_t close = match_balanced(code, open);
        i = close < end ? close : end;
        continue;
      }
    }
    if (!is_ident(code[i])) continue;
    if (taint_call_at(ctx, file, code, i)) return true;
    if (i + 1 < end && is_punct(code[i + 1], "(")) continue;  // untainted call
    if (locals.count(std::string(code[i].text)) > 0) return true;
  }
  return false;
}

// End of the statement starting at `i`: the `;` at brace/paren depth 0, or
// `end` if the body runs out first.
std::size_t statement_end(const std::vector<Token>& code, std::size_t i,
                          std::size_t end) {
  int depth = 0;
  for (; i < end; ++i) {
    const Token& t = code[i];
    if (is_punct(t, "(") || is_punct(t, "{") || is_punct(t, "[")) ++depth;
    else if (is_punct(t, ")") || is_punct(t, "}") || is_punct(t, "]")) --depth;
    else if (depth <= 0 && is_punct(t, ";")) return i;
  }
  return end;
}

// Locals of `fn` that hold a wall-clock-derived value: fixpoint over
// `name = <tainted rhs>` / `name += <tainted rhs>` assignments.
std::set<std::string> tainted_locals_of(const TaintContext& ctx,
                                        std::size_t fn) {
  const FunctionDef& def = ctx.index->functions()[fn];
  const std::vector<Token>& code = ctx.index->files()[def.file].code;
  std::set<std::string> locals;
  for (int round = 0; round < 8; ++round) {
    bool changed = false;
    for (std::size_t k = def.body_begin + 1; k + 1 < def.body_end; ++k) {
      if (!is_ident(code[k]) ||
          !(is_punct(code[k + 1], "=") || is_punct(code[k + 1], "+="))) {
        continue;
      }
      const std::size_t rhs_end = statement_end(code, k + 2, def.body_end);
      if (range_tainted(ctx, def.file, code, k + 2, rhs_end, locals)) {
        changed |= locals.insert(std::string(code[k].text)).second;
      }
    }
    if (!changed) break;
  }
  return locals;
}

// Functions whose return value is wall-clock tainted, to a name-level
// fixpoint: a `return` statement mentioning a source, a tainted callee, or a
// tainted local marks every definition sharing the name.
void compute_tainted_functions(TaintContext& ctx) {
  for (int round = 0; round < 12; ++round) {
    bool changed = false;
    for (std::size_t fn = 0; fn < ctx.index->functions().size(); ++fn) {
      const FunctionDef& def = ctx.index->functions()[fn];
      if (ctx.tainted_fns.count(def.name) > 0) continue;
      const std::vector<Token>& code = ctx.index->files()[def.file].code;
      const std::set<std::string> locals = tainted_locals_of(ctx, fn);
      for (std::size_t k = def.body_begin + 1; k < def.body_end; ++k) {
        if (!is_ident(code[k], "return")) continue;
        const std::size_t rhs_end = statement_end(code, k + 1, def.body_end);
        if (range_tainted(ctx, def.file, code, k + 1, rhs_end, locals)) {
          ctx.tainted_fns.insert(def.name);
          changed = true;
          break;
        }
      }
    }
    if (!changed) break;
  }
}

}  // namespace

void rule_determinism_taint(const SymbolIndex& index,
                            const std::vector<NameTable>& visible,
                            std::vector<Diagnostic>& sink) {
  TaintContext ctx;
  ctx.index = &index;
  ctx.visible = &visible;
  compute_tainted_functions(ctx);

  for (std::size_t fn = 0; fn < index.functions().size(); ++fn) {
    const FunctionDef& def = index.functions()[fn];
    const std::vector<Token>& code = index.files()[def.file].code;
    const std::set<std::string> locals = tainted_locals_of(ctx, fn);
    const auto tainted = [&](std::size_t b, std::size_t e) {
      return range_tainted(ctx, def.file, code, b, e, locals);
    };

    for (std::size_t k = def.body_begin + 1; k < def.body_end; ++k) {
      if (!is_ident(code[k])) continue;
      const std::size_t open = call_open_paren(code, k);
      if (open == SymbolIndex::npos) continue;
      const std::size_t close = match_balanced(code, open);
      if (close >= def.body_end) continue;
      const bool is_method =
          k >= 1 &&
          (is_punct(code[k - 1], ".") || is_punct(code[k - 1], "->"));

      // obs::count / gauge_set / gauge_max free helpers default
      // to kDeterministic; passing kWallClock sanctions the value.
      if (!is_method && kFreeSinks.count(code[k].text) > 0 &&
          !range_has_ident(code, open + 1, close, "kWallClock") &&
          tainted(open + 1, close)) {
        report(sink, index, def.file, code[k].line, kRuleDeterminismTaint,
               cat("wall-clock-derived value flows into kDeterministic "
                   "metric via obs::",
                   code[k].text,
                   " — pass Determinism::kWallClock or wrap in "
                   "obs::deterministic_cast"));
      }

      // registry.counter/gauge(name, det).add/set/maximize(value)
      if (is_method && kRegisterCalls.count(code[k].text) > 0 &&
          close + 3 < def.body_end && is_punct(code[close + 1], ".") &&
          is_ident(code[close + 2]) &&
          kRecordOps.count(code[close + 2].text) > 0 &&
          is_punct(code[close + 3], "(")) {
        const std::size_t vclose = match_balanced(code, close + 3);
        if (vclose < def.body_end &&
            !range_has_ident(code, open + 1, close, "kWallClock") &&
            tainted(close + 4, vclose)) {
          report(sink, index, def.file, code[close + 2].line,
                 kRuleDeterminismTaint,
                 cat("wall-clock-derived value recorded into a metric "
                     "registered kDeterministic (`.",
                     code[k].text, "(...).", code[close + 2].text,
                     "`) — register it kWallClock or use "
                     "obs::deterministic_cast"));
        }
      }

      // ByteWriter payloads are deterministic artifacts by definition.
      if (is_method && kWriterConsume.count(code[k].text) > 0 &&
          method_receiver_in(code, k, visible[def.file].bytewriter) &&
          tainted(open + 1, close)) {
        report(sink, index, def.file, code[k].line, kRuleDeterminismTaint,
               cat("wall-clock-derived value written into a snapshot "
                   "payload via ByteWriter::",
                   code[k].text,
                   " — snapshots must be bit-reproducible "
                   "(obs::deterministic_cast to override)"));
      }
    }
  }
}

// --- executor-reentrancy ---------------------------------------------------

namespace {

const std::set<std::string_view> kExecutorEntry = {"parallel_for",
                                                   "parallel_map",
                                                   "map_shards"};

// reaches[fn]: calling fn may execute an Executor entry point (directly or
// through any chain of tree-internal calls).
std::vector<char> compute_reaches(const SymbolIndex& index) {
  const std::size_t n = index.functions().size();
  std::vector<char> reaches(n, 0);
  for (std::size_t fn = 0; fn < n; ++fn) {
    for (const CallSite& call : index.calls_of(fn)) {
      if (kExecutorEntry.count(call.name) > 0) {
        reaches[fn] = 1;
        break;
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t fn = 0; fn < n; ++fn) {
      if (reaches[fn] != 0) continue;
      for (const CallSite& call : index.calls_of(fn)) {
        if (call.global_qualified ||
            index.lambda_locals_of(fn).count(call.name) > 0) {
          continue;
        }
        for (const std::size_t callee : index.functions_named(call.name)) {
          if (reaches[callee] != 0) {
            reaches[fn] = 1;
            changed = true;
            break;
          }
        }
        if (reaches[fn] != 0) break;
      }
    }
  }
  return reaches;
}

// Human-readable chain from `fn` to the entry point it reaches.
std::string reach_chain(const SymbolIndex& index,
                        const std::vector<char>& reaches, std::size_t fn) {
  std::string chain = index.functions()[fn].name;
  std::set<std::size_t> seen;
  std::size_t cur = fn;
  while (seen.insert(cur).second) {
    bool advanced = false;
    for (const CallSite& call : index.calls_of(cur)) {
      if (kExecutorEntry.count(call.name) > 0) {
        return chain + " -> " + call.name;
      }
    }
    for (const CallSite& call : index.calls_of(cur)) {
      if (call.global_qualified ||
          index.lambda_locals_of(cur).count(call.name) > 0) {
        continue;
      }
      for (const std::size_t callee : index.functions_named(call.name)) {
        if (reaches[callee] != 0 && seen.count(callee) == 0) {
          chain += " -> " + call.name;
          cur = callee;
          advanced = true;
          break;
        }
      }
      if (advanced) break;
    }
    if (!advanced) break;
  }
  return chain;
}

// The body span of a lambda whose `[` is at `i`, or (npos, npos).
std::pair<std::size_t, std::size_t> lambda_body_span(
    const std::vector<Token>& code, std::size_t i) {
  const std::size_t cap_close = match_balanced(code, i);
  if (cap_close >= code.size()) return {SymbolIndex::npos, SymbolIndex::npos};
  std::size_t j = cap_close + 1;
  if (j < code.size() && is_punct(code[j], "(")) {
    j = match_balanced(code, j) + 1;
  }
  // Tolerate mutable / noexcept / trailing-return decorations up to the
  // body brace; bail if the construct never opens one.
  const std::size_t limit = std::min(code.size(), j + 32);
  while (j < limit && !is_punct(code[j], "{")) ++j;
  if (j >= limit || !is_punct(code[j], "{")) {
    return {SymbolIndex::npos, SymbolIndex::npos};
  }
  const std::size_t body_end = match_balanced(code, j);
  if (body_end >= code.size()) return {SymbolIndex::npos, SymbolIndex::npos};
  return {j, body_end};
}

}  // namespace

void rule_executor_reentrancy(const SymbolIndex& index,
                              std::vector<Diagnostic>& sink) {
  const std::vector<char> reaches = compute_reaches(index);

  for (std::size_t fn = 0; fn < index.functions().size(); ++fn) {
    const FunctionDef& def = index.functions()[fn];
    const std::vector<Token>& code = index.files()[def.file].code;
    for (const CallSite& call : index.calls_of(fn)) {
      if (kExecutorEntry.count(call.name) == 0) continue;
      const std::size_t open = call_open_paren(code, call.token);
      if (open == SymbolIndex::npos) continue;
      const std::size_t close = match_balanced(code, open);
      // Lambdas passed as arguments: `[` in argument position.
      for (std::size_t i = open + 1; i < close; ++i) {
        if (!is_punct(code[i], "[") ||
            !(is_punct(code[i - 1], "(") || is_punct(code[i - 1], ","))) {
          continue;
        }
        const auto [body, body_end] = lambda_body_span(code, i);
        if (body == SymbolIndex::npos) continue;
        for (std::size_t k = body + 1; k < body_end; ++k) {
          if (!is_ident(code[k]) || !is_callable_name(code[k].text)) continue;
          if (call_open_paren(code, k) == SymbolIndex::npos) continue;
          if (kExecutorEntry.count(code[k].text) > 0) {
            report(sink, index, def.file, code[k].line,
                   kRuleExecutorReentrancy,
                   cat('`', code[k].text, "` called from inside a ",
                       call.name,
                       " callback — nested parallelism deadlocks the "
                       "executor pool"));
            continue;
          }
          if (index.lambda_locals_of(fn).count(std::string(code[k].text)) >
              0) {
            continue;
          }
          for (const std::size_t callee :
               index.functions_named(code[k].text)) {
            if (reaches[callee] == 0) continue;
            report(sink, index, def.file, code[k].line,
                   kRuleExecutorReentrancy,
                   "call path from a " + call.name + " callback re-enters "
                       "the executor: " +
                       reach_chain(index, reaches, callee));
            break;
          }
        }
        i = body_end;  // nested lambdas were covered by the span scan
      }
    }
  }
}

// --- format-pairing --------------------------------------------------------

namespace {

struct SectionSeq {
  std::vector<std::string> seq;
  std::size_t file = 0;
  std::size_t line = 0;
};

std::string join_seq(const std::vector<std::string>& seq) {
  std::string out = "[";
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i > 0) out += " ";
    out += seq[i];
  }
  return out + "]";
}

// Section name (`kStrings`) from a `SectionId :: kX` mention in [begin,
// end), or empty — the write_section *definition* takes a bare `SectionId
// id` parameter and is skipped by exactly this test.
std::string section_arg(const std::vector<Token>& code, std::size_t begin,
                        std::size_t end) {
  for (std::size_t i = begin; i + 2 < end; ++i) {
    if (is_ident(code[i], "SectionId") && is_punct(code[i + 1], "::") &&
        is_ident(code[i + 2]) && code[i + 2].text.front() == 'k') {
      return std::string(code[i + 2].text);
    }
  }
  return {};
}

void collect_consumers(const std::vector<Token>& code, std::size_t begin,
                       std::size_t end, const std::set<std::string>& receivers,
                       std::vector<std::string>& out) {
  for (std::size_t k = begin; k < end; ++k) {
    if (is_ident(code[k]) && kWriterConsume.count(code[k].text) > 0 &&
        method_receiver_in(code, k, receivers) && k + 1 < end &&
        is_punct(code[k + 1], "(")) {
      out.emplace_back(code[k].text);
    }
  }
}

}  // namespace

void rule_format_pairing(const SymbolIndex& index,
                         const std::vector<NameTable>& visible,
                         std::vector<Diagnostic>& sink) {
  std::map<std::string, SectionSeq> writes;
  std::map<std::string, SectionSeq> reads;

  for (std::size_t f = 0; f < index.files().size(); ++f) {
    const std::vector<Token>& code = index.files()[f].code;

    // Writer side: the ByteWriter calls between the top of the enclosing
    // block and the `write_section(..., SectionId::kX, ...)` call.
    for (std::size_t i = 0; i + 1 < code.size(); ++i) {
      if (!is_ident(code[i], "write_section") || !is_punct(code[i + 1], "(")) {
        continue;
      }
      const std::size_t close = match_balanced(code, i + 1);
      const std::string section = section_arg(code, i + 2, close);
      if (section.empty()) continue;
      // Enclosing block start: reverse brace scan.
      std::size_t start = 0;
      int depth = 0;
      for (std::size_t j = i; j-- > 0;) {
        if (is_punct(code[j], "}")) {
          ++depth;
        } else if (is_punct(code[j], "{")) {
          if (depth > 0) {
            --depth;
          } else {
            start = j;
            break;
          }
        }
      }
      SectionSeq entry;
      entry.file = f;
      entry.line = code[i].line;
      collect_consumers(code, start, i, visible[f].bytewriter, entry.seq);
      writes.emplace(section, std::move(entry));  // first writer wins
    }

    // Reader side: `<parse-fn>(..., ByteReader(*payload(SectionId::kX)) ...)`
    // — locate a `name(SectionId::kX)` accessor call, walk back to the
    // enclosing parse call, and flatten that function's ByteReader reads.
    for (std::size_t i = 0; i + 5 < code.size(); ++i) {
      if (!(is_ident(code[i]) && is_punct(code[i + 1], "(") &&
            is_ident(code[i + 2], "SectionId") && is_punct(code[i + 3], "::") &&
            is_ident(code[i + 4]) && code[i + 4].text.front() == 'k' &&
            is_punct(code[i + 5], ")"))) {
        continue;
      }
      const std::string section(code[i + 4].text);
      std::size_t parse_fn = SymbolIndex::npos;
      const std::size_t back_stop = i > 12 ? i - 12 : 0;
      for (std::size_t j = i; j-- > back_stop;) {
        if (!is_ident(code[j]) || !is_callable_name(code[j].text)) continue;
        // ByteReader's own constructor is an indexed definition; skip it so
        // the walk-back lands on the parse function, not the wrapper.
        if (code[j].text == "ByteReader") continue;
        if (j + 1 >= code.size() || !is_punct(code[j + 1], "(")) continue;
        const std::vector<std::size_t>& defs =
            index.functions_named(code[j].text);
        if (defs.empty()) continue;
        parse_fn = defs.front();
        break;
      }
      if (parse_fn == SymbolIndex::npos) continue;
      const FunctionDef& def = index.functions()[parse_fn];
      SectionSeq entry;
      entry.file = f;
      entry.line = code[i].line;
      collect_consumers(index.files()[def.file].code, def.body_begin + 1,
                        def.body_end, visible[def.file].bytereader,
                        entry.seq);
      reads.emplace(section, std::move(entry));
    }
  }

  // A lint run over a partial tree (fixtures, subsets) sees only one side;
  // pairing checks require both maps to be populated.
  for (const auto& [section, w] : writes) {
    const auto it = reads.find(section);
    if (it == reads.end()) {
      if (!reads.empty()) {
        report(sink, index, w.file, w.line, kRuleFormatPairing,
               "section " + section + " is written but no reader parses it");
      }
      continue;
    }
    if (w.seq != it->second.seq) {
      report(sink, index, w.file, w.line, kRuleFormatPairing,
             "section " + section + " ABI drift: writer emits " +
                 join_seq(w.seq) + " but reader consumes " +
                 join_seq(it->second.seq));
    }
  }
  if (!writes.empty()) {
    for (const auto& [section, r] : reads) {
      if (writes.count(section) == 0) {
        report(sink, index, r.file, r.line, kRuleFormatPairing,
               "section " + section + " is parsed but no writer emits it");
      }
    }
  }
}

}  // namespace itm::lint
