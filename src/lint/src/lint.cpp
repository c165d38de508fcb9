#include "ntco/lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace ntco::lint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Small string helpers.

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

bool starts_with_any(const std::string& path,
                     const std::vector<std::string>& prefixes) {
  for (const auto& p : prefixes)
    if (path.rfind(p, 0) == 0) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Pass 1: strip comments and string/char literals.
//
// The token rules must not fire on prose ("std::thread is banned here") or
// on pattern strings, so everything inside comments and literals is blanked
// to spaces before matching. Line structure and column positions are
// preserved so diagnostics can report 1-based line numbers and the obs-name
// extractor can read literals back out of the raw line at a known column.
// Handles //, /*...*/, "...", '...', and raw strings with arbitrary
// delimiters (R"(...)", R"x(...)x", R"ntco(...)ntco").

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else if (c != '\r') {
      cur.push_back(c);
    }
  }
  lines.push_back(cur);
  return lines;
}

std::vector<std::string> strip_code(const std::vector<std::string>& raw) {
  enum class St { Code, Block, Str, Chr, Raw };
  St st = St::Code;
  std::string raw_close;  // ")delim\"" — the sequence ending the raw string
  std::vector<std::string> out;
  out.reserve(raw.size());
  for (const std::string& line : raw) {
    std::string s(line.size(), ' ');
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      const char n = i + 1 < line.size() ? line[i + 1] : '\0';
      switch (st) {
        case St::Code:
          if (c == '/' && n == '/') {
            i = line.size();  // rest of line is comment
          } else if (c == '/' && n == '*') {
            st = St::Block;
            ++i;
          } else if (c == 'R' && n == '"' &&
                     (i == 0 || !is_ident(line[i - 1]))) {
            // R"delim( — the delimiter is 0..16 chars, none of which may be
            // a space, backslash, or paren (per the grammar).
            std::size_t j = i + 2;
            std::string delim;
            bool valid = true;
            while (j < line.size() && line[j] != '(') {
              const char d = line[j];
              if (delim.size() >= 16 || d == ')' || d == '\\' || d == '"' ||
                  std::isspace(static_cast<unsigned char>(d)) != 0) {
                valid = false;
                break;
              }
              delim.push_back(d);
              ++j;
            }
            if (valid && j < line.size() && line[j] == '(') {
              st = St::Raw;
              raw_close = ")" + delim + "\"";
              i = j;  // loop's ++i steps past '('
            } else {
              s[i] = c;  // not actually a raw-string opener
            }
          } else if (c == '"') {
            st = St::Str;
          } else if (c == '\'') {
            // Digit separator (16'667, 0xDEAD'BEEF): a quote between two
            // hex digits is not a char literal — except the u8'x' prefix,
            // where the '8' before the quote belongs to `u8`.
            const auto hexish = [](char d) {
              return std::isdigit(static_cast<unsigned char>(d)) != 0 ||
                     (d >= 'a' && d <= 'f') || (d >= 'A' && d <= 'F');
            };
            const bool u8_prefix = i >= 2 && line[i - 1] == '8' &&
                                   line[i - 2] == 'u' &&
                                   (i < 3 || !is_ident(line[i - 3]));
            if (i > 0 && hexish(line[i - 1]) && hexish(n) && !u8_prefix) {
              s[i] = c;  // separator: keep it as code
            } else {
              st = St::Chr;
            }
          } else {
            s[i] = c;
          }
          break;
        case St::Block:
          if (c == '*' && n == '/') {
            st = St::Code;
            ++i;
          }
          break;
        case St::Str:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            st = St::Code;
          }
          break;
        case St::Chr:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            st = St::Code;
          }
          break;
        case St::Raw:
          if (line.compare(i, raw_close.size(), raw_close) == 0) {
            st = St::Code;
            i += raw_close.size() - 1;
          }
          break;
      }
    }
    // Unterminated " or ' at end of line: treat as closed (not valid C++
    // anyway; keeps the stripper from eating the rest of the file). Raw
    // strings legitimately span lines, so St::Raw persists.
    if (st == St::Str || st == St::Chr) st = St::Code;
    out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Token matching with identifier-boundary context.

enum class Kind {
  Call,    // identifier-bounded, must be followed by '(' — e.g. time(
  Word,    // identifier-bounded on both sides — e.g. steady_clock
  Prefix,  // identifier-bounded on the left only — e.g. std::atomic<...>
};

struct Token {
  const char* text;
  Kind kind;
};

// Leading boundary: not part of a longer identifier and not a member
// access (`x.time(...)`, `p->time(...)`). A `::` qualifier is *not* a
// boundary-breaker, so `std::getenv(` matches the `getenv` call token.
bool left_ok(const std::string& s, std::size_t pos) {
  if (pos == 0) return true;
  const char b = s[pos - 1];
  return !is_ident(b) && b != '.' && b != '>';
}

bool match_token(const std::string& s, const Token& t, std::size_t* at) {
  const std::string pat(t.text);
  std::size_t pos = 0;
  while ((pos = s.find(pat, pos)) != std::string::npos) {
    const std::size_t end = pos + pat.size();
    const bool right_word = end < s.size() && is_ident(s[end]);
    bool ok = left_ok(s, pos);
    if (ok) {
      switch (t.kind) {
        case Kind::Word:
          ok = !right_word;
          break;
        case Kind::Prefix:
          break;
        case Kind::Call: {
          ok = !right_word;
          if (ok) {
            std::size_t j = end;
            while (j < s.size() &&
                   std::isspace(static_cast<unsigned char>(s[j])) != 0)
              ++j;
            ok = j < s.size() && s[j] == '(';
          }
          break;
        }
      }
    }
    if (ok) {
      *at = pos;
      return true;
    }
    pos = end;
  }
  return false;
}

// Like Call matching but *member access is allowed* on the left — used for
// telemetry APIs (`registry.counter(`), where the receiver is the point.
bool match_member_call(const std::string& s, const std::string& pat,
                       std::size_t from, std::size_t* at) {
  std::size_t pos = from;
  while ((pos = s.find(pat, pos)) != std::string::npos) {
    const std::size_t end = pos + pat.size();
    const bool left = pos == 0 || !is_ident(s[pos - 1]);
    bool ok = left && !(end < s.size() && is_ident(s[end]));
    if (ok) {
      std::size_t j = end;
      while (j < s.size() &&
             std::isspace(static_cast<unsigned char>(s[j])) != 0)
        ++j;
      ok = j < s.size() && s[j] == '(';
      if (ok) {
        *at = pos;
        return true;
      }
    }
    pos = end;
  }
  return false;
}

// R1: nondeterminism sources. Wall clocks, process environment, and raw
// <random> machinery; everything stochastic must flow through ntco::Rng and
// everything temporal through sim::Simulator::now().
const Token kR1Tokens[] = {
    {"random_device", Kind::Word},   {"rand", Kind::Call},
    {"srand", Kind::Call},           {"time", Kind::Call},
    {"clock", Kind::Call},           {"getenv", Kind::Call},
    {"gettimeofday", Kind::Call},    {"localtime", Kind::Call},
    {"gmtime", Kind::Call},          {"system_clock", Kind::Word},
    {"steady_clock", Kind::Word},    {"high_resolution_clock", Kind::Word},
    {"mt19937", Kind::Prefix},       {"minstd_rand", Kind::Prefix},
    {"default_random_engine", Kind::Word},
};

// R3: threading primitives; the fleet layer owns all concurrency.
const Token kR3Tokens[] = {
    {"std::thread", Kind::Word},     {"std::jthread", Kind::Word},
    {"std::mutex", Kind::Word},      {"std::shared_mutex", Kind::Word},
    {"std::timed_mutex", Kind::Word},
    {"std::recursive_mutex", Kind::Word},
    {"std::condition_variable", Kind::Prefix},
    {"std::atomic", Kind::Prefix},   {"std::lock_guard", Kind::Word},
    {"std::unique_lock", Kind::Word},
    {"std::scoped_lock", Kind::Word},
    {"std::this_thread", Kind::Word},
    {"std::async", Kind::Word},      {"std::future", Kind::Word},
    {"std::promise", Kind::Word},    {"std::barrier", Kind::Word},
    {"std::latch", Kind::Word},
    {"std::counting_semaphore", Kind::Prefix},
};

// ---------------------------------------------------------------------------
// R2/R5 support: names of variables declared with an unordered container
// type anywhere in the file (declarations, members, parameters).

std::set<std::string> unordered_vars(const std::vector<std::string>& code) {
  std::set<std::string> vars;
  // Join for decl scanning only; diagnostics never come from this pass.
  std::string all;
  for (const auto& l : code) {
    all += l;
    all += '\n';
  }
  const std::string pats[] = {"unordered_map", "unordered_set",
                              "unordered_multimap", "unordered_multiset"};
  for (const auto& pat : pats) {
    std::size_t pos = 0;
    while ((pos = all.find(pat, pos)) != std::string::npos) {
      std::size_t i = pos + pat.size();
      pos = i;
      while (i < all.size() &&
             std::isspace(static_cast<unsigned char>(all[i])) != 0)
        ++i;
      if (i >= all.size() || all[i] != '<') continue;  // include line etc.
      int depth = 0;
      for (; i < all.size(); ++i) {
        if (all[i] == '<') ++depth;
        if (all[i] == '>' && --depth == 0) break;
      }
      if (i >= all.size()) continue;
      ++i;  // past '>'
      // Skip refs/pointers/cv and whitespace before the declared name.
      for (;;) {
        while (i < all.size() &&
               (std::isspace(static_cast<unsigned char>(all[i])) != 0 ||
                all[i] == '&' || all[i] == '*'))
          ++i;
        if (all.compare(i, 5, "const") == 0 &&
            (i + 5 >= all.size() || !is_ident(all[i + 5]))) {
          i += 5;
          continue;
        }
        break;
      }
      std::string name;
      while (i < all.size() && is_ident(all[i])) name.push_back(all[i++]);
      if (!name.empty() &&
          std::isdigit(static_cast<unsigned char>(name[0])) == 0)
        vars.insert(name);
    }
  }
  return vars;
}

// The trailing identifier of a range-for's range expression: `m`,
// `obj.members` -> "members", `(*p).idx_` -> "idx_".
std::string trailing_ident(const std::string& expr) {
  std::string e = trim(expr);
  while (!e.empty() && (e.back() == ')' || e.back() == ' ')) e.pop_back();
  std::size_t i = e.size();
  while (i > 0 && is_ident(e[i - 1])) --i;
  return e.substr(i);
}

// ---------------------------------------------------------------------------
// R4/R8: module layering and include edges.

std::string module_of(const std::string& rel_path) {
  if (rel_path.rfind("src/", 0) == 0) {
    const std::size_t end = rel_path.find('/', 4);
    if (end != std::string::npos) return rel_path.substr(4, end - 4);
  }
  return "top";  // bench/, tests/, examples/, tools/ sit above every module
}

// Reachability closure of the declared DAG; throws on a declared cycle.
std::map<std::string, std::set<std::string>> dag_closure(
    const std::map<std::string, std::vector<std::string>>& dag) {
  std::map<std::string, std::set<std::string>> closure;
  std::map<std::string, int> state;  // 0 new, 1 visiting, 2 done
  struct Walk {
    const std::map<std::string, std::vector<std::string>>& dag;
    std::map<std::string, std::set<std::string>>& closure;
    std::map<std::string, int>& state;
    void operator()(const std::string& m) {
      if (state[m] == 2) return;
      if (state[m] == 1)
        throw std::runtime_error("declared module DAG has a cycle through '" +
                                 m + "'");
      state[m] = 1;
      auto it = dag.find(m);
      if (it != dag.end()) {
        for (const auto& dep : it->second) {
          if (dag.find(dep) == dag.end())
            throw std::runtime_error("declared DAG names unknown module '" +
                                     dep + "' (dep of '" + m + "')");
          (*this)(dep);
          closure[m].insert(dep);
          const auto& sub = closure[dep];
          closure[m].insert(sub.begin(), sub.end());
        }
      }
      state[m] = 2;
    }
  };
  Walk walk{dag, closure, state};
  for (const auto& [m, deps] : dag) walk(m);
  return closure;
}

// Full ntco include target on a raw line ("ntco/sim/simulator.hpp"), or ""
// — raw because the include path is a string/angle literal and the stripper
// blanks both.
std::string ntco_include_path(const std::string& raw) {
  // Only a real preprocessor directive counts: '#' must be the first
  // non-space character, so prose like `every #include <ntco/...> edge`
  // in a doc comment does not register an edge.
  std::size_t first = 0;
  while (first < raw.size() &&
         std::isspace(static_cast<unsigned char>(raw[first])) != 0)
    ++first;
  if (first >= raw.size() || raw[first] != '#') return "";
  std::size_t pos = raw.find("#include", first);
  if (pos != first) return "";
  pos = raw.find("ntco/", pos);
  if (pos == std::string::npos) return "";
  const std::size_t end = raw.find_first_of(">\"", pos);
  if (end == std::string::npos) return "";
  const std::string path = raw.substr(pos, end - pos);
  return path.find('/', 5) == std::string::npos ? "" : path;
}

// ---------------------------------------------------------------------------
// Directives: allow(...) suppressions.

struct Finding {
  int line;
  Rule rule;
  std::string message;
  std::string detail;  // fingerprint tail
};

struct Directive {
  int line = 0;  // 1-based line it sits on
  std::set<Rule> rules;
  std::string rules_text;
  std::string reason;
};

Rule parse_rule(const std::string& r, bool* ok) {
  *ok = true;
  if (r == "R1") return Rule::R1;
  if (r == "R2") return Rule::R2;
  if (r == "R3") return Rule::R3;
  if (r == "R4") return Rule::R4;
  if (r == "R5") return Rule::R5;
  if (r == "R7") return Rule::R7;
  if (r == "R8") return Rule::R8;
  *ok = false;
  return Rule::Sup;
}

// The marker is assembled at runtime so this file's own sources (which the
// lint scans) never contain the directive as a contiguous literal.
const std::string& marker() {
  static const std::string m = std::string("ntco-") + "lint:";
  return m;
}

void parse_directives(const std::vector<std::string>& raw,
                      std::vector<Directive>* dirs,
                      std::vector<Finding>* sup) {
  for (std::size_t li = 0; li < raw.size(); ++li) {
    const std::string& line = raw[li];
    std::size_t pos = line.find(marker());
    if (pos == std::string::npos) continue;
    // Directives live in plain `//` comments; a marker inside a `///` doc
    // comment is documentation (like the syntax example in lint.hpp), not
    // an active suppression.
    const std::size_t doc = line.find("///");
    if (doc != std::string::npos && doc < pos) continue;
    pos += marker().size();
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos])) != 0)
      ++pos;
    const int lineno = static_cast<int>(li + 1);
    const std::string allow_kw = "allow(";
    if (line.compare(pos, allow_kw.size(), allow_kw) != 0) continue;
    pos += allow_kw.size();
    const std::size_t close = line.find(')', pos);
    if (close == std::string::npos) continue;
    Directive d;
    d.line = lineno;
    d.rules_text = line.substr(pos, close - pos);
    std::stringstream ss(d.rules_text);
    std::string item;
    bool all_ok = !d.rules_text.empty();
    while (std::getline(ss, item, ',')) {
      bool ok = false;
      const Rule r = parse_rule(trim(item), &ok);
      if (ok)
        d.rules.insert(r);
      else
        all_ok = false;
    }
    d.reason = trim(line.substr(close + 1));
    if (!all_ok || d.rules.empty()) {
      sup->push_back({lineno, Rule::Sup,
                      "malformed suppression: unknown rule list '" +
                          d.rules_text + "'",
                      "bad-rules"});
      continue;
    }
    if (d.reason.empty()) {
      // Fail closed: a reasonless allow() is a diagnostic, not a licence.
      sup->push_back({lineno, Rule::Sup,
                      "suppression for (" + d.rules_text +
                          ") is missing its mandatory reason",
                      d.rules_text});
      continue;
    }
    dirs->push_back(std::move(d));
  }
}

// ---------------------------------------------------------------------------
// The per-file index: everything phase 2 needs.

struct IncludeEdge {
  int line = 0;
  std::string path;  // "ntco/MOD/name.hpp"
};

struct QualUse {
  std::string ns;   // left of '::', e.g. "sim"
  std::string sym;  // right of '::', e.g. "Simulator"
  int line = 0;     // first use
};

struct ObsUse {
  int line = 0;
  std::string api;   // emit | trace_event | counter | gauge | ...
  std::string name;  // the literal, e.g. "sim.event.fired"
};

struct FileIndex {
  std::string rel_path;
  std::string module;
  std::vector<Finding> local;  // R1 R2 R3 R5 + Sup findings
  std::vector<Directive> dirs;
  std::vector<IncludeEdge> includes;
  std::vector<std::string> declared;  // namespace-scope symbols (headers)
  std::vector<std::string> used;      // sorted unique identifiers used
  std::vector<QualUse> qualified;     // unique (ns, sym) uses
  std::vector<ObsUse> obs_uses;
};

// ---------------------------------------------------------------------------
// R8 support: namespace-scope symbols a header declares.
//
// Brace tracking distinguishes namespace braces ('n') from everything else
// ('b'); declarations are only collected while every open brace is a
// namespace. This is a heuristic, not a parser: over-collection only
// weakens stale-include detection (safe direction), and headers whose
// declarations we cannot see at all (empty set) are skipped by R8 entirely.

bool is_keyword_name(const std::string& n) {
  static const std::set<std::string> kw{
      "if",       "for",      "while",    "switch",   "return",
      "sizeof",   "alignof",  "decltype", "noexcept", "operator",
      "throw",    "catch",    "static_assert",        "defined",
      "new",      "delete",   "co_await", "requires", "alignas",
  };
  return kw.count(n) != 0;
}

// First identifier at or after `pos`, skipping [[attributes]].
std::string ident_after(const std::string& s, std::size_t pos) {
  while (pos < s.size()) {
    if (s.compare(pos, 2, "[[") == 0) {
      const std::size_t close = s.find("]]", pos);
      if (close == std::string::npos) return "";
      pos = close + 2;
      continue;
    }
    if (is_ident(s[pos]) &&
        std::isdigit(static_cast<unsigned char>(s[pos])) == 0)
      break;
    ++pos;
  }
  std::string name;
  while (pos < s.size() && is_ident(s[pos])) name.push_back(s[pos++]);
  return name;
}

void collect_decls_from_stmt(const std::string& stmt,
                             std::set<std::string>* out) {
  const std::string t = trim(stmt);
  if (t.empty() || t[0] == '#') return;

  // using X = ...;  /  using ns::X;  (never `using namespace ...`)
  if (t.rfind("using", 0) == 0 && (t.size() == 5 || !is_ident(t[5]))) {
    const std::string rest = trim(t.substr(5));
    if (rest.rfind("namespace", 0) == 0) return;
    const std::size_t eq = rest.find('=');
    std::string name;
    if (eq != std::string::npos) {
      name = trailing_ident(rest.substr(0, eq));
    } else {
      name = trailing_ident(rest);
    }
    if (!name.empty() && !is_keyword_name(name)) out->insert(name);
    return;
  }

  // class X / struct X / enum [class] X — skip template parameter uses
  // (`template <class T>`), where the keyword follows '<' or ','.
  for (const char* kw : {"class", "struct", "enum"}) {
    const std::string pat(kw);
    std::size_t pos = 0;
    while ((pos = t.find(pat, pos)) != std::string::npos) {
      const std::size_t end = pos + pat.size();
      const bool bounded =
          (pos == 0 || !is_ident(t[pos - 1])) &&
          (end >= t.size() || !is_ident(t[end]));
      std::size_t prev = pos;
      while (prev > 0 &&
             std::isspace(static_cast<unsigned char>(t[prev - 1])) != 0)
        --prev;
      const bool tmpl_param =
          prev > 0 && (t[prev - 1] == '<' || t[prev - 1] == ',');
      pos = end;
      if (!bounded || tmpl_param) continue;
      std::string name = ident_after(t, end);
      if (name == "class") name = ident_after(t, t.find("class", end) + 5);
      if (!name.empty() && name != "final" && !is_keyword_name(name))
        out->insert(name);
      break;
    }
  }

  // Free function: last identifier before the first '(' whose previous
  // non-space char closes a return type (identifier char, '>', '&', '*').
  const std::size_t paren = t.find('(');
  const std::size_t eq_top = t.find('=');
  if (paren != std::string::npos && paren > 0 &&
      (eq_top == std::string::npos || paren < eq_top)) {
    std::size_t e = paren;
    while (e > 0 && std::isspace(static_cast<unsigned char>(t[e - 1])) != 0)
      --e;
    std::size_t b = e;
    while (b > 0 && is_ident(t[b - 1])) --b;
    if (b < e) {
      std::size_t prev = b;
      while (prev > 0 &&
             std::isspace(static_cast<unsigned char>(t[prev - 1])) != 0)
        --prev;
      const bool typed_before =
          prev > 0 && (is_ident(t[prev - 1]) || t[prev - 1] == '>' ||
                       t[prev - 1] == '&' || t[prev - 1] == '*');
      const std::string name = t.substr(b, e - b);
      if (typed_before && !is_keyword_name(name) &&
          std::isdigit(static_cast<unsigned char>(name[0])) == 0)
        out->insert(name);
    }
    return;
  }

  // Namespace-scope constant: `inline constexpr int kFoo = ...`.
  if (eq_top != std::string::npos && eq_top > 0) {
    const std::string name = trailing_ident(t.substr(0, eq_top));
    if (!name.empty() && !is_keyword_name(name) &&
        std::isdigit(static_cast<unsigned char>(name[0])) == 0 &&
        t.find(' ') < eq_top)  // needs a type before the name
      out->insert(name);
  }
}

std::vector<std::string> declared_symbols(
    const std::vector<std::string>& raw,
    const std::vector<std::string>& code) {
  std::set<std::string> out;
  // Macros come from raw lines (the stripper keeps directives intact).
  for (const std::string& line : raw) {
    const std::string t = trim(line);
    if (t.rfind("#define", 0) != 0) continue;
    std::string name;
    std::size_t i = 7;
    while (i < t.size() &&
           std::isspace(static_cast<unsigned char>(t[i])) != 0)
      ++i;
    while (i < t.size() && is_ident(t[i])) name.push_back(t[i++]);
    if (!name.empty()) out.insert(name);
  }
  // Statement walk with namespace-aware brace tracking.
  std::string stack;  // 'n' = namespace brace, 'b' = anything else
  std::string stmt;
  int angle = 0;  // template-argument depth; ';' inside <> never happens
  int paren = 0;
  for (const std::string& line : code) {
    for (char c : line) {
      if (c == '<') ++angle;
      if (c == '>' && angle > 0) --angle;
      if (c == '(') ++paren;
      if (c == ')' && paren > 0) --paren;
      if (c == '{' && paren == 0) {
        bool ns = false;
        std::size_t np = stmt.find("namespace");
        while (np != std::string::npos) {
          const std::size_t ne = np + 9;
          if ((np == 0 || !is_ident(stmt[np - 1])) &&
              (ne >= stmt.size() || !is_ident(stmt[ne]))) {
            ns = true;
            break;
          }
          np = stmt.find("namespace", np + 1);
        }
        if (stack.find('b') == std::string::npos)
          collect_decls_from_stmt(stmt, &out);
        stack.push_back(ns ? 'n' : 'b');
        stmt.clear();
      } else if (c == '}' && paren == 0) {
        if (!stack.empty()) stack.pop_back();
        stmt.clear();
      } else if (c == ';' && paren == 0) {
        if (stack.find('b') == std::string::npos)
          collect_decls_from_stmt(stmt, &out);
        stmt.clear();
      } else {
        stmt.push_back(c);
      }
    }
    stmt.push_back(' ');
  }
  return {out.begin(), out.end()};
}

// All identifiers used in the stripped code, excluding #include lines
// (whose ntco/ paths would otherwise count every module name as "used").
std::vector<std::string> used_idents(const std::vector<std::string>& raw,
                                     const std::vector<std::string>& code) {
  std::set<std::string> out;
  for (std::size_t li = 0; li < code.size(); ++li) {
    if (trim(raw[li]).rfind("#include", 0) == 0) continue;
    const std::string& s = code[li];
    std::size_t i = 0;
    while (i < s.size()) {
      if (!is_ident(s[i])) {
        ++i;
        continue;
      }
      std::size_t b = i;
      while (i < s.size() && is_ident(s[i])) ++i;
      if (std::isdigit(static_cast<unsigned char>(s[b])) == 0)
        out.insert(s.substr(b, i - b));
    }
  }
  return {out.begin(), out.end()};
}

// Unique (ns, sym) pairs from `ns::sym` uses in the stripped code.
std::vector<QualUse> qualified_uses(const std::vector<std::string>& code) {
  std::map<std::pair<std::string, std::string>, int> firsts;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& s = code[li];
    std::size_t pos = 0;
    while ((pos = s.find("::", pos)) != std::string::npos) {
      std::size_t lb = pos;
      while (lb > 0 && is_ident(s[lb - 1])) --lb;
      std::size_t re = pos + 2;
      std::size_t rb = re;
      while (re < s.size() && is_ident(s[re])) ++re;
      const std::string ns = s.substr(lb, pos - lb);
      const std::string sym = s.substr(rb, re - rb);
      pos += 2;
      if (ns.empty() || sym.empty()) continue;
      if (std::isdigit(static_cast<unsigned char>(ns[0])) != 0) continue;
      firsts.emplace(std::make_pair(ns, sym), static_cast<int>(li + 1));
    }
  }
  std::vector<QualUse> out;
  out.reserve(firsts.size());
  for (const auto& [key, line] : firsts)
    out.push_back({key.first, key.second, line});
  return out;
}

// Telemetry call sites: api token followed by '(', first string literal in
// the next couple of raw lines (the stripper preserves columns, so the raw
// text at the same offset is the literal).
const char* kObsApis[] = {"emit",  "trace_event", "counter",
                          "gauge", "summary",     "histogram"};

std::vector<ObsUse> obs_call_sites(const std::vector<std::string>& raw,
                                   const std::vector<std::string>& code) {
  std::vector<ObsUse> out;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& s = code[li];
    for (const char* api : kObsApis) {
      std::size_t pos = 0, at = 0;
      while (match_member_call(s, api, pos, &at)) {
        pos = at + std::strlen(api);
        // Find the opening paren (match_member_call guarantees one).
        std::size_t open = s.find('(', at);
        // First '"' in the raw text from the paren, looking ahead at most
        // two more lines; stop when the call's closing paren is reached in
        // the stripped code (depth persists across lines).
        std::string name;
        bool found = false;
        bool closed = false;
        int depth = 1;
        std::size_t col = open + 1;
        for (std::size_t lj = li;
             lj < code.size() && lj < li + 3 && !found && !closed; ++lj) {
          const std::string& rawl = raw[lj];
          const std::string& codel = code[lj];
          for (std::size_t k = col; k < rawl.size(); ++k) {
            if (k < codel.size()) {
              if (codel[k] == '(') ++depth;
              if (codel[k] == ')' && --depth == 0) {
                closed = true;  // call ended with no literal
                break;
              }
            }
            if (rawl[k] == '"') {
              const std::size_t close = rawl.find('"', k + 1);
              if (close != std::string::npos) {
                name = rawl.substr(k + 1, close - k - 1);
                found = true;
              }
              break;
            }
          }
          col = 0;
        }
        if (found && !name.empty())
          out.push_back({static_cast<int>(li + 1), api, name});
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Phase 1: index one file.

FileIndex index_file(const Config& cfg, const std::string& rel_path,
                     const std::string& contents) {
  FileIndex ix;
  ix.rel_path = rel_path;
  ix.module = module_of(rel_path);

  const std::vector<std::string> raw = split_lines(contents);
  const std::vector<std::string> code = strip_code(raw);
  const std::set<std::string> uvars = unordered_vars(code);

  std::vector<Finding>& findings = ix.local;
  parse_directives(raw, &ix.dirs, &findings);

  const bool r1_allowed = starts_with_any(rel_path, cfg.r1_allow);
  const bool r3_allowed = starts_with_any(rel_path, cfg.r3_allow);

  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& s = code[li];
    const int line = static_cast<int>(li + 1);
    std::size_t at = 0;

    if (!r1_allowed) {
      for (const Token& t : kR1Tokens) {
        if (match_token(s, t, &at)) {
          findings.push_back({line, Rule::R1,
                              std::string("nondeterminism source '") + t.text +
                                  "' — route randomness through ntco::Rng "
                                  "and time through sim::Simulator::now()",
                              t.text});
          break;  // one R1 per line is enough signal
        }
      }
    }

    if (!r3_allowed) {
      for (const Token& t : kR3Tokens) {
        if (match_token(s, t, &at)) {
          findings.push_back({line, Rule::R3,
                              std::string("threading primitive '") + t.text +
                                  "' outside src/fleet/ — the fleet layer "
                                  "owns all concurrency",
                              t.text});
          break;
        }
      }
    }

    // R2: range-for over an unordered container, or an unordered
    // container's .begin()/.cbegin() inside a for-loop header. Sorted
    // extraction (copy out + sort, outside a for header) stays legal.
    if (!uvars.empty()) {
      const std::size_t fpos = s.find("for");
      const bool for_header =
          fpos != std::string::npos && left_ok(s, fpos) &&
          !(fpos + 3 < s.size() && is_ident(s[fpos + 3]));
      if (for_header) {
        const std::size_t open = s.find('(', fpos);
        // The range-for separator is the first ':' that is not part of a
        // '::' qualifier (e.g. `for (const std::string& k : keys)`).
        std::size_t colon = std::string::npos;
        for (std::size_t ci = fpos; ci < s.size(); ++ci) {
          if (s[ci] != ':') continue;
          if (ci + 1 < s.size() && s[ci + 1] == ':') {
            ++ci;  // skip both chars of '::'
            continue;
          }
          if (ci > 0 && s[ci - 1] == ':') continue;
          colon = ci;
          break;
        }
        bool flagged = false;
        if (open != std::string::npos && colon != std::string::npos &&
            colon > open) {
          std::size_t close = s.find_first_of(")", colon);
          const std::string expr = s.substr(
              colon + 1, (close == std::string::npos ? s.size() : close) -
                             colon - 1);
          const std::string id = trailing_ident(expr);
          if (uvars.count(id) != 0) {
            findings.push_back(
                {line, Rule::R2,
                 "iteration over unordered container '" + id +
                     "' — hash order is implementation-defined; extract "
                     "and sort first",
                 "range-for:" + id});
            flagged = true;
          }
        }
        if (!flagged) {
          for (const auto& v : uvars) {
            const std::string b1 = v + ".begin(";
            const std::string b2 = v + ".cbegin(";
            std::size_t bpos = s.find(b1, fpos);
            if (bpos == std::string::npos) bpos = s.find(b2, fpos);
            if (bpos != std::string::npos && left_ok(s, bpos)) {
              findings.push_back(
                  {line, Rule::R2,
                   "iterator loop over unordered container '" + v +
                       "' — hash order is implementation-defined",
                   "iter-loop:" + v});
              break;
            }
          }
        }
      }

      // R5: `+=` whose right-hand side reads out of an unordered
      // container; accumulation order then follows hash order.
      const std::size_t plus = s.find("+=");
      if (plus != std::string::npos) {
        const std::string rhs = s.substr(plus + 2);
        for (const auto& v : uvars) {
          std::size_t vp = 0;
          bool hit = false;
          while ((vp = rhs.find(v, vp)) != std::string::npos) {
            const std::size_t e = vp + v.size();
            if (left_ok(rhs, vp) && e < rhs.size() &&
                (rhs[e] == '[' || rhs.compare(e, 4, ".at(") == 0)) {
              hit = true;
              break;
            }
            vp = e;
          }
          if (hit) {
            findings.push_back(
                {line, Rule::R5,
                 "accumulating '" + v +
                     "' lookups with += — unordered visitation order makes "
                     "float sums run-dependent; accumulate in shard order",
                 v});
            break;
          }
        }
      }
    }

    // Include edges (cross-file rules R4/R8 consume these in phase 2).
    const std::string inc = ntco_include_path(raw[li]);
    if (!inc.empty()) ix.includes.push_back({line, inc});
  }

  // Cross-file raw material. Declared symbols are collected for every
  // file: headers feed the R8 stale/missing maps, and a .cpp's own
  // namespace-scope forward declarations satisfy R8 (IWYU accepts a
  // forward declaration for pointer/reference uses).
  ix.declared = declared_symbols(raw, code);
  ix.used = used_idents(raw, code);
  ix.qualified = qualified_uses(code);
  ix.obs_uses = obs_call_sites(raw, code);

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return ix;
}

// ---------------------------------------------------------------------------
// Phase 2: cross-file rules + suppression application.

const char* obs_kind_of_api(const std::string& api) {
  if (api == "emit" || api == "trace_event") return "trace";
  return api.c_str();  // counter/gauge/summary/histogram name their kind
}

void phase2(const Config& cfg,
            const std::map<std::string, std::set<std::string>>& closure,
            std::vector<FileIndex>& files, Report& out) {
  // --- R7 setup: the central telemetry-name registry.
  const std::string registry_rel = cfg.names_registry;
  const fs::path registry_path = fs::path(cfg.root) / registry_rel;
  const std::vector<ObsNameEntry> entries =
      load_names_registry(registry_path.string());
  std::map<std::string, const ObsNameEntry*> by_name;
  std::map<std::string, std::vector<Finding>> cross;  // rel_path -> findings
  bool registry_scanned = false;
  for (const FileIndex& ix : files)
    if (ix.rel_path == registry_rel) registry_scanned = true;
  for (const ObsNameEntry& e : entries) {
    if (!by_name.emplace(e.name, &e).second && registry_scanned) {
      cross[registry_rel].push_back(
          {e.line, Rule::R7,
           "registry declares telemetry name '" + e.name + "' more than once",
           "dup:" + e.name});
    }
  }
  std::set<std::string> names_used;

  // --- R8 setup: which header (by include key) declares which symbols.
  std::map<std::string, const FileIndex*> headers;  // "ntco/mod/x.hpp" -> ix
  for (const FileIndex& ix : files) {
    const std::size_t inc = ix.rel_path.find("include/");
    if (inc == std::string::npos || ix.declared.empty()) continue;
    headers.emplace(ix.rel_path.substr(inc + 8), &ix);
  }
  // symbol -> declaring header keys (restricted per-module at lookup time).
  std::map<std::string, std::vector<std::string>> declarer_keys;
  for (const auto& [key, ix] : headers)
    for (const std::string& sym : ix->declared) declarer_keys[sym].push_back(key);

  // --- Per-file cross-file findings.
  for (FileIndex& ix : files) {
    std::vector<Finding>& fs_out = cross[ix.rel_path];

    // R4: every ntco include must follow the declared module DAG.
    for (const IncludeEdge& e : ix.includes) {
      const std::size_t slash = e.path.find('/', 5);
      const std::string target =
          slash == std::string::npos ? "" : e.path.substr(5, slash - 5);
      if (target.empty() || ix.module == "top" || target == ix.module)
        continue;
      const auto mod_it = closure.find(ix.module);
      const bool known_mod = cfg.dag.find(ix.module) != cfg.dag.end();
      const bool known_target = cfg.dag.find(target) != cfg.dag.end();
      if (!known_mod || !known_target) {
        fs_out.push_back({e.line, Rule::R4,
                          "include edge " + ix.module + " -> " + target +
                              " involves a module absent from the declared "
                              "DAG — declare it in the layering config",
                          "unknown:" + ix.module + "->" + target});
      } else if (mod_it == closure.end() ||
                 mod_it->second.count(target) == 0) {
        fs_out.push_back({e.line, Rule::R4,
                          "layering violation: " + ix.module + " -> " + target +
                              " is a back-edge of the declared module DAG",
                          "edge:" + ix.module + "->" + target});
      }
    }

    // R7 call sites: every literal telemetry name must be registered with
    // the matching kind. Disabled when no registry exists (fixture trees).
    if (!entries.empty() && starts_with_any(ix.rel_path, cfg.r7_scope)) {
      for (const ObsUse& u : ix.obs_uses) {
        const std::string kind = obs_kind_of_api(u.api);
        auto it = by_name.find(u.name);
        if (it == by_name.end()) {
          fs_out.push_back({u.line, Rule::R7,
                            "telemetry name '" + u.name + "' (" + kind +
                                ") is not in the obs name registry — add an "
                                "NTCO_OBS_NAME row to " + registry_rel,
                            "name:" + u.name});
        } else {
          names_used.insert(u.name);
          if (it->second->kind != kind) {
            fs_out.push_back({u.line, Rule::R7,
                              "telemetry name '" + u.name +
                                  "' is registered as a " + it->second->kind +
                                  " but used here as a " + kind,
                              "kind:" + u.name});
          }
        }
      }
    }

    // R8: include hygiene over the declared/used index.
    if (starts_with_any(ix.rel_path, cfg.r8_scope)) {
      const std::set<std::string> used(ix.used.begin(), ix.used.end());
      std::set<std::string> direct;  // directly included header keys
      for (const IncludeEdge& e : ix.includes) direct.insert(e.path);

      // IWYU's associated-header exemption: foo.cpp's own foo.hpp
      // re-exports its direct includes, so the .cpp need not repeat them.
      if (ix.rel_path.size() > 4 &&
          ix.rel_path.compare(ix.rel_path.size() - 4, 4, ".cpp") == 0) {
        const std::size_t slash = ix.rel_path.rfind('/');
        const std::string stem = ix.rel_path.substr(
            slash + 1, ix.rel_path.size() - slash - 1 - 4);
        const std::string assoc = "ntco/" + ix.module + "/" + stem + ".hpp";
        if (direct.count(assoc) != 0) {
          auto ah = headers.find(assoc);
          if (ah != headers.end())
            for (const IncludeEdge& e : ah->second->includes)
              direct.insert(e.path);
        }
      }

      for (const IncludeEdge& e : ix.includes) {
        auto hit = headers.find(e.path);
        if (hit == headers.end() || hit->second == &ix) continue;
        bool any_used = false;
        for (const std::string& sym : hit->second->declared) {
          if (used.count(sym) != 0) {
            any_used = true;
            break;
          }
        }
        if (!any_used) {
          fs_out.push_back({e.line, Rule::R8,
                            "stale include " + e.path +
                                " — none of its declared symbols are used "
                                "in this file",
                            "stale:" + e.path});
        }
      }

      const std::string self_key = [&] {
        const std::size_t inc = ix.rel_path.find("include/");
        return inc == std::string::npos ? std::string()
                                        : ix.rel_path.substr(inc + 8);
      }();
      const std::set<std::string> self_declared(ix.declared.begin(),
                                                ix.declared.end());
      for (const QualUse& q : ix.qualified) {
        const std::string mod = q.ns == "ntco" ? "common" : q.ns;
        if (cfg.dag.find(mod) == cfg.dag.end()) continue;
        if (self_declared.count(q.sym) != 0) continue;
        auto dk = declarer_keys.find(q.sym);
        if (dk == declarer_keys.end()) continue;
        std::vector<std::string> in_mod;
        for (const std::string& key : dk->second) {
          const std::size_t slash = key.find('/', 5);
          if (slash != std::string::npos &&
              key.substr(5, slash - 5) == mod)
            in_mod.push_back(key);
        }
        if (in_mod.size() != 1) continue;  // ambiguous or foreign: skip
        const std::string& key = in_mod.front();
        if (key == self_key || direct.count(key) != 0) continue;
        // Re-exported by a directly included header? Then it is fine.
        bool reexported = false;
        for (const std::string& d : direct) {
          auto h = headers.find(d);
          if (h != headers.end() &&
              std::find(h->second->declared.begin(),
                        h->second->declared.end(),
                        q.sym) != h->second->declared.end()) {
            reexported = true;
            break;
          }
        }
        if (reexported) continue;
        fs_out.push_back({q.line, Rule::R8,
                          "uses " + q.ns + "::" + q.sym +
                              " without directly including its declaring "
                              "header " + key,
                          "missing:" + key});
      }
    }
  }

  // R7 dead names: only meaningful when the whole tree (including the
  // registry itself) was scanned — single-file analysis sees too little.
  if (registry_scanned) {
    for (const ObsNameEntry& e : entries) {
      if (names_used.count(e.name) != 0) continue;
      cross[registry_rel].push_back(
          {e.line, Rule::R7,
           "registry telemetry name '" + e.name + "' (" + e.kind +
               ") is emitted nowhere in the scanned tree — delete the dead "
               "row or wire up the emitter",
           "dead:" + e.name});
    }
  }

  // --- Assemble per-file, apply suppressions, track stale directives.
  for (FileIndex& ix : files) {
    std::vector<Finding> all = ix.local;
    auto extra = cross.find(ix.rel_path);
    if (extra != cross.end())
      all.insert(all.end(), extra->second.begin(), extra->second.end());
    std::stable_sort(all.begin(), all.end(),
                     [](const Finding& a, const Finding& b) {
                       return a.line < b.line;
                     });
    std::vector<char> dir_used(ix.dirs.size(), 0);
    for (const Finding& f : all) {
      if (f.rule != Rule::Sup) {
        bool hit = false;
        // Every covering directive is credited (no early break): directives
        // on consecutive lines each cover the next line, and crediting only
        // the first would mark the later one stale.
        for (std::size_t di = 0; di < ix.dirs.size(); ++di) {
          const Directive& d = ix.dirs[di];
          if ((f.line == d.line || f.line == d.line + 1) &&
              d.rules.count(f.rule) != 0) {
            dir_used[di] = 1;
            hit = true;
          }
        }
        if (hit) continue;
      }
      out.diagnostics.push_back({ix.rel_path, f.line, f.rule, f.message,
                                 ix.rel_path + "|" + rule_name(f.rule) + "|" +
                                     f.detail});
    }
    for (std::size_t di = 0; di < ix.dirs.size(); ++di) {
      const Directive& d = ix.dirs[di];
      out.suppressions.push_back({ix.rel_path, d.line, d.rules_text, d.reason});
      if (dir_used[di] == 0)
        out.stale_suppressions.push_back(
            {ix.rel_path, d.line, d.rules_text, d.reason});
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string o;
  o.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': o += "\\\""; break;
      case '\\': o += "\\\\"; break;
      case '\n': o += "\\n"; break;
      case '\t': o += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          o += buf;
        } else {
          o += c;
        }
    }
  }
  return o;
}

}  // namespace

const char* rule_name(Rule r) {
  switch (r) {
    case Rule::R1: return "R1";
    case Rule::R2: return "R2";
    case Rule::R3: return "R3";
    case Rule::R4: return "R4";
    case Rule::R5: return "R5";
    case Rule::R7: return "R7";
    case Rule::R8: return "R8";
    case Rule::Sup: break;
  }
  return "sup";
}

Config default_config(std::string root) {
  Config cfg;
  cfg.root = std::move(root);
  // Declared layering, bottom-up (see DESIGN.md "Static analysis &
  // determinism contract"): an include is legal iff its target is
  // reachable from the includer through these direct edges.
  cfg.dag = {
      {"common", {}},
      {"stats", {"common"}},
      {"dataplane", {"common"}},
      {"fleet", {"common", "dataplane"}},
      {"device", {"common"}},
      {"app", {"common", "obs"}},
      {"lint", {}},
      {"obs", {"stats"}},
      {"sim", {"obs"}},
      {"net", {"obs"}},
      {"fabric", {"sim", "net", "common", "obs"}},
      {"serverless", {"sim"}},
      {"edgesim", {"sim"}},
      {"profile", {"app", "stats"}},
      {"partition", {"app", "device"}},
      {"sched", {"serverless", "net", "device", "stats"}},
      {"alloc", {"serverless"}},
      {"core", {"alloc", "partition", "net", "app", "device"}},
      {"broker", {"core", "sched", "obs", "net"}},
      {"continuum",
       {"serverless", "edgesim", "net", "fabric", "sim", "core", "obs",
        "common"}},
      {"cicd", {"core", "profile"}},
  };
  return cfg;
}

void analyze_source(const Config& cfg, const std::string& rel_path,
                    const std::string& contents, Report& out) {
  const auto closure = dag_closure(cfg.dag);
  std::vector<FileIndex> one;
  one.push_back(index_file(cfg, rel_path, contents));
  phase2(cfg, closure, one, out);
  ++out.files_scanned;
}

Report run(const Config& cfg) {
  const auto closure = dag_closure(cfg.dag);
  Report rep;

  const std::set<std::string> exts{".hpp", ".cpp", ".h",
                                   ".cc",  ".hxx", ".cxx"};
  std::vector<fs::path> files;
  for (const auto& r : cfg.roots) {
    const fs::path base = fs::path(cfg.root) / r;
    if (fs::is_regular_file(base)) {
      files.push_back(base);
    } else if (fs::is_directory(base)) {
      for (const auto& e : fs::recursive_directory_iterator(base))
        if (e.is_regular_file() &&
            exts.count(e.path().extension().string()) != 0)
          files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());  // deterministic diagnostic order

  std::vector<FileIndex> index;
  index.reserve(files.size());
  for (const fs::path& p : files) {
    std::string rel = fs::relative(p, cfg.root).generic_string();
    if (starts_with_any(rel, cfg.exclude)) continue;
    std::ifstream in(p, std::ios::binary);
    if (!in) continue;
    std::ostringstream ss;
    ss << in.rdbuf();
    index.push_back(index_file(cfg, rel, ss.str()));
    ++rep.files_scanned;
  }

  phase2(cfg, closure, index, rep);
  return rep;
}

std::string to_json(const Report& report) {
  std::ostringstream o;
  o << "{\n";
  o << "  \"files_scanned\": " << report.files_scanned << ",\n";
  o << "  \"diagnostics_total\": " << report.diagnostics.size() << ",\n";
  o << "  \"suppressions\": " << report.suppressions.size() << ",\n";
  o << "  \"stale_suppressions\": " << report.stale_suppressions.size()
    << ",\n";
  o << "  \"diagnostics\": [";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    o << (i == 0 ? "\n" : ",\n");
    o << "    {\"file\": \"" << json_escape(d.file) << "\", \"line\": "
      << d.line << ", \"rule\": \"" << rule_name(d.rule)
      << "\", \"fingerprint\": \"" << json_escape(d.fingerprint)
      << "\", \"message\": \"" << json_escape(d.message) << "\"}";
  }
  o << (report.diagnostics.empty() ? "],\n" : "\n  ],\n");
  o << "  \"suppression_list\": [";
  for (std::size_t i = 0; i < report.suppressions.size(); ++i) {
    const Suppression& s = report.suppressions[i];
    o << (i == 0 ? "\n" : ",\n");
    o << "    {\"file\": \"" << json_escape(s.file) << "\", \"line\": "
      << s.line << ", \"rules\": \"" << json_escape(s.rules)
      << "\", \"reason\": \"" << json_escape(s.reason) << "\"}";
  }
  o << (report.suppressions.empty() ? "],\n" : "\n  ],\n");
  o << "  \"stale_suppression_list\": [";
  for (std::size_t i = 0; i < report.stale_suppressions.size(); ++i) {
    const Suppression& s = report.stale_suppressions[i];
    o << (i == 0 ? "\n" : ",\n");
    o << "    {\"file\": \"" << json_escape(s.file) << "\", \"line\": "
      << s.line << ", \"rules\": \"" << json_escape(s.rules) << "\"}";
  }
  o << (report.stale_suppressions.empty() ? "]\n" : "\n  ]\n");
  o << "}\n";
  return o.str();
}

// ---------------------------------------------------------------------------
// Telemetry-name registry.

std::vector<ObsNameEntry> load_names_registry(const std::string& path) {
  std::vector<ObsNameEntry> out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::vector<std::string> raw = split_lines(ss.str());
  const std::string row_kw = "NTCO_OBS_NAME";
  for (std::size_t li = 0; li < raw.size(); ++li) {
    const std::string& line = raw[li];
    const std::string t = trim(line);
    if (t.rfind("#define", 0) == 0) continue;  // the macro itself
    if (t.rfind("//", 0) == 0) continue;       // doc-comment example rows
    std::size_t pos = line.find(row_kw);
    if (pos == std::string::npos) continue;
    if (pos > 0 && is_ident(line[pos - 1])) continue;
    std::size_t open = line.find('(', pos + row_kw.size());
    if (open == std::string::npos) continue;
    // Join lines until the row's parens balance (rows are usually one line).
    std::string row = line.substr(open + 1);
    std::size_t lj = li;
    int depth = 1;
    std::string args;
    bool done = false;
    while (!done) {
      for (char c : row) {
        if (c == '(') ++depth;
        if (c == ')' && --depth == 0) {
          done = true;
          break;
        }
        args.push_back(c);
      }
      if (done) break;
      if (++lj >= raw.size()) break;
      row = raw[lj];
      args.push_back(' ');
    }
    if (!done) continue;
    // Split top-level commas into ident, kind, "name", "fields".
    std::vector<std::string> parts;
    {
      int d = 0;
      bool in_str = false;
      std::string cur;
      for (char c : args) {
        if (c == '"') in_str = !in_str;
        if (!in_str) {
          if (c == '(' || c == '<' || c == '{') ++d;
          if (c == ')' || c == '>' || c == '}') --d;
          if (c == ',' && d == 0) {
            parts.push_back(cur);
            cur.clear();
            continue;
          }
        }
        cur.push_back(c);
      }
      parts.push_back(cur);
    }
    if (parts.size() != 4) continue;
    const auto unquote = [](const std::string& s) {
      const std::string u = trim(s);
      if (u.size() >= 2 && u.front() == '"' && u.back() == '"')
        return u.substr(1, u.size() - 2);
      return u;
    };
    ObsNameEntry e;
    e.ident = trim(parts[0]);
    e.kind = trim(parts[1]);
    e.name = unquote(parts[2]);
    e.fields = unquote(parts[3]);
    e.line = static_cast<int>(li + 1);
    if (!e.ident.empty() && !e.kind.empty() && !e.name.empty())
      out.push_back(std::move(e));
  }
  return out;
}

std::string names_markdown(const std::vector<ObsNameEntry>& entries) {
  std::ostringstream o;
  o << "### Trace events\n\n"
    << "| Event | Fields |\n"
    << "|---|---|\n";
  for (const ObsNameEntry& e : entries)
    if (e.kind == "trace")
      o << "| `" << e.name << "` | " << (e.fields.empty() ? "—" : e.fields)
        << " |\n";
  static const std::pair<const char*, const char*> kKindHeadings[] = {
      {"counter", "Counters"},
      {"gauge", "Gauges"},
      {"summary", "Summaries"},
      {"histogram", "Histograms"},
  };
  for (const auto& [kind, heading] : kKindHeadings) {
    bool any = false;
    for (const ObsNameEntry& e : entries) any = any || e.kind == kind;
    if (!any) continue;
    o << "\n### " << heading << "\n\n"
      << "| Metric | Notes |\n"
      << "|---|---|\n";
    for (const ObsNameEntry& e : entries)
      if (e.kind == kind)
        o << "| `" << e.name << "` | " << (e.fields.empty() ? "—" : e.fields)
          << " |\n";
  }
  return o.str();
}

}  // namespace ntco::lint
