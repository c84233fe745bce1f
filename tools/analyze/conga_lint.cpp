// conga-lint — domain-specific determinism lint for the CONGA simulator.
//
// The repo's regression oracle is bit-identical run digests (fct / trace /
// telemetry). Generic linters cannot see the rules that protect those
// digests, so this standalone checker encodes them:
//
//   wall-clock        — no std::chrono::{system,steady,high_resolution}_clock,
//                       time(), clock(), gettimeofday, ... in simulation code
//                       (bench timing harnesses are allowlisted by config).
//   ambient-rng       — no rand()/srand()/random()/std::random_device: all
//                       randomness flows from seeded sim::Rng streams.
//   raw-rng-engine    — no direct construction/naming of std engine types
//                       (std::mt19937 & friends) outside src/sim/random.*:
//                       per-component streams must come from the keyed
//                       Rng::stream_seed facility, never ad-hoc engines.
//   std-shuffle       — std::shuffle / random_shuffle are implementation-
//                       defined; use sim::shuffle (portable Fisher-Yates).
//   unordered-iter    — iterating a std::unordered_{map,set} yields
//                       platform/run-dependent order; in a codebase whose
//                       outputs are digested, any such loop is suspect
//                       unless justified (sorted afterwards, order-free
//                       accumulation) with a suppression comment.
//   ptr-keyed-map     — std::map/std::set keyed by pointer iterate in
//                       address order: ASLR-dependent, never deterministic.
//   telemetry-enum-drift — the telemetry EventType/Category enums are wire
//                       format and digest input; they must only ever be
//                       appended to. Checked against a golden list
//                       (tools/analyze/event_kinds.golden).
//
// Suppressions: a comment `conga-lint: allow(<rule>): <reason>` on the
// flagged line or the line above silences one finding; the reason is
// mandatory. `conga-lint: allow-file(<rule>): <reason>` near the top of a
// file waives the rule file-wide. The config file can allowlist whole paths
// (e.g. the bench timer harness for wall-clock).
//
// Modes:
//   conga_lint --root DIR [--config FILE] [--json OUT]   lint the tree
//   conga_lint --self-test DIR                           fixture corpus mode:
//       every finding must match an `expect(<rule>)` annotation and vice
//       versa — this is how the checker itself is regression-tested.
//   conga_lint --root DIR --update-golden                rewrite the golden
//       event-kind list after a deliberate (append-only) telemetry change.
//
// The tool is itself deterministic: sorted directory walks, no timestamps in
// the report.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "json/json.hpp"

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;  // repo-relative, '/'-separated
  int line = 0;
  std::string rule;
  std::string message;
};

struct Suppression {
  std::string file;
  int line = 0;
  std::string rule;
  std::string reason;
};

struct Config {
  // rule -> list of path prefixes where it is allowlisted.
  std::map<std::string, std::vector<std::string>> allow;
  std::vector<std::string> excludes;  // path prefixes skipped entirely
  std::string telemetry_header;      // for telemetry-enum-drift
  std::string golden_path;
};

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         std::equal(prefix.begin(), prefix.end(), s.begin());
}

// ---------------------------------------------------------------------------
// Source preprocessing: blank out comments and string/char literals so rule
// patterns never match inside them, while preserving line structure (every
// masked character becomes a space; newlines survive).
std::string strip_comments_and_strings(const std::string& src) {
  std::string out = src;
  enum class St { kCode, kLine, kBlock, kStr, kChar, kRaw };
  St st = St::kCode;
  std::string raw_delim;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char n = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && n == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   src[i - 1])) &&
                               src[i - 1] != '_'))) {
          // Raw string R"delim( ... )delim"
          std::size_t p = i + 2;
          raw_delim.clear();
          while (p < src.size() && src[p] != '(') raw_delim += src[p++];
          raw_delim = ")" + raw_delim + "\"";
          for (std::size_t k = i; k <= p && k < src.size(); ++k) out[k] = ' ';
          i = p;
          st = St::kRaw;
        } else if (c == '"') {
          st = St::kStr;
          out[i] = ' ';
        } else if (c == '\'' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   src[i - 1])) &&
                               src[i - 1] != '_'))) {
          // Char literal (the isalnum guard keeps digit separators like
          // 1'000'000 out of the string machinery).
          st = St::kChar;
          out[i] = ' ';
        }
        break;
      case St::kLine:
        if (c == '\n') {
          st = St::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case St::kBlock:
        if (c == '*' && n == '/') {
          st = St::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kStr:
        if (c == '\\' && n != '\0') {
          out[i] = ' ';
          if (n != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = St::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\' && n != '\0') {
          out[i] = ' ';
          if (n != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kRaw:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) out[i + k] = ' ';
          i += raw_delim.size() - 1;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

std::optional<std::string> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Template-argument helper: starting just past a '<', returns the first
// top-level template argument (up to a depth-0 ',' or '>').
std::string first_template_arg(const std::string& s, std::size_t after_lt) {
  int depth = 0;
  std::string arg;
  for (std::size_t i = after_lt; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '<' || c == '(' || c == '[') ++depth;
    if (c == '>' || c == ')' || c == ']') {
      if (depth == 0) break;
      --depth;
    }
    if (c == ',' && depth == 0) break;
    arg += c;
  }
  // trim
  const auto b = arg.find_first_not_of(" \t");
  const auto e = arg.find_last_not_of(" \t");
  if (b == std::string::npos) return "";
  return arg.substr(b, e - b + 1);
}

// ---------------------------------------------------------------------------
// One scanned file.
struct SourceFile {
  std::string rel;                  // repo-relative path
  std::vector<std::string> raw;     // original lines (for suppressions)
  std::vector<std::string> code;    // comment/string-stripped lines
};

const std::regex kWallClockRe(
    R"((system_clock|steady_clock|high_resolution_clock|gettimeofday|clock_gettime|timespec_get|\blocaltime\b|\bgmtime\b|\bmktime\b)|\btime\s*\(|\bclock\s*\(\s*\))");
const std::regex kAmbientRngRe(
    R"(\b(rand|srand|rand_r|drand48|lrand48|mrand48|random)\s*\(|random_device|\barc4random)");
const std::regex kRawEngineRe(
    R"(std\s*::\s*(mt19937(_64)?|minstd_rand0?|default_random_engine|ranlux(24|48)(_base)?|knuth_b|mersenne_twister_engine|linear_congruential_engine|subtract_with_carry_engine|discard_block_engine|independent_bits_engine|shuffle_order_engine)\b)");
const std::regex kStdShuffleRe(R"(std\s*::\s*(shuffle|random_shuffle)\b)");
const std::regex kUnorderedDeclRe(R"(\bunordered_(map|set)\s*<)");
const std::regex kUsingAliasRe(
    R"(\busing\s+(\w+)\s*=\s*[^;]*unordered_(map|set)\s*<)");
const std::regex kRangeForRe(R"(\bfor\s*\()");
const std::regex kAllowRe(
    R"(conga-lint:\s*allow\(([a-z0-9-]+)\)\s*:\s*(\S.*))");
const std::regex kAllowFileRe(
    R"(conga-lint:\s*allow-file\(([a-z0-9-]+)\)\s*:\s*(\S.*))");
const std::regex kExpectRe(R"(expect\(([a-z0-9-]+)\))");
const std::regex kIdentRe(R"(^[A-Za-z_]\w*$)");

// Identifier declared right after a (depth-balanced) unordered template or
// alias type: `<type> name [;={(]`.
std::optional<std::string> declared_name_after_type(const std::string& line,
                                                    std::size_t type_end) {
  std::size_t i = type_end;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                             line[i] == '&' || line[i] == '*')) {
    ++i;
  }
  std::string name;
  while (i < line.size() &&
         (std::isalnum(static_cast<unsigned char>(line[i])) ||
          line[i] == '_')) {
    name += line[i++];
  }
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (name.empty()) return std::nullopt;
  if (i >= line.size()) return name;  // declaration continued on next line
  const char c = line[i];
  if (c == ';' || c == '=' || c == '{' || c == '(' || c == ',') return name;
  return std::nullopt;
}

class Linter {
 public:
  explicit Linter(Config cfg, bool self_test)
      : cfg_(std::move(cfg)), self_test_(self_test) {}

  void add_file(SourceFile f) { files_.push_back(std::move(f)); }

  void run() {
    collect_tainted_names();
    for (const SourceFile& f : files_) scan_file(f);
    if (!cfg_.telemetry_header.empty()) check_enum_golden();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.file, a.line, a.rule) <
                       std::tie(b.file, b.line, b.rule);
              });
  }

  const std::vector<Finding>& findings() const { return findings_; }
  const std::vector<Suppression>& suppressions() const { return suppressed_; }
  const std::vector<std::string>& notices() const { return notices_; }
  std::size_t files_scanned() const { return files_.size(); }

  // For --update-golden.
  std::vector<std::string> current_golden_lines() const {
    return golden_lines_;
  }

 private:
  // Names declared anywhere in the scanned set with an unordered container
  // type (member or local) or an alias of one. Deliberately global and
  // over-approximate: a lint, not a type checker — false positives carry a
  // suppression comment with the justification, which is the documentation
  // we want at such loops anyway.
  void collect_tainted_names() {
    for (const SourceFile& f : files_) {
      std::vector<std::string> aliases;
      for (const std::string& line : f.code) {
        std::smatch m;
        std::string rest = line;
        if (std::regex_search(rest, m, kUsingAliasRe)) {
          aliases.push_back(m[1]);
          continue;
        }
        auto begin = std::sregex_iterator(line.begin(), line.end(),
                                          kUnorderedDeclRe);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
          const std::size_t lt = static_cast<std::size_t>(it->position()) +
                                 it->length();
          // Walk past the balanced template argument list.
          int depth = 1;
          std::size_t i = lt;
          while (i < line.size() && depth > 0) {
            if (line[i] == '<') ++depth;
            if (line[i] == '>') --depth;
            ++i;
          }
          if (depth != 0) continue;  // spans lines; next pass may catch decl
          if (auto name = declared_name_after_type(line, i)) {
            tainted_.insert(*name);
          }
        }
      }
      // Second pass: declarations using a local alias name.
      if (!aliases.empty()) {
        for (const std::string& a : aliases) {
          const std::regex alias_decl("\\b" + a + "\\s+(\\w+)\\s*[;={(]");
          for (const std::string& line : f.code) {
            std::smatch m;
            if (std::regex_search(line, m, alias_decl)) tainted_.insert(m[1]);
          }
          tainted_alias_types_.insert(a);
        }
      }
    }
  }

  bool path_allowlisted(const std::string& rule, const std::string& rel) const {
    auto it = cfg_.allow.find(rule);
    if (it == cfg_.allow.end()) return false;
    for (const std::string& prefix : it->second) {
      if (starts_with(rel, prefix)) return true;
    }
    return false;
  }

  // Emits unless suppressed by an inline/preceding-line/file-level allow.
  void emit(const SourceFile& f, int line_no, const std::string& rule,
            const std::string& message) {
    if (path_allowlisted(rule, f.rel)) return;
    // The flagged line itself, then any contiguous block of pure comment
    // lines directly above it (multi-line justifications are encouraged).
    for (int probe = line_no; probe >= 1; --probe) {
      const std::string& raw = f.raw[static_cast<std::size_t>(probe - 1)];
      if (probe != line_no) {
        const auto first = raw.find_first_not_of(" \t");
        if (first == std::string::npos ||
            raw.compare(first, 2, "//") != 0) {
          break;
        }
      }
      std::smatch m;
      if (std::regex_search(raw, m, kAllowRe) && m[1] == rule) {
        suppressed_.push_back(Suppression{f.rel, line_no, rule, m[2]});
        return;
      }
    }
    const int head = std::min<int>(static_cast<int>(f.raw.size()), 40);
    for (int l = 0; l < head; ++l) {
      std::smatch m;
      if (std::regex_search(f.raw[static_cast<std::size_t>(l)], m,
                            kAllowFileRe) &&
          m[1] == rule) {
        suppressed_.push_back(Suppression{f.rel, line_no, rule, m[2]});
        return;
      }
    }
    findings_.push_back(Finding{f.rel, line_no, rule, message});
  }

  void scan_file(const SourceFile& f) {
    const bool is_rng_home =
        f.rel == "src/sim/random.hpp" || f.rel == "src/sim/random.cpp";
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      const std::string& line = f.code[i];
      const int ln = static_cast<int>(i) + 1;
      std::smatch m;
      if (std::regex_search(line, m, kWallClockRe)) {
        emit(f, ln, "wall-clock",
             "wall-clock source in simulation code (digests must not depend "
             "on real time); bench timing harnesses belong on the config "
             "allowlist");
      }
      if (std::regex_search(line, m, kAmbientRngRe)) {
        emit(f, ln, "ambient-rng",
             "ambient randomness (" + m.str() +
                 "...) — all randomness must come from seeded sim::Rng "
                 "streams");
      }
      if (!is_rng_home && std::regex_search(line, m, kRawEngineRe)) {
        emit(f, ln, "raw-rng-engine",
             "std RNG engine named outside sim/random.* — derive "
             "per-component streams via sim::Rng::stream()/stream_seed()");
      }
      if (!is_rng_home && std::regex_search(line, m, kStdShuffleRe)) {
        emit(f, ln, "std-shuffle",
             "std::shuffle is implementation-defined across standard "
             "libraries; use sim::shuffle for stable golden results");
      }
      scan_ptr_keyed(f, ln, line);
      scan_unordered_iteration(f, ln, line);
    }
  }

  void scan_ptr_keyed(const SourceFile& f, int ln, const std::string& line) {
    static const std::regex kMapSetRe(
        R"(\b(map|set|unordered_map|unordered_set)\s*<)");
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kMapSetRe);
         it != std::sregex_iterator(); ++it) {
      const std::size_t after =
          static_cast<std::size_t>(it->position()) + it->length();
      const std::string key = first_template_arg(line, after);
      if (!key.empty() && key.back() == '*') {
        emit(f, ln, "ptr-keyed-map",
             "container keyed by pointer (" + key +
                 ") — iteration order follows the allocator/ASLR, never "
                 "deterministic across runs");
      }
    }
  }

  void scan_unordered_iteration(const SourceFile& f, int ln,
                                const std::string& line) {
    // Range-for whose range expression is/contains an unordered container.
    std::smatch m;
    if (std::regex_search(line, m, kRangeForRe)) {
      const std::size_t open =
          static_cast<std::size_t>(m.position()) + m.length() - 1;
      int depth = 0;
      std::size_t colon = std::string::npos;
      std::size_t close = std::string::npos;
      for (std::size_t i = open; i < line.size(); ++i) {
        const char c = line[i];
        if (c == '(' || c == '<' || c == '[') ++depth;
        if (c == ')' || c == '>' || c == ']') {
          --depth;
          if (depth == 0 && c == ')') {
            close = i;
            break;
          }
        }
        if (c == ':' && depth == 1 && colon == std::string::npos &&
            (i == 0 || line[i - 1] != ':') &&
            (i + 1 >= line.size() || line[i + 1] != ':')) {
          colon = i;
        }
      }
      if (colon != std::string::npos) {
        const std::size_t end = close == std::string::npos ? line.size()
                                                           : close;
        std::string range = line.substr(colon + 1, end - colon - 1);
        const auto b = range.find_first_not_of(" \t");
        const auto e = range.find_last_not_of(" \t");
        range = b == std::string::npos ? "" : range.substr(b, e - b + 1);
        if (range_is_unordered(range)) {
          emit(f, ln, "unordered-iter",
               "iteration over unordered container `" + range +
                   "` — order is hash/seed dependent; sort first or justify "
                   "with a suppression");
        }
      }
    }
    // Explicit iterator walk: tainted.begin()/cbegin().
    static const std::regex kBeginRe(R"((\w+)(\.|->)\s*c?begin\s*\()");
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kBeginRe);
         it != std::sregex_iterator(); ++it) {
      if (tainted_.count((*it)[1])) {
        emit(f, ln, "unordered-iter",
             "iterator over unordered container `" + (*it)[1].str() +
                 "` — order is hash/seed dependent; sort first or justify "
                 "with a suppression");
      }
    }
  }

  bool range_is_unordered(const std::string& range) const {
    if (range.empty()) return false;
    if (range.find("unordered_") != std::string::npos) return true;
    // Bare identifier, possibly trailing member access chain: check the
    // final component (x, obj.x, obj->x).
    std::string last = range;
    const auto dot = last.find_last_of('.');
    const auto arrow = last.rfind("->");
    if (arrow != std::string::npos &&
        (dot == std::string::npos || arrow + 1 > dot)) {
      last = last.substr(arrow + 2);
    } else if (dot != std::string::npos) {
      last = last.substr(dot + 1);
    }
    if (!std::regex_match(last, kIdentRe)) return false;
    return tainted_.count(last) > 0;
  }

  // -------------------------------------------------------------------------
  // telemetry-enum-drift: EventType / Category against the golden list.
  static std::vector<std::string> parse_enum(
      const std::vector<std::string>& code, const std::string& enum_name,
      int* start_line) {
    std::vector<std::string> out;
    const std::regex head("\\benum\\s+class\\s+" + enum_name + "\\b");
    bool in_enum = false;
    for (std::size_t i = 0; i < code.size(); ++i) {
      const std::string& line = code[i];
      if (!in_enum) {
        if (std::regex_search(line, head)) {
          in_enum = true;
          if (start_line != nullptr) *start_line = static_cast<int>(i) + 1;
        }
        continue;
      }
      static const std::regex enumerator(R"(^\s*(k\w+)\s*(=[^,]*)?[,}]?)");
      std::smatch m;
      if (std::regex_search(line, m, enumerator)) out.push_back(m[1]);
      if (line.find('}') != std::string::npos) break;
    }
    return out;
  }

  void check_enum_golden() {
    const SourceFile* hdr = nullptr;
    for (const SourceFile& f : files_) {
      if (f.rel == cfg_.telemetry_header) hdr = &f;
    }
    if (hdr == nullptr) {
      findings_.push_back(Finding{cfg_.telemetry_header, 1,
                                  "telemetry-enum-drift",
                                  "configured telemetry header not found in "
                                  "the scanned tree"});
      return;
    }
    int ev_line = 1;
    int cat_line = 1;
    std::vector<std::string> current;
    for (const std::string& e :
         parse_enum(hdr->code, "EventType", &ev_line)) {
      if (e != "kTypeCount") current.push_back("EventType " + e);
    }
    const std::size_t n_events = current.size();
    for (const std::string& c : parse_enum(hdr->code, "Category", &cat_line)) {
      if (c != "kCount") current.push_back("Category " + c);
    }
    golden_lines_ = current;
    if (current.empty() || n_events == 0) {
      findings_.push_back(Finding{hdr->rel, ev_line, "telemetry-enum-drift",
                                  "failed to parse EventType/Category "
                                  "enumerators"});
      return;
    }

    std::vector<std::string> golden;
    if (auto text = read_file(fs::path(cfg_.golden_path))) {
      for (const std::string& line : split_lines(*text)) {
        if (line.empty() || line[0] == '#') continue;
        golden.push_back(line);
      }
    } else {
      findings_.push_back(
          Finding{hdr->rel, ev_line, "telemetry-enum-drift",
                  "golden event-kind list missing (" + cfg_.golden_path +
                      "); create it with --update-golden"});
      return;
    }

    // Split golden into the two sections to enforce append-only per enum.
    auto check_section = [&](const char* prefix, int line_no) {
      std::vector<std::string> g, c;
      for (const std::string& s : golden) {
        if (starts_with(s, prefix)) g.push_back(s);
      }
      for (const std::string& s : current) {
        if (starts_with(s, prefix)) c.push_back(s);
      }
      if (g.size() > c.size()) {
        findings_.push_back(
            Finding{hdr->rel, line_no, "telemetry-enum-drift",
                    std::string(prefix) +
                        ": enumerators removed (wire names and digest values "
                        "of recorded traces would shift)"});
        return;
      }
      for (std::size_t i = 0; i < g.size(); ++i) {
        if (g[i] != c[i]) {
          findings_.push_back(
              Finding{hdr->rel, line_no, "telemetry-enum-drift",
                      std::string(prefix) + ": position " +
                          std::to_string(i) + " is `" + c[i] +
                          "` but golden says `" + g[i] +
                          "` — enums are append-only (existing numeric "
                          "values are digest/wire format)"});
          return;
        }
      }
      if (c.size() > g.size()) {
        notices_.push_back(
            std::string(prefix) + ": " + std::to_string(c.size() - g.size()) +
            " new enumerator(s) appended since the golden list; run "
            "`conga_lint --update-golden` to record them");
      }
    };
    check_section("EventType ", ev_line);
    check_section("Category ", cat_line);
  }

  Config cfg_;
  bool self_test_;
  std::vector<SourceFile> files_;
  std::set<std::string> tainted_;
  std::set<std::string> tainted_alias_types_;
  std::vector<Finding> findings_;
  std::vector<Suppression> suppressed_;
  std::vector<std::string> notices_;
  std::vector<std::string> golden_lines_;
};

// ---------------------------------------------------------------------------
Config load_config(const fs::path& path, const fs::path& root) {
  Config cfg;
  auto text = read_file(path);
  if (!text) return cfg;
  for (const std::string& raw : split_lines(*text)) {
    std::string line = raw.substr(0, raw.find('#'));
    std::istringstream ss(line);
    std::string verb;
    ss >> verb;
    if (verb == "allow") {
      std::string rule, prefix;
      ss >> rule >> prefix;
      if (!rule.empty() && !prefix.empty()) cfg.allow[rule].push_back(prefix);
    } else if (verb == "exclude") {
      std::string prefix;
      while (ss >> prefix) cfg.excludes.push_back(prefix);
    } else if (verb == "telemetry-header") {
      ss >> cfg.telemetry_header;
    } else if (verb == "golden") {
      std::string rel;
      ss >> rel;
      cfg.golden_path = (root / rel).string();
    }
  }
  return cfg;
}

void write_json_report(const Linter& lint, const std::string& out_path) {
  using conga::json::Json;
  Json findings = Json::array();
  for (const Finding& f : lint.findings()) {
    Json e = Json::object();
    e.set("file", Json::string(f.file));
    e.set("line", Json::integer(f.line));
    e.set("rule", Json::string(f.rule));
    e.set("message", Json::string(f.message));
    findings.push_back(std::move(e));
  }
  Json suppressed = Json::array();
  for (const Suppression& s : lint.suppressions()) {
    Json e = Json::object();
    e.set("file", Json::string(s.file));
    e.set("line", Json::integer(s.line));
    e.set("rule", Json::string(s.rule));
    e.set("reason", Json::string(s.reason));
    suppressed.push_back(std::move(e));
  }
  Json notices = Json::array();
  for (const std::string& n : lint.notices()) {
    notices.push_back(Json::string(n));
  }
  Json doc = Json::object();
  doc.set("tool", Json::string("conga-lint"));
  doc.set("schema", Json::string("conga-lint-v1"));
  doc.set("files_scanned", Json::uinteger(lint.files_scanned()));
  doc.set("findings", std::move(findings));
  doc.set("suppressed", std::move(suppressed));
  doc.set("notices", std::move(notices));

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "conga-lint: cannot write %s\n", out_path.c_str());
    return;
  }
  std::fputs(doc.dump_pretty().c_str(), out);
  std::fclose(out);
}

bool has_source_ext(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".cpp" || e == ".hpp" || e == ".h" || e == ".cc";
}

std::vector<fs::path> collect_sources(const fs::path& root,
                                      const std::vector<std::string>& roots,
                                      const Config& cfg) {
  std::vector<fs::path> out;
  for (const std::string& r : roots) {
    const fs::path dir = root / r;
    if (!fs::exists(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      const std::string rel =
          fs::relative(it->path(), root).generic_string();
      bool excluded = false;
      for (const std::string& prefix : cfg.excludes) {
        if (starts_with(rel, prefix)) excluded = true;
      }
      if (excluded) {
        if (it->is_directory()) it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && has_source_ext(it->path())) {
        out.push_back(it->path());
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

int run_self_test(const fs::path& dir) {
  Config cfg = load_config(dir / "lint.conf", dir);
  Linter lint(cfg, /*self_test=*/true);
  std::vector<std::pair<std::string, std::vector<std::string>>> raws;
  std::vector<fs::path> paths;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && has_source_ext(e.path())) {
      paths.push_back(e.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    auto text = read_file(p);
    if (!text) continue;
    SourceFile f;
    f.rel = fs::relative(p, dir).generic_string();
    f.raw = split_lines(*text);
    f.code = split_lines(strip_comments_and_strings(*text));
    raws.emplace_back(f.rel, f.raw);
    lint.add_file(std::move(f));
  }
  lint.run();

  // Expected: every `expect(rule)` annotation, keyed (file, line, rule).
  std::set<std::string> expected;
  for (const auto& [rel, lines] : raws) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                          kExpectRe);
           it != std::sregex_iterator(); ++it) {
        expected.insert(rel + ":" + std::to_string(i + 1) + ":" +
                        (*it)[1].str());
      }
    }
  }
  std::set<std::string> got;
  for (const Finding& f : lint.findings()) {
    got.insert(f.file + ":" + std::to_string(f.line) + ":" + f.rule);
  }
  int status = 0;
  for (const std::string& e : expected) {
    if (!got.count(e)) {
      std::fprintf(stderr, "self-test: MISSED expected diagnostic %s\n",
                   e.c_str());
      status = 1;
    }
  }
  for (const std::string& g : got) {
    if (!expected.count(g)) {
      std::fprintf(stderr, "self-test: UNEXPECTED diagnostic %s\n", g.c_str());
      status = 1;
    }
  }
  std::printf("conga-lint self-test: %zu fixture file(s), %zu expected, "
              "%zu found — %s\n",
              raws.size(), expected.size(), got.size(),
              status == 0 ? "OK" : "MISMATCH");
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::string config_path;
  std::string json_out;
  std::string self_test_dir;
  bool update_golden = false;
  std::vector<std::string> scan_roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--root") {
      root = next();
    } else if (arg == "--config") {
      config_path = next();
    } else if (arg == "--json") {
      json_out = next();
    } else if (arg == "--self-test") {
      self_test_dir = next();
    } else if (arg == "--update-golden") {
      update_golden = true;
    } else if (arg == "-h" || arg == "--help") {
      std::printf(
          "usage: conga_lint [--root DIR] [--config FILE] [--json OUT]\n"
          "                  [--update-golden] [--self-test FIXTURE_DIR]\n"
          "                  [scan-roots...]\n");
      return 0;
    } else {
      scan_roots.push_back(arg);
    }
  }

  if (!self_test_dir.empty()) return run_self_test(self_test_dir);

  if (config_path.empty()) {
    config_path = (root / "tools/analyze/conga_lint.conf").string();
  }
  Config cfg = load_config(config_path, root);
  if (scan_roots.empty()) {
    scan_roots = {"src", "tools", "bench", "tests", "examples"};
  }

  Linter lint(cfg, /*self_test=*/false);
  for (const fs::path& p : collect_sources(root, scan_roots, cfg)) {
    auto text = read_file(p);
    if (!text) continue;
    SourceFile f;
    f.rel = fs::relative(p, root).generic_string();
    f.raw = split_lines(*text);
    f.code = split_lines(strip_comments_and_strings(*text));
    lint.add_file(std::move(f));
  }
  lint.run();

  if (update_golden) {
    if (cfg.golden_path.empty()) {
      std::fprintf(stderr, "conga-lint: no `golden` path configured\n");
      return 2;
    }
    std::FILE* out = std::fopen(cfg.golden_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "conga-lint: cannot write %s\n",
                   cfg.golden_path.c_str());
      return 2;
    }
    std::fprintf(out,
                 "# Golden telemetry event-kind list — append-only contract.\n"
                 "# Regenerate ONLY for deliberate appends:\n"
                 "#   conga_lint --root . --update-golden\n"
                 "# Reordering, renaming, or removing entries is a lint "
                 "error: enumerator\n# values feed the trace digest and the "
                 "exporter wire format.\n");
    for (const std::string& line : lint.current_golden_lines()) {
      std::fprintf(out, "%s\n", line.c_str());
    }
    std::fclose(out);
    std::printf("conga-lint: wrote %zu entries to %s\n",
                lint.current_golden_lines().size(), cfg.golden_path.c_str());
    return 0;
  }

  for (const Finding& f : lint.findings()) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  for (const std::string& n : lint.notices()) {
    std::fprintf(stderr, "conga-lint: notice: %s\n", n.c_str());
  }
  if (!json_out.empty()) write_json_report(lint, json_out);
  std::printf(
      "conga-lint: %zu file(s), %zu finding(s), %zu suppression(s)%s\n",
      lint.files_scanned(), lint.findings().size(),
      lint.suppressions().size(),
      lint.findings().empty() ? " — clean" : "");
  return lint.findings().empty() ? 0 : 1;
}
