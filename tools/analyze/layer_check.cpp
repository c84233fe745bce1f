// layer_check — include-graph layering checker for the CONGA simulator.
//
// The repo declares an ordered layer DAG in tools/analyze/layers.conf
// (bottom -> top). Every in-tree source file is assigned to exactly one
// layer by longest-prefix path match; an #include edge is legal only when
// it points at the same layer or a *lower* one. Two extra mechanisms keep
// the rule honest rather than aspirational:
//
//   crosscutting <prefix>... — modules (debug assertions, telemetry) that
//       any *implementation* file (.cpp/.cc) may include regardless of its
//       layer. Headers still obey strict ordering, so crosscutting calls
//       never leak into lower-layer interfaces.
//   except <from> <to>       — grandfathered edges, reported but not fatal.
//       The current tree needs none; the mechanism exists so a future
//       regression can be ratcheted instead of reverted blind.
//
// Independent of the layer ordering, the checker runs Tarjan SCC over the
// whole include graph: any cycle (including a new one inside a single
// layer) is an error, as is a file no layer claims — the config must be
// maintained alongside the tree, not drift from it.
//
// Modes:
//   layer_check --root DIR [--config FILE] [--json OUT]    check the tree
//   layer_check --root FIXTURE_DIR --config ... --expect EXPECTED_FILE
//       self-test: canonical violation lines must match the expected file
//       exactly (this is how the checker itself is regression-tested).
#include <algorithm>
#include <cstdio>
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

struct Layer {
  std::string name;
  int rank = 0;                       // position in the declared order
  std::vector<std::string> prefixes;  // repo-relative paths ('/'-separated)
};

struct LayerConfig {
  std::vector<Layer> layers;
  std::vector<std::string> crosscutting;        // module prefixes
  std::set<std::pair<std::string, std::string>> exceptions;
  std::vector<std::string> scan_roots;
  std::vector<std::string> excludes;
};

struct Violation {
  std::string kind;  // back-edge | cycle | unassigned | self-include
  std::string detail;
};

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         std::equal(prefix.begin(), prefix.end(), s.begin());
}

std::optional<std::string> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

LayerConfig load_config(const fs::path& path) {
  LayerConfig cfg;
  auto text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "layer_check: cannot read config %s\n",
                 path.string().c_str());
    std::exit(2);
  }
  std::istringstream all(*text);
  std::string raw;
  int rank = 0;
  while (std::getline(all, raw)) {
    const std::string line = raw.substr(0, raw.find('#'));
    std::istringstream ss(line);
    std::string verb;
    ss >> verb;
    if (verb == "layer") {
      Layer l;
      ss >> l.name;
      l.rank = rank++;
      std::string p;
      while (ss >> p) l.prefixes.push_back(p);
      if (l.name.empty() || l.prefixes.empty()) {
        std::fprintf(stderr, "layer_check: bad layer line: %s\n", raw.c_str());
        std::exit(2);
      }
      cfg.layers.push_back(std::move(l));
    } else if (verb == "crosscutting") {
      std::string p;
      while (ss >> p) cfg.crosscutting.push_back(p);
    } else if (verb == "except") {
      std::string from, to;
      ss >> from >> to;
      cfg.exceptions.emplace(from, to);
    } else if (verb == "scan") {
      std::string p;
      while (ss >> p) cfg.scan_roots.push_back(p);
    } else if (verb == "exclude") {
      std::string p;
      while (ss >> p) cfg.excludes.push_back(p);
    } else if (!verb.empty()) {
      std::fprintf(stderr, "layer_check: unknown directive `%s`\n",
                   verb.c_str());
      std::exit(2);
    }
  }
  if (cfg.scan_roots.empty()) {
    cfg.scan_roots = {"src", "tools", "bench", "tests", "examples"};
  }
  return cfg;
}

// Longest-prefix layer assignment; exact file entries beat directory
// prefixes because they are longer strings.
const Layer* layer_of(const LayerConfig& cfg, const std::string& rel) {
  const Layer* best = nullptr;
  std::size_t best_len = 0;
  for (const Layer& l : cfg.layers) {
    for (const std::string& p : l.prefixes) {
      if (starts_with(rel, p) && p.size() >= best_len) {
        best = &l;
        best_len = p.size();
      }
    }
  }
  return best;
}

bool is_crosscutting_target(const LayerConfig& cfg, const std::string& rel) {
  for (const std::string& p : cfg.crosscutting) {
    if (starts_with(rel, p)) return true;
  }
  return false;
}

bool is_impl_file(const std::string& rel) {
  return rel.size() > 4 && (rel.rfind(".cpp") == rel.size() - 4 ||
                            rel.rfind(".cc") == rel.size() - 3);
}

bool has_source_ext(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".cpp" || e == ".hpp" || e == ".h" || e == ".cc";
}

// ---------------------------------------------------------------------------
struct Graph {
  std::vector<std::string> files;                    // sorted, index = node id
  std::map<std::string, int> id;
  std::vector<std::vector<int>> edges;               // includes
  std::vector<std::pair<int, int>> edge_lines;       // parallel: line numbers
};

const std::regex kIncludeRe("^\\s*#\\s*include\\s*\"([^\"]+)\"");

// Resolve a quoted include against the repo layout: relative to the
// including file first (matching the compiler's search), then the public
// include roots used in target_include_directories (src/, repo root).
std::optional<std::string> resolve_include(const fs::path& root,
                                           const std::string& includer_rel,
                                           const std::string& inc) {
  const fs::path includer_dir = fs::path(includer_rel).parent_path();
  const fs::path candidates[] = {
      includer_dir / inc,
      fs::path("src") / inc,
      fs::path(inc),
  };
  for (const fs::path& c : candidates) {
    if (fs::exists(root / c)) {
      return c.lexically_normal().generic_string();
    }
  }
  return std::nullopt;  // external/system header
}

Graph build_graph(const fs::path& root, const LayerConfig& cfg) {
  Graph g;
  std::vector<fs::path> paths;
  for (const std::string& r : cfg.scan_roots) {
    const fs::path dir = root / r;
    if (!fs::exists(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      const std::string rel = fs::relative(it->path(), root).generic_string();
      bool excluded = false;
      for (const std::string& prefix : cfg.excludes) {
        if (starts_with(rel, prefix)) excluded = true;
      }
      if (excluded) {
        if (it->is_directory()) it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && has_source_ext(it->path())) {
        paths.push_back(it->path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    const std::string rel = fs::relative(p, root).generic_string();
    g.id.emplace(rel, static_cast<int>(g.files.size()));
    g.files.push_back(rel);
  }
  g.edges.resize(g.files.size());
  for (std::size_t u = 0; u < g.files.size(); ++u) {
    auto text = read_file(root / g.files[u]);
    if (!text) continue;
    std::istringstream ss(*text);
    std::string line;
    int line_no = 0;
    while (std::getline(ss, line)) {
      ++line_no;
      std::smatch m;
      if (!std::regex_search(line, m, kIncludeRe)) continue;
      auto target = resolve_include(root, g.files[u], m[1]);
      if (!target) continue;
      auto it = g.id.find(*target);
      if (it == g.id.end()) continue;  // resolved outside the scanned set
      g.edges[u].push_back(it->second);
      g.edge_lines.emplace_back(static_cast<int>(u), line_no);
    }
  }
  return g;
}

// Tarjan strongly-connected components; any SCC with >1 node is a cycle.
struct Tarjan {
  const Graph& g;
  std::vector<int> index, low, comp;
  std::vector<bool> on_stack;
  std::vector<int> stack;
  int next_index = 0, next_comp = 0;
  std::vector<std::vector<int>> sccs;

  explicit Tarjan(const Graph& graph)
      : g(graph),
        index(graph.files.size(), -1),
        low(graph.files.size(), 0),
        comp(graph.files.size(), -1),
        on_stack(graph.files.size(), false) {
    for (std::size_t v = 0; v < g.files.size(); ++v) {
      if (index[v] == -1) strongconnect(static_cast<int>(v));
    }
  }

  // Iterative DFS: fixture trees are tiny but the real tree is ~150 files
  // and header chains can be deep; no recursion-depth gamble.
  void strongconnect(int v0) {
    struct Frame {
      int v;
      std::size_t edge = 0;
    };
    std::vector<Frame> frames{{v0}};
    index[v0] = low[v0] = next_index++;
    stack.push_back(v0);
    on_stack[v0] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.edge < g.edges[static_cast<std::size_t>(f.v)].size()) {
        const int w = g.edges[static_cast<std::size_t>(f.v)][f.edge++];
        if (index[w] == -1) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back(Frame{w});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          std::vector<int> scc;
          int w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            comp[w] = next_comp;
            scc.push_back(w);
          } while (w != f.v);
          ++next_comp;
          if (scc.size() > 1) sccs.push_back(std::move(scc));
        }
        const int v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::string config_path;
  std::string json_out;
  std::string expect_path;
  bool list_layers = false;

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
    } else if (arg == "--expect") {
      expect_path = next();
    } else if (arg == "--list") {
      list_layers = true;
    } else if (arg == "-h" || arg == "--help") {
      std::printf(
          "usage: layer_check [--root DIR] [--config FILE] [--json OUT]\n"
          "                   [--expect FILE] [--list]\n");
      return 0;
    } else {
      std::fprintf(stderr, "layer_check: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (config_path.empty()) {
    config_path = (root / "tools/analyze/layers.conf").string();
  }
  const LayerConfig cfg = load_config(fs::path(config_path));
  const Graph g = build_graph(root, cfg);

  if (list_layers) {
    std::map<std::string, int> counts;
    for (const std::string& f : g.files) {
      const Layer* l = layer_of(cfg, f);
      ++counts[l != nullptr ? l->name : "<unassigned>"];
    }
    for (const Layer& l : cfg.layers) {
      std::printf("%2d %-10s %d file(s)\n", l.rank, l.name.c_str(),
                  counts[l.name]);
    }
    if (counts.count("<unassigned>")) {
      std::printf("   %-10s %d file(s)\n", "<unassigned>",
                  counts["<unassigned>"]);
    }
    return 0;
  }

  std::vector<Violation> violations;
  std::size_t edges_checked = 0;
  std::size_t exempt_crosscut = 0;
  std::size_t grandfathered = 0;

  for (const std::string& f : g.files) {
    if (layer_of(cfg, f) == nullptr) {
      violations.push_back(
          {"unassigned",
           f + " matches no layer prefix in the config — assign it (the "
               "layer map must track the tree)"});
    }
  }

  std::size_t edge_idx = 0;
  for (std::size_t u = 0; u < g.files.size(); ++u) {
    const std::string& from = g.files[u];
    const Layer* lf = layer_of(cfg, from);
    for (std::size_t k = 0; k < g.edges[u].size(); ++k, ++edge_idx) {
      const std::string& to = g.files[static_cast<std::size_t>(g.edges[u][k])];
      const int line = g.edge_lines[edge_idx].second;
      ++edges_checked;
      if (to == from) {
        violations.push_back({"self-include", from + " includes itself"});
        continue;
      }
      const Layer* lt = layer_of(cfg, to);
      if (lf == nullptr || lt == nullptr) continue;  // reported above
      if (lf->rank >= lt->rank) continue;            // same or downward: fine
      if (is_crosscutting_target(cfg, to) && is_impl_file(from)) {
        ++exempt_crosscut;
        continue;
      }
      if (cfg.exceptions.count({from, to})) {
        ++grandfathered;
        std::fprintf(stderr,
                     "layer_check: grandfathered back-edge %s -> %s\n",
                     from.c_str(), to.c_str());
        continue;
      }
      violations.push_back(
          {"back-edge", from + ":" + std::to_string(line) + " (" + lf->name +
                            ") includes " + to + " (" + lt->name +
                            "): upward include crosses the declared layer "
                            "order"});
    }
  }

  const Tarjan tarjan(g);
  for (const std::vector<int>& scc : tarjan.sccs) {
    std::vector<std::string> names;
    names.reserve(scc.size());
    for (const int v : scc) names.push_back(g.files[static_cast<std::size_t>(v)]);
    std::sort(names.begin(), names.end());
    std::string detail = "include cycle: ";
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i != 0) detail += " <-> ";
      detail += names[i];
    }
    violations.push_back({"cycle", detail});
  }

  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.kind, a.detail) < std::tie(b.kind, b.detail);
            });

  if (!json_out.empty()) {
    using conga::json::Json;
    Json list = Json::array();
    for (const Violation& v : violations) {
      Json e = Json::object();
      e.set("kind", Json::string(v.kind));
      e.set("detail", Json::string(v.detail));
      list.push_back(std::move(e));
    }
    Json doc = Json::object();
    doc.set("tool", Json::string("layer-check"));
    doc.set("schema", Json::string("layer-check-v1"));
    doc.set("files", Json::uinteger(g.files.size()));
    doc.set("edges_checked", Json::uinteger(edges_checked));
    doc.set("crosscutting_exemptions", Json::uinteger(exempt_crosscut));
    doc.set("grandfathered", Json::uinteger(grandfathered));
    doc.set("violations", std::move(list));
    std::FILE* out = std::fopen(json_out.c_str(), "w");
    if (out != nullptr) {
      std::fputs(doc.dump_pretty().c_str(), out);
      std::fclose(out);
    } else {
      std::fprintf(stderr, "layer_check: cannot write %s\n", json_out.c_str());
    }
  }

  if (!expect_path.empty()) {
    // Self-test: canonical "kind detail" lines vs the expected file.
    std::vector<std::string> got;
    got.reserve(violations.size());
    for (const Violation& v : violations) got.push_back(v.kind + " " + v.detail);
    std::vector<std::string> want;
    if (auto text = read_file(fs::path(expect_path))) {
      std::istringstream ss(*text);
      std::string line;
      while (std::getline(ss, line)) {
        if (!line.empty() && line[0] != '#') want.push_back(line);
      }
    } else {
      std::fprintf(stderr, "layer_check: cannot read %s\n",
                   expect_path.c_str());
      return 2;
    }
    int status = 0;
    for (const std::string& w : want) {
      if (std::find(got.begin(), got.end(), w) == got.end()) {
        std::fprintf(stderr, "self-test: MISSED expected violation: %s\n",
                     w.c_str());
        status = 1;
      }
    }
    for (const std::string& gline : got) {
      if (std::find(want.begin(), want.end(), gline) == want.end()) {
        std::fprintf(stderr, "self-test: UNEXPECTED violation: %s\n",
                     gline.c_str());
        status = 1;
      }
    }
    std::printf("layer_check self-test: %zu expected, %zu found — %s\n",
                want.size(), got.size(), status == 0 ? "OK" : "MISMATCH");
    return status;
  }

  for (const Violation& v : violations) {
    std::fprintf(stderr, "[%s] %s\n", v.kind.c_str(), v.detail.c_str());
  }
  std::printf(
      "layer_check: %zu file(s), %zu edge(s), %zu crosscutting exemption(s), "
      "%zu violation(s)%s\n",
      g.files.size(), edges_checked, exempt_crosscut, violations.size(),
      violations.empty() ? " — clean" : "");
  return violations.empty() ? 0 : 1;
}
