#include "trace.hpp"

#include <cstdio>

#include "clock.hpp"

namespace perfbench {

int Tracer::begin(const std::string& name) {
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.name = name;
  s.wall_start = wall_now();
  s.cpu_start = process_cpu_now();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.cpu_end = process_cpu_now();
  s.wall_end = wall_now();
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].children_cpu += s.cpu();
  }
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::self_cpu(int id) const {
  // Children run inside the parent one after another on the benchmark's
  // thread, so their coverage of the parent is the sum of their durations.
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.cpu() - s.children_cpu;
}

double Tracer::self_cpu_named(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += self_cpu(s.id);
  }
  return total;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                 "\"wall_s\": %.9f, \"cpu_s\": %.9f, \"self_cpu_s\": %.9f}%s\n",
                 s.id, s.parent, s.name.c_str(), s.wall(), s.cpu(),
                 self_cpu(s.id), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
