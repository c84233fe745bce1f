// In-memory spans for the traced run.
//
// Spans are taken only at coarse boundaries, from the benchmark's own code
// around its calls into the simulator: workload -> cell -> {fabric build, lb
// install, generator start, run_with_drain, summary}, and campaign ->
// {expand, run, report}. Each span records wall and process-CPU start/end and
// its parent's id; self time is duration minus the part its children cover.
// Per-packet hook calls are not spans: they are aggregated as count + ticks
// (clock.hpp CallStats) by the decorators in sim_cell.hpp.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  int id = 0;
  int parent = -1;  ///< -1 for a root span
  std::string name;
  double wall_start = 0, wall_end = 0;
  double cpu_start = 0, cpu_end = 0;
  double children_cpu = 0;  ///< CPU of the closed direct children

  double wall() const { return wall_end - wall_start; }
  double cpu() const { return cpu_end - cpu_start; }
};

class Tracer {
 public:
  /// Opens a span as a child of the innermost open span.
  int begin(const std::string& name);
  /// Closes span `id`, which must be the innermost open span.
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// CPU seconds of span `id` not covered by its direct children.
  double self_cpu(int id) const;

  /// Sum of self CPU over every span named `name`.
  double self_cpu_named(const std::string& name) const;

  /// Writes every span as one JSON document. Returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op, so untraced code paths share
/// the traced ones without paying for clocks.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const std::string& name)
      : t_(t), id_(t != nullptr ? t->begin(name) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
