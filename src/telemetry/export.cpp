#include "telemetry/export.hpp"

#include <bit>
#include <cinttypes>
#include <vector>

#include "json/json.hpp"

namespace conga::telemetry {

namespace {

void write_event_jsonl(std::FILE* out, const TraceSink& sink,
                       const Event& e) {
  std::fprintf(out, "{\"t\":%" PRId64 ",\"seq\":%" PRIu64 ",\"comp\":",
               static_cast<std::int64_t>(e.t), e.seq);
  std::fputs(json::quote(sink.component_name(e.comp)).c_str(), out);
  std::fprintf(out, ",\"cat\":\"%s\",\"type\":\"%s\",\"a\":%" PRIu64
                    ",\"b\":%" PRIu64,
               category_name(category_of(e.type)), event_type_name(e.type),
               e.a, e.b);
  if (e.type == EventType::kGaugeSample) {
    std::fprintf(out, ",\"value\":%.17g", std::bit_cast<double>(e.a));
  } else if (e.type == EventType::kCounterSample) {
    std::fprintf(out, ",\"value\":%" PRIu64 ",\"delta\":%" PRIu64, e.a, e.b);
  }
  std::fputs("}\n", out);
}

}  // namespace

void write_jsonl(const TraceSink& sink, std::FILE* out) {
  std::fprintf(out,
               "{\"meta\":{\"schema\":\"conga-trace-v1\",\"ring_capacity\":%zu"
               ",\"category_mask\":%u,\"total_recorded\":%" PRIu64
               ",\"total_overwritten\":%" PRIu64 ",\"components\":[",
               sink.config().ring_capacity, sink.category_mask(),
               sink.total_recorded(), sink.total_overwritten());
  for (ComponentId id = 0; id < sink.component_count(); ++id) {
    if (id != 0) std::fputc(',', out);
    std::fputs(json::quote(sink.component_name(id)).c_str(), out);
  }
  std::fputs("]}}\n", out);
  for (const Event& e : sink.all_events()) {
    write_event_jsonl(out, sink, e);
  }
}

void write_csv(const TraceSink& sink, std::FILE* out) {
  std::fputs("t,seq,comp,cat,type,a,b\n", out);
  for (const Event& e : sink.all_events()) {
    std::fprintf(out, "%" PRId64 ",%" PRIu64 ",%s,%s,%s,%" PRIu64
                      ",%" PRIu64 "\n",
                 static_cast<std::int64_t>(e.t), e.seq,
                 sink.component_name(e.comp).c_str(),
                 category_name(category_of(e.type)), event_type_name(e.type),
                 e.a, e.b);
  }
}

bool write_jsonl_file(const TraceSink& sink, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  write_jsonl(sink, f);
  std::fclose(f);
  return true;
}

bool write_csv_file(const TraceSink& sink, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  write_csv(sink, f);
  std::fclose(f);
  return true;
}

}  // namespace conga::telemetry
