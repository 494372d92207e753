#include "obs/trace.h"

#include <algorithm>

namespace gsalert::obs {

namespace {
// Process-wide trace state. The simulation is single-threaded, so ids are
// allocated in event order and a seeded run replays them exactly.
std::vector<SpanSink*> g_sinks;
TraceContext g_active;
std::uint64_t g_next_id = 1;

TraceContext emit(const TraceContext& parent, std::string_view name,
                  std::string_view node, SimTime at, SpanArgs args) {
  if (g_sinks.empty()) return parent;
  Span span;
  span.trace_id = parent.traced() ? parent.trace_id : g_next_id++;
  span.span_id = g_next_id++;
  span.parent_span_id = parent.traced() ? parent.span_id : 0;
  span.hop = parent.hop;
  span.at = at;
  span.name = std::string{name};
  span.node = std::string{node};
  span.args = std::move(args);
  for (SpanSink* sink : g_sinks) sink->on_span(span);
  return TraceContext{span.trace_id, span.span_id, span.hop};
}
}  // namespace

void add_sink(SpanSink* sink) { g_sinks.push_back(sink); }

void remove_sink(SpanSink* sink) {
  g_sinks.erase(std::remove(g_sinks.begin(), g_sinks.end(), sink),
                g_sinks.end());
}

bool active() { return !g_sinks.empty(); }

void reset_ids() {
  g_next_id = 1;
  g_active = TraceContext{};
}

TraceContext current_context() { return g_active; }

TraceContext emit_span(std::string_view name, std::string_view node,
                       SimTime at, SpanArgs args) {
  return emit(g_active, name, node, at, std::move(args));
}

TraceContext emit_span_under(const TraceContext& parent,
                             std::string_view name, std::string_view node,
                             SimTime at, SpanArgs args) {
  return emit(parent, name, node, at, std::move(args));
}

TraceScope::TraceScope(TraceContext ctx) : saved_(g_active) {
  g_active = ctx;
}

TraceScope::~TraceScope() { g_active = saved_; }

}  // namespace gsalert::obs
