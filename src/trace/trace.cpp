#include "trace/trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "support/json.h"

namespace record {

TraceContext::TraceContext() : epoch_(Clock::now()) {}

uint32_t TraceContext::tidOf() {
  std::lock_guard<std::mutex> lock(tidMu_);
  auto id = std::this_thread::get_id();
  auto it = tids_.find(id);
  if (it != tids_.end()) return it->second;
  uint32_t t = static_cast<uint32_t>(tids_.size());
  tids_.emplace(id, t);
  return t;
}

TraceContext::Clock::time_point TraceContext::spanEvent(char ph,
                                                        const char* name) {
  uint32_t tid = tidOf();
  std::lock_guard<std::mutex> lock(eventsMu_);
  // The clock is read under the lock so buffer order == time order (the
  // monotonic-ts guarantee of the JSON sink).
  Clock::time_point t = Clock::now();
  events_.push_back({ph, name, {}, {}, tid, usSinceEpoch(t)});
  return t;
}

void TraceContext::remark(const char* pass, std::string message,
                          std::string loc) {
  uint32_t tid = tidOf();
  std::lock_guard<std::mutex> lock(eventsMu_);
  events_.push_back(
      {'i', pass, std::move(message), std::move(loc), tid, nowUs()});
}

std::vector<TraceEvent> TraceContext::events() const {
  std::lock_guard<std::mutex> lock(eventsMu_);
  return events_;
}

int TraceContext::remarkCount() const {
  std::lock_guard<std::mutex> lock(eventsMu_);
  int n = 0;
  for (const auto& e : events_)
    if (e.ph == 'i') ++n;
  return n;
}

std::map<std::string, TraceContext::SpanAgg> TraceContext::aggregateSpans()
    const {
  // Replay the stream with one span stack per tid; key = slash-joined path
  // so "compile/select/stmt" aggregates every statement into one row.
  std::map<std::string, SpanAgg> agg;
  std::map<uint32_t, std::vector<std::pair<const char*, double>>> stacks;
  int seen = 0;
  for (const TraceEvent& e : events()) {
    auto& stack = stacks[e.tid];
    if (e.ph == 'B') {
      stack.emplace_back(e.name, e.tsUs);
    } else if (e.ph == 'E') {
      if (stack.empty() || std::string_view(stack.back().first) != e.name)
        continue;  // unbalanced stream; sinks stay best-effort
      std::string path;
      for (const auto& [n, ts] : stack) {
        if (!path.empty()) path += '/';
        path += n;
      }
      SpanAgg& a = agg[path];
      if (a.count == 0) {
        a.firstSeen = seen++;
        a.depth = static_cast<int>(stack.size()) - 1;
      }
      ++a.count;
      a.ms += (e.tsUs - stack.back().second) / 1000.0;
      stack.pop_back();
    }
  }
  return agg;
}

std::string TraceContext::text() const {
  std::ostringstream os;
  auto agg = aggregateSpans();
  std::vector<const std::pair<const std::string, SpanAgg>*> rows;
  for (const auto& kv : agg) rows.push_back(&kv);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    return a->second.firstSeen < b->second.firstSeen;
  });
  os << "=== trace: passes ===\n";
  for (const auto* kv : rows) {
    const std::string& path = kv->first;
    const SpanAgg& a = kv->second;
    std::string name = path.substr(path.rfind('/') + 1);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%*s%-24s %10.3f ms  x%d\n",
                  2 * a.depth, "", name.c_str(), a.ms, a.count);
    os << buf;
  }
  os << "=== trace: counters ===\n";
  for (const auto& [name, value] : counterValues()) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-32s %12lld\n", name.c_str(),
                  static_cast<long long>(value));
    os << buf;
  }
  os << "=== trace: remarks ===\n";
  for (const TraceEvent& e : events()) {
    if (e.ph != 'i') continue;
    os << "  [" << e.name << "] ";
    if (!e.loc.empty()) os << e.loc << ": ";
    os << e.detail << "\n";
  }
  return os.str();
}

std::string TraceContext::chromeJson() const {
  std::ostringstream os;
  os << "[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  char buf[128];
  double lastTs = 0;
  for (const TraceEvent& e : events()) {
    sep();
    lastTs = std::max(lastTs, e.tsUs);
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,"
                  "\"pid\":1,\"tid\":%u",
                  json::escape(e.name).c_str(),
                  e.ph == 'i' ? "remark" : "pass", e.ph, e.tsUs, e.tid);
    os << buf;
    if (e.ph == 'i') {
      os << ",\"s\":\"t\",\"args\":{\"message\":\"" << json::escape(e.detail)
         << "\"";
      if (!e.loc.empty()) os << ",\"loc\":\"" << json::escape(e.loc) << "\"";
      os << "}";
    }
    os << "}";
  }
  // Final counter values as Chrome counter events at the end of the stream.
  for (const auto& [name, value] : counterValues()) {
    sep();
    std::snprintf(buf, sizeof buf, ",\"ph\":\"C\",\"ts\":%.3f", lastTs);
    os << "{\"name\":\"" << json::escape(name) << "\",\"cat\":\"counter\""
       << buf << ",\"pid\":1,\"tid\":0,\"args\":{\"value\":"
       << static_cast<long long>(value) << "}}";
  }
  os << "\n]\n";
  return os.str();
}

std::string TraceContext::statsJson() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counterValues()) {
    os << (first ? "\n" : ",\n") << "    \"" << json::escape(name)
       << "\": " << static_cast<long long>(value);
    first = false;
  }
  os << "\n  },\n  \"spans\": {";
  first = true;
  for (const auto& [path, a] : aggregateSpans()) {
    // Nanosecond resolution: a phase's span total here is the same
    // measurement as its CompileStats::ms* field.
    char buf[64];
    std::snprintf(buf, sizeof buf, "{\"count\": %d, \"ms\": %.6f}", a.count,
                  a.ms);
    os << (first ? "\n" : ",\n") << "    \"" << json::escape(path)
       << "\": " << buf;
    first = false;
  }
  os << "\n  },\n  \"remarks\": " << remarkCount() << "\n}\n";
  return os.str();
}

bool validateChromeTrace(const std::string& jsonText, std::string* err) {
  auto fail = [&](const std::string& why) {
    if (err) *err = why;
    return false;
  };
  std::string perr;
  auto doc = json::parse(jsonText, &perr);
  if (!doc) return fail("not valid JSON: " + perr);
  if (!doc->isArray()) return fail("top level is not an array");
  double lastTs = -1;
  std::map<double, std::vector<std::string>> stacks;  // keyed by pid<<32|tid
  std::map<std::pair<double, double>, std::vector<std::string>> open;
  size_t idx = 0;
  for (const json::Value& e : doc->arr) {
    std::string at = "event " + std::to_string(idx++);
    if (!e.isObject()) return fail(at + ": not an object");
    const json::Value* name = e.find("name");
    const json::Value* ph = e.find("ph");
    const json::Value* ts = e.find("ts");
    const json::Value* pid = e.find("pid");
    const json::Value* tid = e.find("tid");
    if (!name || !name->isString()) return fail(at + ": missing name");
    if (!ph || !ph->isString() || ph->str.size() != 1)
      return fail(at + ": missing ph");
    if (std::string("BEiCX").find(ph->str[0]) == std::string::npos)
      return fail(at + ": unknown ph '" + ph->str + "'");
    if (!ts || !ts->isNumber() || ts->number < 0)
      return fail(at + ": missing/negative ts");
    if (!pid || !pid->isNumber() || !tid || !tid->isNumber())
      return fail(at + ": missing pid/tid");
    if (ts->number + 1e-9 < lastTs)
      return fail(at + ": ts not monotonic (" + std::to_string(ts->number) +
                  " after " + std::to_string(lastTs) + ")");
    lastTs = std::max(lastTs, ts->number);
    auto key = std::make_pair(pid->number, tid->number);
    if (ph->str[0] == 'B') {
      open[key].push_back(name->str);
    } else if (ph->str[0] == 'E') {
      auto& stack = open[key];
      if (stack.empty())
        return fail(at + ": 'E' for \"" + name->str + "\" with no open span");
      if (stack.back() != name->str)
        return fail(at + ": 'E' for \"" + name->str +
                    "\" but innermost open span is \"" + stack.back() + "\"");
      stack.pop_back();
    }
  }
  for (const auto& [key, stack] : open)
    if (!stack.empty())
      return fail("unclosed span \"" + stack.back() + "\" at end of trace");
  return true;
}

}  // namespace record
