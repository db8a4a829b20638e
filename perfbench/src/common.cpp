#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& [n, vu] : items_) {
    if (n == name) {
      vu = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::begin(const std::string& name) {
  SpanRecord r;
  r.name = name;
  r.id = static_cast<int>(spans_.size());
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.start_us = ms_between(origin_, Clock::now()) * 1e3;
  spans_.push_back(std::move(r));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_us =
      ms_between(origin_, Clock::now()) * 1e3;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

namespace {
std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}
}  // namespace

void Tracer::write_chrome_json(const std::string& path,
                               const std::string& meta) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace " + path);
  f << "{\"metadata\":" << meta << ",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", s.start_us,
                  s.end_us - s.start_us);
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(s.name)
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << buf
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  f << "\n]}\n";
}

Span::Span(Tracer* tracer, const std::string& name)
    : tracer_(tracer) {
  if (tracer_) id_ = tracer_->begin(name);
}

Span::~Span() {
  if (tracer_) tracer_->end(id_);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

int host_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace perfbench
