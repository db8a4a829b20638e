// End-to-end benchmark driver.
//
//   spttn_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out FILE] [--git-sha SHA]
//   spttn_perfbench --self-test
//
// Each workload repeats one fixed op for S seconds after a repeated set-up
// and prints its metrics; the last stdout line is one JSON object with
// "correct", "attempted", "failed" and "metrics". --trace 1 prints the
// per-layer metrics instead and writes the spans as Chrome trace JSON.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "selftest.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += (c == '\n' ? ' ' : c);
  }
  return o + "\"";
}

std::string host_json(const std::string& git_sha) {
  std::ostringstream os;
  os << "{\"cpu\":" << json_str(cpu_model()) << ",\"nproc\":" << host_threads()
     << ",\"pool_lanes\":" << spttn::ThreadPool::global().size()
     << ",\"compiler\":" << json_str(PERFBENCH_COMPILER)
     << ",\"flags\":" << json_str(PERFBENCH_FLAGS)
     << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
     << ",\"git_sha\":" << json_str(git_sha) << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : -1.0);
  return buf;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "decomp-sweep") return make_decomp_sweep();
  if (name == "paper-kernels") return make_paper_kernels();
  if (name == "cold-zoo") return make_cold_zoo();
  if (name == "dist-shmem") return make_dist_shmem();
  return nullptr;
}

/// Set-ups per untraced run; set-up time is reported as their median.
constexpr int kSetups = 3;
/// Ops below which a run keeps going past its time limit.
constexpr std::size_t kMinOps = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
};

/// Self time per span name: duration minus the time covered by children.
void print_span_table(const Tracer& tr) {
  std::map<std::string, std::pair<int, std::pair<double, double>>> agg;
  std::vector<double> child(tr.spans().size(), 0.0);
  for (const SpanRecord& s : tr.spans()) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  for (const SpanRecord& s : tr.spans()) {
    // Strip the per-kernel suffix so families aggregate.
    const std::string key = s.name.substr(0, s.name.find(':'));
    auto& a = agg[key];
    a.first += 1;
    a.second.first += (s.end_us - s.start_us) / 1e3;
    a.second.second +=
        (s.end_us - s.start_us - child[static_cast<std::size_t>(s.id)]) / 1e3;
  }
  std::printf("%-34s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, a] : agg) {
    std::printf("%-34s %8d %12.3f %12.3f\n", name.c_str(), a.first,
                a.second.first, a.second.second);
  }
}

int run(const Options& opt) {
  auto w = make_workload(opt.workload);
  if (!w) {
    std::cerr << "unknown workload '" << opt.workload
              << "' (decomp-sweep, paper-kernels, cold-zoo, dist-shmem)\n";
    return 2;
  }
  const std::string host = host_json(opt.git_sha);
  std::cout << "host " << host << "\n" << std::flush;

  w->generate(opt.seed);

  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  int attempted = 0;
  int failed = 0;
  bool wrong = false;
  // Runs one op (timed) and its check (untimed); returns the op's ms, or
  // -1 when the op threw.
  const auto do_op = [&](Tracer* op_tr) {
    w->before_op();
    double ms = 0;
    ++attempted;
    try {
      Span span(op_tr, "op");
      const auto t0 = Clock::now();
      w->run_op(op_tr);
      ms = ms_between(t0, Clock::now());
    } catch (const std::exception& e) {
      ++failed;
      std::cerr << "op threw: " << e.what() << "\n";
      return -1.0;
    }
    std::string why;
    if (!w->check_op(&why)) {
      ++failed;
      wrong = true;
      std::cerr << "op failed its check: " << why << "\n";
    }
    return ms;
  };

  // Set-up, repeated; each includes one warm-up op.
  std::vector<double> setup_s;
  for (int k = 0; k < (opt.trace ? 1 : kSetups); ++k) {
    if (k > 0) w->teardown();
    double s = 0;
    {
      Span span(tr, "setup");
      const auto t0 = Clock::now();
      w->setup(tr);
      s = ms_between(t0, Clock::now()) / 1e3;
    }
    s += std::max(0.0, do_op(tr)) / 1e3;
    setup_s.push_back(s);
  }

  // Measured ops; an op that threw has no latency.
  std::vector<double> lat;
  std::vector<double> traced_lat;
  double timed_ms = 0;
  const std::uint64_t steals0 = spttn::ThreadPool::global().steal_count();
  const auto start = Clock::now();
  for (std::size_t n = 0;
       n < kMinOps || ms_between(start, Clock::now()) < opt.seconds * 1e3;
       ++n) {
    // A traced run alternates untraced and traced ops so the tracing
    // overhead is measured under the same conditions.
    const bool traced = opt.trace && n % 2 == 1;
    const double ms = do_op(traced ? tr : nullptr);
    if (ms < 0) continue;
    (traced ? traced_lat : lat).push_back(ms);
    timed_ms += ms;
  }
  const std::size_t ops = lat.size() + traced_lat.size();
  if (lat.empty() || (opt.trace && traced_lat.empty())) {
    std::cerr << "no op completed; no metrics\n";
    return 1;
  }
  const double steals_per_op =
      static_cast<double>(spttn::ThreadPool::global().steal_count() -
                          steals0) /
      static_cast<double>(ops);

  Metrics m;
  if (!opt.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("op_p50_ms", median(lat), "ms");
    m.set("ops_per_s", static_cast<double>(ops) / (timed_ms / 1e3), "1/s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("workload %s seed %llu: %zu ops in %.2f s timed",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), ops,
                timed_ms / 1e3);
    std::printf(", op ms q10 %.2f q50 %.2f q90 %.2f", quantile(lat, 0.1),
                quantile(lat, 0.5), quantile(lat, 0.9));
    if (lat.size() >= 100) {
      std::printf(", op_p90_ms %.3f", quantile(lat, 0.9));
    }
    std::printf(", setups:");
    for (double s : setup_s) std::printf(" %.3f", s);
    std::printf(" s\n");
  } else {
    run_layer_pass(w->layer_inputs(), tr, &m);
    w->op_layer_metrics(&m);
    m.set("pool.steals", steals_per_op, "count");
    m.set("trace.op_p50_ms", median(traced_lat), "ms");
    m.set("trace.overhead", median(traced_lat) / median(lat), "ratio");
    print_span_table(tracer);
    if (!opt.trace_out.empty()) {
      tracer.write_chrome_json(opt.trace_out, host);
      std::printf("trace written to %s (%zu spans)\n", opt.trace_out.c_str(),
                  tracer.spans().size());
    }
  }
  for (const auto& [name, vu] : m.items()) {
    std::printf("  %-36s %16.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  std::printf("ops attempted %d, failed %d\n", attempted, failed);

  std::ostringstream os;
  os << "{\"correct\": " << (wrong ? "false" : "true")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : m.items()) {
    os << (first ? "" : ", ") << json_str(name) << ": {\"value\": "
       << fmt_num(vu.first) << ", \"unit\": " << json_str(vu.second) << "}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = next();
      } else if (a == "--seed") {
        opt.seed = std::stoull(next());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(next());
      } else if (a == "--trace") {
        opt.trace = std::stoi(next()) != 0;
      } else if (a == "--trace-out") {
        opt.trace_out = next();
      } else if (a == "--git-sha") {
        opt.git_sha = next();
      } else if (a == "--self-test") {
        self_test = true;
      } else {
        std::cerr << "unknown argument " << a << "\n";
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << a << "\n";
      return 2;
    }
  }
  try {
    if (self_test) return run_self_test();
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
