// Shared pieces of the end-to-end benchmark: metric tables, span tracing,
// the workload interface the harness drives, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace spttn {
class CooTensor;
class Kernel;
class SparsityStats;
struct PlannerOptions;
}  // namespace spttn

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Ordered name -> (value, unit) table; the order is the print order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// One recorded interval: name, start and end (µs since the tracer began),
/// and the enclosing span (-1 at top level).
struct SpanRecord {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int id = 0;
  int parent = -1;
};

/// In-memory span recorder for the traced run. Spans nest by call order on
/// the benchmark's own thread; nothing inside the library is instrumented.
class Tracer {
 public:
  Tracer();
  int begin(const std::string& name);
  void end(int id);
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Chrome trace-event JSON ("X" events, parent in args), openable in
  /// Perfetto or chrome://tracing. `meta` is a JSON object placed under
  /// "metadata".
  void write_chrome_json(const std::string& path,
                         const std::string& meta) const;

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

/// Time `fn` under a span named `name`; returns milliseconds.
template <typename F>
double timed(Tracer* tracer, const std::string& name, F&& fn) {
  Span s(tracer, name);
  const auto t0 = Clock::now();
  fn();
  return ms_between(t0, Clock::now());
}

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// What a workload hands the per-layer pass: an order-3 stand-in of the
/// workload's own data plus any extra planning requests it serves.
struct PlanRequest {
  std::string name;
  const spttn::Kernel* kernel = nullptr;
  const spttn::SparsityStats* stats = nullptr;
  const spttn::PlannerOptions* options = nullptr;
};

struct LayerInputs {
  const spttn::CooTensor* tensor = nullptr;  ///< order 3, sorted
  std::vector<PlanRequest> extra_plans;
};

/// One workload: the harness generates its inputs, sets it up several
/// times (the median is `setup_s`), then repeats the same op for the run
/// length, timing run_op and checking every op's outputs outside the timed
/// region.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Inputs and independent reference results (not part of setup_s).
  virtual void generate(std::uint64_t seed) = 0;
  /// Program work before the first op (sessions, plans, partitions).
  /// Called again after teardown() for each repeated set-up.
  virtual void setup(Tracer* tracer) = 0;
  virtual void teardown() = 0;
  /// Untimed preparation right before an op (e.g. a check's baseline).
  virtual void before_op() {}
  /// The timed unit of work.
  virtual void run_op(Tracer* tracer) = 0;
  /// Check the op's outputs; false (with a reason) counts it as failed.
  virtual bool check_op(std::string* why) = 0;
  /// Data for the per-layer pass of a traced run.
  virtual LayerInputs layer_inputs() = 0;
  /// Per-layer metrics derived from the workload's own traced ops.
  virtual void op_layer_metrics(Metrics* /*out*/) {}
};

std::unique_ptr<Workload> make_decomp_sweep();
std::unique_ptr<Workload> make_paper_kernels();
std::unique_ptr<Workload> make_cold_zoo();
std::unique_ptr<Workload> make_dist_shmem();

/// Per-layer pass: calls each layer's public functions on `in`, timing
/// them under spans, and fills every per-layer metric.
void run_layer_pass(const LayerInputs& in, Tracer* tracer, Metrics* out);

/// Worker count used for threaded runs: the host's logical CPU count.
int host_threads();

}  // namespace perfbench
