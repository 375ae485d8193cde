// Measurement plumbing of the SEP2P benchmark: sample statistics with
// the percentile rule, the span tracer of the traced run, metric names
// and the result line the benchmark prints last.
//
// Nothing here knows about SEP2P; the workloads (workloads.h) use it.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------
// Clocks.

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Process CPU time (user + system, all threads), in seconds.
double ProcessCpuSeconds();

// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

// Wall, process CPU and machine-wide steal time over an interval:
// whether a measurement ran on a CPU of its own.
class LoopClock {
 public:
  void Start();
  void Stop();
  double wall_s() const { return wall_s_; }
  double cpu_util() const { return wall_s_ > 0 ? cpu_s_ / wall_s_ : 0; }
  // Share of all CPU time the hypervisor gave to others (/proc/stat).
  double steal_frac() const { return steal_frac_; }

 private:
  int64_t start_ns_ = 0;
  double start_cpu_ = 0;
  uint64_t start_steal_ = 0, start_total_ = 0;
  double wall_s_ = 0, cpu_s_ = 0, steal_frac_ = 0;
};

// ---------------------------------------------------------------------
// Samples and the percentile rule.

// A timing's tail: the highest percentile, at most the one asked for,
// that still has at least `kTailBeyond` samples above it.
inline constexpr size_t kTailBeyond = 10;

struct Tail {
  double value = 0;       // the sample at that percentile
  double percentile = 0;  // which percentile `value` is (e.g. 99)
  size_t beyond = 0;      // samples strictly above its rank
};

class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  double Sum() const;
  double Mean() const;
  // Nearest-rank percentile, p in (0, 100]. 0 on an empty sample.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  // The tail the percentile rule allows, aiming at `want` (e.g. 99).
  // With fewer than kTailBeyond + 1 samples no percentile qualifies and
  // the median is returned (percentile 50, beyond counted as usual).
  Tail TailAt(double want) const;

 private:
  std::vector<double> values_;
};

// ---------------------------------------------------------------------
// Spans.
//
// A span has a name, a start, an end and a parent; all spans opened
// while an op is current carry that op's id. Spans stay in memory and
// are written once, at exit. The layer of a span is its name up to the
// first '.', so "core.select" belongs to "core". Spans named without a
// '.' ("run", "op") are structure: their self time is the benchmark's
// own loop and is reported as the `unattributed` bucket.

struct Span {
  const char* name = "";
  uint64_t op = 0;
  int32_t parent = -1;  // index into the span list, -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;   // 0 while open
};

class Tracer {
 public:
  // Opens a span under the innermost open span; returns its index.
  int Open(const char* name);
  void Close(int index);
  // Sets the op id that spans opened from now on carry.
  void SetOp(uint64_t op) { op_ = op; }

  // RAII helper: `Tracer::Scope s(tracer, "core.select");` — a null
  // tracer makes it a no-op, so untraced code paths share the call.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name)
        : tracer_(tracer), index_(tracer ? tracer->Open(name) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  // Appends a finished span directly (spans reconstructed from clock
  // reads taken elsewhere, and tests).
  int Add(const char* name, int32_t parent, int64_t start_ns,
          int64_t end_ns, uint64_t op);

  // Each span's duration minus the part of it its children cover.
  std::vector<int64_t> SelfTimesNs() const;
  // Self time summed by layer, in seconds; structure spans land in
  // "unattributed".
  std::map<std::string, double> LayerSelfSeconds() const;
  // Sum of the root spans' durations, in seconds.
  double RootSeconds() const;

  // One JSON object per line: name, op, parent, start/end (ns,
  // relative to the first span), self time.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  uint64_t op_ = 0;
};

// The layer a span name belongs to ("unattributed" for structure).
std::string LayerOf(const char* name);

// ---------------------------------------------------------------------
// Metrics and the result line.

// Names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool ValidMetricName(const std::string& name);
// Units: 1-16 of [A-Za-z0-9_/%.-].
bool ValidUnit(const std::string& unit);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  // samples behind a timing (0 = not a sample stat)
  std::string note;    // e.g. "p99" when a tail fell back to a lower one
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// The one-line JSON object the benchmark prints last:
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"name": {"value": V, "unit": "U"}, ...}}
// Values are printed with 17 significant digits. Returns "" (and sets
// *error) when a name or unit is invalid, a name repeats, or a value is
// not finite.
std::string EmitResult(const RunResult& result, std::string* error);

// Parses a line EmitResult produced (names, values, units, counts; the
// per-metric sample counts and notes are not part of the line).
bool ParseResult(const std::string& line, RunResult* out, std::string* error);

// Minimal JSON string escaping for names and notes.
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
