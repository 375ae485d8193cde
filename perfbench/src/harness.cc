#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>

namespace perfbench {

double ProcessCpuSeconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// Steal and total jiffies of the machine ("cpu" line of /proc/stat).
void HostTicks(uint64_t* steal, uint64_t* total) {
  *steal = 0;
  *total = 0;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return;
  for (int field = 0; field < 10; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) return;
    *total += v;
    if (field == 7) *steal = v;
  }
}

}  // namespace

void LoopClock::Start() {
  HostTicks(&start_steal_, &start_total_);
  start_cpu_ = ProcessCpuSeconds();
  start_ns_ = NowNs();
}

void LoopClock::Stop() {
  wall_s_ = static_cast<double>(NowNs() - start_ns_) / 1e9;
  cpu_s_ = ProcessCpuSeconds() - start_cpu_;
  uint64_t steal = 0, total = 0;
  HostTicks(&steal, &total);
  steal_frac_ = total > start_total_
                    ? static_cast<double>(steal - start_steal_) /
                          static_cast<double>(total - start_total_)
                    : 0;
}

// ---------------------------------------------------------------------

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

namespace {

// 1-based nearest rank of percentile p among n samples.
size_t NearestRank(size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

double AtRank(std::vector<double> values, size_t rank) {
  std::nth_element(values.begin(),
                   values.begin() + static_cast<ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

}  // namespace

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  return AtRank(values_, NearestRank(values_.size(), p));
}

Tail Samples::TailAt(double want) const {
  Tail tail;
  const size_t n = values_.size();
  if (n == 0) return tail;
  size_t rank = NearestRank(n, want);
  tail.percentile = want;
  if (n - rank < kTailBeyond) {
    if (n > kTailBeyond) {
      rank = n - kTailBeyond;
      tail.percentile = 100.0 * static_cast<double>(rank) /
                        static_cast<double>(n);
    }
    if (n <= kTailBeyond || tail.percentile < 50) {
      rank = NearestRank(n, 50);
      tail.percentile = 50;
    }
  }
  tail.value = AtRank(values_, rank);
  tail.beyond = n - rank;
  return tail;
}

// ---------------------------------------------------------------------

int Tracer::Open(const char* name) {
  Span span;
  span.name = name;
  span.op = op_;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::Close(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in LIFO order; tolerate a caller closing an outer span
  // first by popping everything above it.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

int Tracer::Add(const char* name, int32_t parent, int64_t start_ns,
                int64_t end_ns, uint64_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

std::vector<int64_t> Tracer::SelfTimesNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, s.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::string LayerOf(const char* name) {
  const std::string full(name);
  const size_t dot = full.find('.');
  if (dot == std::string::npos) return "unattributed";
  return full.substr(0, dot);
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  const std::vector<int64_t> self = SelfTimesNs();
  std::map<std::string, double> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    layers[LayerOf(spans_[i].name)] += static_cast<double>(self[i]) / 1e9;
  }
  return layers;
}

double Tracer::RootSeconds() const {
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end_ns - s.start_ns;
  }
  return static_cast<double>(total) / 1e9;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::vector<int64_t> self = SelfTimesNs();
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %zu, \"name\": \"%s\", \"op\": %llu, "
                  "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld, "
                  "\"self_ns\": %lld}\n",
                  i, JsonEscape(s.name).c_str(),
                  static_cast<unsigned long long>(s.op), s.parent,
                  static_cast<long long>(s.start_ns - base),
                  static_cast<long long>(s.end_ns - base),
                  static_cast<long long>(self[i]));
    out << buf;
  }
  return static_cast<bool>(out.flush());
}

// ---------------------------------------------------------------------

namespace {

bool NameChar(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

bool AlnumChar(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !AlnumChar(name[0])) return false;
  return std::all_of(name.begin(), name.end(), NameChar);
}

bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return NameChar(c) || c == '/' || c == '%';
  });
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string EmitResult(const RunResult& result, std::string* error) {
  std::set<std::string> seen;
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    if (!ValidMetricName(m.name) || !ValidUnit(m.unit) ||
        !seen.insert(m.name).second || !std::isfinite(m.value)) {
      *error = "invalid metric '" + m.name + "' (" + m.unit + ")";
      return "";
    }
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

namespace {

// A cursor over the fixed shape EmitResult writes; whitespace-tolerant.
class Cursor {
 public:
  explicit Cursor(const std::string& s) : s_(s) {}

  void Skip() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t')) ++i_;
  }
  bool Eat(char c) {
    Skip();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    Skip();
    return i_ < s_.size() && s_[i_] == c;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') return false;  // names and units never escape
      *out += s_[i_++];
    }
    return Eat('"');
  }
  bool Number(double* out) {
    Skip();
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    *out = std::strtod(begin, &end);
    if (end == begin) return false;
    i_ += static_cast<size_t>(end - begin);
    return true;
  }
  bool Literal(const char* word) {
    Skip();
    const std::string w(word);
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }
  bool AtEnd() {
    Skip();
    return i_ == s_.size();
  }

 private:
  const std::string& s_;
  size_t i_ = 0;
};

}  // namespace

bool ParseResult(const std::string& line, RunResult* out, std::string* error) {
  Cursor c(line);
  RunResult r;
  std::string key;
  auto fail = [&](const char* what) {
    *error = what;
    return false;
  };
  if (!c.Eat('{')) return fail("expected '{'");
  for (int field = 0; field < 4; ++field) {
    if (field > 0 && !c.Eat(',')) return fail("expected ','");
    if (!c.String(&key) || !c.Eat(':')) return fail("expected key");
    double number = 0;
    if (key == "correct") {
      if (c.Literal("true")) {
        r.correct = true;
      } else if (c.Literal("false")) {
        r.correct = false;
      } else {
        return fail("correct: expected a boolean");
      }
    } else if (key == "attempted" || key == "failed") {
      if (!c.Number(&number) || number < 0) return fail("bad count");
      (key == "attempted" ? r.attempted : r.failed) =
          static_cast<uint64_t>(number);
    } else if (key == "metrics") {
      if (!c.Eat('{')) return fail("metrics: expected '{'");
      while (!c.Peek('}')) {
        if (!r.metrics.empty() && !c.Eat(',')) return fail("expected ','");
        Metric m;
        std::string k;
        if (!c.String(&m.name) || !c.Eat(':') || !c.Eat('{')) {
          return fail("metric: expected name");
        }
        if (!c.String(&k) || k != "value" || !c.Eat(':') ||
            !c.Number(&m.value) || !c.Eat(',') || !c.String(&k) ||
            k != "unit" || !c.Eat(':') || !c.String(&m.unit) ||
            !c.Eat('}')) {
          return fail("metric: expected value and unit");
        }
        r.metrics.push_back(m);
      }
      c.Eat('}');
    } else {
      return fail("unknown key");
    }
  }
  if (!c.Eat('}') || !c.AtEnd()) return fail("trailing input");
  *out = r;
  return true;
}

}  // namespace perfbench
