// Shared plumbing for the per-figure benchmark binaries.

#ifndef SEP2P_BENCH_BENCH_COMMON_H_
#define SEP2P_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "sim/parameters.h"

namespace sep2p::bench {

// --quick shrinks sweeps so a full `for b in build/bench/*` run stays
// fast; the defaults reproduce the paper-scale series.
inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

// Value of the integer flag `name` (`name=N` or `name N`; the first
// occurrence wins), or `fallback` when the flag is absent. A value that
// is not a non-negative decimal integer prints the flag and exits with
// status 2, so a typo never silently selects a default.
inline int NonNegativeIntArg(int argc, char** argv, const char* name,
                             int fallback) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      value = argv[i] + len + 1;
    } else if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
      value = argv[i + 1];
    } else {
      continue;
    }
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(value, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(value[0])) ||
        *end != '\0' || errno == ERANGE || parsed > INT_MAX) {
      std::fprintf(stderr,
                   "invalid %s value '%s': want a non-negative integer\n",
                   name, value);
      std::exit(2);
    }
    return static_cast<int>(parsed);
  }
  return fallback;
}

// --threads=N / --threads N caps the worker count for network build and
// trial execution; 0 (the default) means one per hardware thread.
// Results are bit-identical for every value — only wall-clock changes.
inline int ThreadsArg(int argc, char** argv) {
  return NonNegativeIntArg(argc, argv, "--threads", 0);
}

// --trace=FILE / --trace FILE: record the first --trace-trials trials
// of the harness's first sweep point. Trial 0 writes FILE (Chrome
// trace-event JSON) plus FILE.jsonl; trial N writes FILE.trialN.jsonl
// (deterministic names, so `sep2p_cli report <dir>` aggregates a
// sweep's traces without a manifest).
inline std::string TraceArg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) return argv[i] + 8;
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
  }
  return "";
}

// --trace-trials=N / --trace-trials N caps how many trials --trace
// records (default 1, the historical single representative trial).
inline int TraceTrialsArg(int argc, char** argv) {
  return NonNegativeIntArg(argc, argv, "--trace-trials", 1);
}

// --metrics=FILE / --metrics FILE: write the sweep's merged
// obs::MetricsRegistry snapshot as Prometheus text to FILE and JSON to
// FILE.json.
inline std::string MetricsArg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics=", 10) == 0) return argv[i] + 10;
    if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
  }
  return "";
}

// One bundle per bench main: owns the recorders + registry and binds
// them into a sim::SweepObservers. Pass Observers::get() (nullptr when
// neither flag is set — sweeps skip all observer work) to the harness,
// then Write() after it returns.
struct Observers {
  std::string trace_path;
  std::string metrics_path;
  std::vector<obs::TraceRecorder> recorders;
  obs::MetricsRegistry metrics;
  sim::SweepObservers sweep;

  Observers(int argc, char** argv)
      : trace_path(TraceArg(argc, argv)),
        metrics_path(MetricsArg(argc, argv)) {
    sweep.trace_trials = TraceTrialsArg(argc, argv);
    if (!trace_path.empty()) sweep.recorders = &recorders;
    if (!metrics_path.empty()) sweep.metrics = &metrics;
  }

  const sim::SweepObservers* get() const {
    return trace_path.empty() && metrics_path.empty() ? nullptr : &sweep;
  }

  // Writes every recorded trace and the metrics snapshot; returns false
  // (after printing to stderr) on any I/O failure.
  bool Write() const {
    for (size_t t = 0; t < recorders.size(); ++t) {
      const obs::Trace& trace = recorders[t].trace();
      Status st = Status::Ok();
      if (t == 0) {
        st = obs::WriteFile(trace_path, obs::ToChromeTrace(trace));
        if (st.ok()) {
          st = obs::WriteFile(trace_path + ".jsonl", obs::ToJsonl(trace));
        }
      } else {
        st = obs::WriteFile(trace_path + ".trial" + std::to_string(t) +
                                ".jsonl",
                            obs::ToJsonl(trace));
      }
      if (!st.ok()) {
        std::fprintf(stderr, "trace write failed: %s\n",
                     st.ToString().c_str());
        return false;
      }
    }
    if (!recorders.empty()) {
      std::printf("\ntrace: %zu trial(s) -> %s (+ .jsonl%s)\n",
                  recorders.size(), trace_path.c_str(),
                  recorders.size() > 1 ? ", .trialN.jsonl" : "");
    }
    if (!metrics_path.empty()) {
      Status prom =
          obs::WriteFile(metrics_path, metrics.ToPrometheusText());
      Status json =
          obs::WriteFile(metrics_path + ".json", metrics.ToJson());
      if (!prom.ok() || !json.ok()) {
        std::fprintf(stderr, "metrics write failed: %s\n",
                     (!prom.ok() ? prom : json).ToString().c_str());
        return false;
      }
      std::printf("metrics: %s (Prometheus text) + %s.json\n",
                  metrics_path.c_str(), metrics_path.c_str());
    }
    return true;
  }
};

inline void PrintHeader(const char* figure, const char* claim,
                        const sim::Parameters& params) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("paper claim: %s\n", claim);
  std::printf("defaults: %s\n", params.ToString().c_str());
  std::printf("==============================================================\n\n");
}

inline std::string Num(double v, int precision = 3) {
  return sim::TablePrinter::Num(v, precision);
}

#ifndef SEP2P_COMMIT
#define SEP2P_COMMIT "unknown"
#endif

// Effective parallelism of this machine right now: the spin-loop
// iterations `threads` workers complete in a 100 ms window, over the
// most one worker completes in such a window (alone or beside the
// others, so a single worker parked on a slow vCPU does not inflate the
// ratio). Windows alternate (1, N, 1, N, 1, N) and the best of each
// counts; the whole calibration takes 0.6 s. Parallelism varies
// between sessions, so a thread-scaling number means little without
// this next to it.
inline double SpinCalibration(unsigned threads) {
  double per_worker = 0;  // best single-worker count seen
  auto window = [&per_worker](unsigned workers) {
    std::atomic<bool> stop{false};
    std::vector<uint64_t> done(workers, 0);
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&stop, &done, w] {
        volatile uint64_t sink = 0;
        uint64_t count = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          for (uint64_t i = 0; i < 10'000; ++i) sink = sink + i;
          count += 10'000;
        }
        done[w] = count;
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop = true;
    double total = 0;
    for (unsigned w = 0; w < workers; ++w) {
      pool[w].join();
      per_worker = std::max(per_worker, static_cast<double>(done[w]));
      total += static_cast<double>(done[w]);
    }
    return total;
  };
  double all = 0;
  for (int round = 0; round < 3; ++round) {
    window(1);
    all = std::max(all, window(threads));
  }
  return per_worker > 0 ? all / per_worker : 0;
}

// The "provenance" member every BENCH_*.json writer emits after its
// "bench" key: the commit the binary was configured from, the CPU
// model, the hardware thread count, the spin-loop calibration over at
// most that many threads, the --threads value (0 = one per hardware
// thread) and the mode. Ends with ",\n", ready for the next member.
inline std::string ProvenanceJson(int argc, char** argv) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      cpu = line.substr(colon + 2);
    }
    break;
  }
  std::string escaped;
  for (char c : cpu) {
    if (c == '"' || c == '\\') escaped += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) escaped += c;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"provenance\": {\"commit\": \"%s\", \"cpu\": \"%s\", "
                "\"hardware_concurrency\": %u, "
                "\"effective_parallelism\": %.2f, \"threads\": %d, "
                "\"mode\": \"%s\"},\n",
                SEP2P_COMMIT, escaped.c_str(), hw, SpinCalibration(hw),
                ThreadsArg(argc, argv),
                QuickMode(argc, argv) ? "quick" : "full");
  return buf;
}

}  // namespace sep2p::bench

#endif  // SEP2P_BENCH_BENCH_COMMON_H_
