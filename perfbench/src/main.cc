// sep2p_perfbench: runs one workload of the SEP2P benchmark and prints
// its metrics; the last line of standard output is the result object
// (harness.h, EmitResult). run.py builds this binary and invokes it.
//
//   sep2p_perfbench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> [--trace-out <file>] [--source <id>]
//
// Exit status: 0 when every correctness check passed, 1 when one
// failed (the result line then says "correct": false), 2 on bad
// arguments or an unoptimised build (no result line).

#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  WorkloadOutput (*run)(const RunConfig&);
};

constexpr Workload kWorkloads[] = {
    {"select_100k", RunSelect},
    {"mixed_ed25519", RunMixed},
    {"churn_100k", RunChurn},
    {"live_2p", RunLive},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "sep2p_perfbench: %s\n"
               "usage: sep2p_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--source <id>]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Effective parallelism: the same spin loop on 1 thread, then on every
// hardware thread at once; P * t1 / tP is how many of them really ran
// in parallel.
void Spin(uint64_t iterations) {
  volatile uint64_t x = 0;
  for (uint64_t i = 0; i < iterations; ++i) x = x + i;
}

double EffectiveParallelism(unsigned threads) {
  auto spin = [] { Spin(20'000'000); };
  int64_t t0 = NowNs();
  spin();
  const double one = static_cast<double>(NowNs() - t0);
  std::vector<std::thread> pool;
  t0 = NowNs();
  for (unsigned i = 0; i < threads; ++i) pool.emplace_back(spin);
  for (std::thread& t : pool) t.join();
  const double all = static_cast<double>(NowNs() - t0);
  return static_cast<double>(threads) * one / all;
}

// Pins the process to the CPU on which a short spin loop runs fastest
// and returns it (-1 when affinity cannot be set). On shared machines
// how much of a CPU a process gets varies by CPU and from minute to
// minute; measuring on the least loaded one, and on one CPU only, keeps
// the workloads that start threads (the engine's verifier, the
// transport's service and reader threads) from measuring how many
// cores happened to be free.
int PinToFastestCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int best = -1;
  int64_t best_ns = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    const int64_t t0 = NowNs();
    Spin(5'000'000);
    const int64_t ns = NowNs() - t0;
    if (best < 0 || ns < best_ns) {
      best = cpu;
      best_ns = ns;
    }
  }
  if (best < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? best : -1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  std::string source = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && config.seconds > 0 &&
                     config.seconds <= 3600;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else if (arg == "--source") {
      source = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace need valid values");
  }
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) return Usage("unknown workload");

#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "sep2p_perfbench: refusing to measure an unoptimised build "
               "(build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double parallelism = EffectiveParallelism(nproc);
  const int cpu = PinToFastestCpu();
  // One malloc arena: per-thread arenas would make peak RSS depend on
  // which threads happened to allocate first.
  mallopt(M_ARENA_MAX, 1);
  std::printf(
      "provenance: {\"source\": \"%s\", \"cpu\": \"%s\", \"nproc\": %u, "
      "\"effective_parallelism\": %.2f, \"pinned_cpu\": %d, "
      "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      JsonEscape(source).c_str(), JsonEscape(CpuModel()).c_str(), nproc,
      parallelism, cpu, PERFBENCH_BUILD_TYPE, chosen->name,
      static_cast<unsigned long long>(config.seed), config.seconds,
      config.trace ? 1 : 0);
  std::fflush(stdout);

  const WorkloadOutput out = chosen->run(config);

  for (const Metric& m : out.metrics) {
    std::printf("metric  %-28s %16.6g %-6s n=%zu%s%s\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples, m.note.empty() ? "" : "  ",
                m.note.c_str());
  }
  for (const Metric& m : out.detail) {
    std::printf("detail  %-28s %16.6g %-6s n=%zu%s%s\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples, m.note.empty() ? "" : "  ",
                m.note.c_str());
  }
  for (const std::string& fact : out.facts) std::printf("fact    %s\n", fact.c_str());
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }

  RunResult result;
  result.correct = out.errors.empty();
  result.attempted = std::max<uint64_t>(out.attempted, 1);
  result.failed = out.failed;
  result.metrics = out.metrics;
  std::string error;
  const std::string line = EmitResult(result, &error);
  RunResult parsed;
  if (line.empty() || !ParseResult(line, &parsed, &error) ||
      parsed.metrics.size() != result.metrics.size()) {
    std::fprintf(stderr, "sep2p_perfbench: bad result line: %s\n",
                 error.c_str());
    return 2;
  }
  std::printf("%s\n", line.c_str());
  return result.correct ? 0 : 1;
}
