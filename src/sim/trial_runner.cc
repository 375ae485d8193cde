#include "sim/trial_runner.h"

#include <algorithm>
#include <mutex>

namespace sep2p::sim {

uint64_t StreamSeed(uint64_t seed, uint64_t index) {
  // Golden-ratio offset decorrelates (seed, index) from (seed + 1,
  // index - 1) style collisions before the SplitMix64 finalizer runs.
  uint64_t state = seed + index * 0x9e3779b97f4a7c15ULL;
  return util::SplitMix64(state);
}

uint64_t MixSeed(uint64_t seed, uint64_t salt, uint64_t a, uint64_t b) {
  uint64_t state = seed ^ salt;
  uint64_t mixed = util::SplitMix64(state);
  state = mixed + a * 0x9e3779b97f4a7c15ULL;
  mixed = util::SplitMix64(state);
  state = mixed + b * 0x9e3779b97f4a7c15ULL;
  return util::SplitMix64(state);
}

TrialRunner::TrialRunner(int threads)
    : threads_(util::ThreadPool::ResolveThreads(threads)),
      // threads == 1 → zero workers: the calling thread does everything
      // inline and no synchronization exists at all.
      pool_(threads_ <= 1 ? 0 : threads_) {}

Status TrialRunner::RunShards(
    int trials, const std::function<Status(int, int, int)>& fn) {
  if (trials <= 0) return Status::Ok();
  const int shards = ShardCount(trials);

  // First failing shard (by index) wins; within a shard the callback is
  // serial, so "first by shard" == "first by trial".
  std::mutex error_mutex;
  int error_shard = shards;
  Status error = Status::Ok();

  pool_.ParallelFor(static_cast<size_t>(shards), [&](size_t s) {
    const int begin = static_cast<int>(s) * kShardSize;
    const int end = std::min(begin + kShardSize, trials);
    Status status = fn(static_cast<int>(s), begin, end);
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (static_cast<int>(s) < error_shard) {
        error_shard = static_cast<int>(s);
        error = std::move(status);
      }
    }
  });
  return error;
}

Status TrialRunner::RunPoint(
    size_t point, int trials, uint64_t seed, const SweepObservers* observers,
    const std::function<Status(const Trial&)>& trial_fn) {
  // Only point 0 records; the resize is the one write that touches more
  // than one slot, so it happens before any trial runs.
  std::vector<obs::TraceRecorder>* recorders =
      observers != nullptr && point == 0 ? observers->recorders : nullptr;
  if (recorders != nullptr) {
    recorders->clear();
    recorders->resize(
        static_cast<size_t>(std::clamp(observers->trace_trials, 0, trials)));
  }
  std::vector<obs::MetricsRegistry> shard_metrics(
      observers != nullptr && observers->metrics != nullptr
          ? static_cast<size_t>(ShardCount(trials))
          : 0);

  Status status = RunShards(trials, [&](int shard, int begin, int end) {
    obs::MetricsRegistry* met =
        shard_metrics.empty() ? nullptr
                              : &shard_metrics[static_cast<size_t>(shard)];
    for (int t = begin; t < end; ++t) {
      util::Rng rng(StreamSeed(seed, static_cast<uint64_t>(t)));
      obs::TraceRecorder* rec =
          recorders != nullptr && static_cast<size_t>(t) < recorders->size()
              ? &(*recorders)[static_cast<size_t>(t)]
              : nullptr;
      if (met != nullptr) met->Inc(obs::Counter::kTrials);
      Status trial_status = trial_fn(Trial{t, shard, rng, rec, met});
      if (!trial_status.ok()) return trial_status;
    }
    return Status::Ok();
  });
  if (!status.ok()) return status;

  for (const obs::MetricsRegistry& shard : shard_metrics) {
    observers->metrics->Merge(shard);
  }
  return Status::Ok();
}

}  // namespace sep2p::sim
