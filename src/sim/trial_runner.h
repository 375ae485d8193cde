// TrialRunner: deterministic parallel execution of Monte-Carlo trials.
//
// Trial t draws from an independent Rng seeded as
// SplitMix64(seed, t) (see StreamSeed below), so any trial can run on
// any worker at any time and still produce exactly the bytes it would
// have produced alone.
//
// Determinism contract — results are bit-identical regardless of thread
// count or scheduling, because nothing order-dependent leaks out of a
// trial:
//   * randomness: per-trial streams (StreamSeed), never a shared Rng;
//   * accumulation: trials are grouped into fixed shards of kShardSize
//     consecutive trials (a function of the trial count only, never the
//     thread count). Each shard owns its OnlineStats et al.; shards are
//     merged serially in shard order after the parallel section
//     (OnlineStats::Merge is the parallel-safe combine);
//   * shared simulator state (Network, Directory): read-only during a
//     parallel section. Mutations (ReassignColluders) happen at barrier
//     points between sections;
//   * errors: the failing trial with the lowest index wins, matching
//     what a serial loop would have reported first.
//
// RunPoint applies every rule above to one sweep point, so the
// experiment harnesses (sim/experiment.h, attack/sweep.h) only say what
// a trial does and how its results fold.

#ifndef SEP2P_SIM_TRIAL_RUNNER_H_
#define SEP2P_SIM_TRIAL_RUNNER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sep2p::sim {

// Seed of trial stream `index`: one SplitMix64 step over a seed-derived
// state. Statistically independent streams for free — SplitMix64 is a
// bijective mixer, so distinct (seed, index) pairs give distinct
// well-mixed outputs.
uint64_t StreamSeed(uint64_t seed, uint64_t index);

// Folds experiment-level labels (c_fraction index, strategy index, a
// purpose salt) into a base seed, so sweeps that share a Parameters::seed
// still draw from disjoint stream families.
uint64_t MixSeed(uint64_t seed, uint64_t salt, uint64_t a = 0,
                 uint64_t b = 0);

// Optional per-sweep observers, threaded through every harness. Both
// hooks are strictly passive (obs/trace.h, obs/metrics.h): an observed
// sweep produces bit-identical tables to an unobserved one, for any
// Parameters::threads value.
struct SweepObservers {
  // Record the first min(trace_trials, trials) trials of the FIRST
  // sweep point, one recorder per trial: RunPoint resizes `recorders`
  // and trial t writes only slot t, so parallel sweeps stay race-free
  // and the slot order is the trial order. nullptr = off.
  int trace_trials = 1;
  std::vector<obs::TraceRecorder>* recorders = nullptr;
  // Merged metrics snapshot over EVERY trial of EVERY point. Trials
  // accumulate into shard-local registries which merge in shard order
  // after each point (MetricsRegistry::Merge is commutative anyway,
  // with fixed histogram buckets), so the snapshot is bit-identical for
  // any thread count. nullptr = off.
  obs::MetricsRegistry* metrics = nullptr;
};

// One trial of a sweep point, as RunPoint hands it to the harness.
struct Trial {
  int t;        // trial index within the point
  int shard;    // t / TrialRunner::kShardSize; indexes per-shard state
  util::Rng& rng;  // the trial's own stream, Rng(StreamSeed(seed, t))
  obs::TraceRecorder* rec;    // the trial's recorder slot, or nullptr
  obs::MetricsRegistry* met;  // the shard's registry, or nullptr
};

class TrialRunner {
 public:
  // Fixed shard width for per-shard accumulation, and the length of a
  // colluder-reassignment epoch, so an epoch is exactly one shard.
  static constexpr int kShardSize = 16;

  // `threads` as in Parameters::threads: >= 1 literal, else one per
  // hardware thread. A resolved count of 1 uses no worker threads at
  // all (inline execution).
  explicit TrialRunner(int threads);

  int threads() const { return threads_; }
  util::ThreadPool& pool() { return pool_; }

  static int ShardCount(int trials) {
    return (trials + kShardSize - 1) / kShardSize;
  }

  // Runs trials [0, trials) of sweep point `point`: trial_fn once per
  // trial with rng = Rng(StreamSeed(seed, t)). The shards of kShardSize
  // trials are the unit of scheduling; one worker runs a shard's trials
  // in trial order, so per-shard state indexed by Trial::shard needs no
  // lock. `trial_fn` must confine its writes to per-trial or per-shard
  // state it owns.
  //
  // `observers` (may be nullptr): point 0 sizes the recorder slots, and
  // its first trace_trials trials get one each; every trial gets its
  // shard's registry, counts into Counter::kTrials, and the registries
  // merge into observers->metrics in shard order once every trial has
  // succeeded.
  //
  // `on_epoch` (may be empty) is the barrier for mutating shared state:
  // on_epoch(e) runs on the calling thread before the trials of shard
  // e, and the shards then run one after another, with no trial in
  // flight during a barrier.
  //
  // Returns the error of the lowest-indexed failing trial, or OK. With
  // `on_epoch` set, no shard after the failing one runs.
  Status RunPoint(size_t point, int trials, uint64_t seed,
                  const SweepObservers* observers,
                  const std::function<void(int)>& on_epoch,
                  const std::function<Status(const Trial&)>& trial_fn);

  // Shard-level variant for loops that are not protocol trials:
  // fn(shard, begin, end) with [begin, end) the trial range of `shard`.
  // Per-trial seeding stays the caller's job (use StreamSeed(seed, t)
  // per trial so shard width never leaks into the random stream).
  Status RunShards(int trials,
                   const std::function<Status(int, int, int)>& fn);

 private:
  int threads_;
  util::ThreadPool pool_;
};

}  // namespace sep2p::sim

#endif  // SEP2P_SIM_TRIAL_RUNNER_H_
