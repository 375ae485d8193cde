// TaskMempool lifecycle, conservation and digest determinism
// (engine/mempool.h).

#include "engine/mempool.h"

#include <gtest/gtest.h>

namespace sep2p::engine {
namespace {

TEST(MempoolTest, SubmitAssignsDenseIdsInOrder) {
  TaskMempool pool;
  EXPECT_EQ(pool.Submit(TaskKind::kSelection, 3, 0, 11), 0u);
  EXPECT_EQ(pool.Submit(TaskKind::kDiffusion, 5, 100, 22), 1u);
  EXPECT_EQ(pool.Submit(TaskKind::kQuery, 7, 200, 33), 2u);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.task(1).kind, TaskKind::kDiffusion);
  EXPECT_EQ(pool.task(1).trigger, 5u);
  EXPECT_EQ(pool.task(1).arrival_us, 100u);
  EXPECT_EQ(pool.task(1).seed, 22u);
  EXPECT_EQ(pool.task(1).state, TaskState::kPending);
}

TEST(MempoolTest, LifecycleCountsAndDelays) {
  TaskMempool pool;
  pool.Submit(TaskKind::kSelection, 0, 1'000, 1);
  pool.Submit(TaskKind::kSelection, 1, 2'000, 2);
  pool.Submit(TaskKind::kSelection, 2, 3'000, 3);
  EXPECT_EQ(pool.submitted(), 3u);
  EXPECT_EQ(pool.admitted(), 0u);

  pool.Admit(0, 1'000);
  pool.Admit(1, 5'000);  // queued 3ms behind the window
  EXPECT_EQ(pool.in_flight(), 2u);
  EXPECT_FALSE(pool.AllResolved());

  pool.Complete(0, 9'000, /*result_digest=*/0xabc, /*restarts=*/1);
  pool.Fail(1, 6'000);
  EXPECT_EQ(pool.completed(), 1u);
  EXPECT_EQ(pool.failed(), 1u);
  EXPECT_TRUE(pool.AllResolved());

  EXPECT_EQ(pool.task(0).queue_delay_us(), 0u);
  EXPECT_EQ(pool.task(0).latency_us(), 8'000u);
  EXPECT_EQ(pool.task(1).queue_delay_us(), 3'000u);
  EXPECT_EQ(pool.task(0).restarts, 1);
  EXPECT_EQ(pool.task(0).result_digest, 0xabcu);
}

TEST(MempoolTest, ResultsDigestIsAFunctionOfCompletedTasks) {
  auto run = [](uint64_t digest0, bool fail_second) {
    TaskMempool pool;
    pool.Submit(TaskKind::kSelection, 0, 0, 1);
    pool.Submit(TaskKind::kSelection, 1, 10, 2);
    pool.Admit(0, 0);
    pool.Admit(1, 10);
    pool.Complete(0, 100, digest0, 0);
    if (fail_second) {
      pool.Fail(1, 50);
    } else {
      pool.Complete(1, 200, 0xbeef, 0);
    }
    return pool.ResultsDigest();
  };
  // Identical histories agree; any change to a completed task's result,
  // or to the completed set, changes the digest.
  EXPECT_EQ(run(0xaa, false), run(0xaa, false));
  EXPECT_NE(run(0xaa, false), run(0xab, false));
  EXPECT_NE(run(0xaa, false), run(0xaa, true));
  // Failed tasks do not contribute: two runs that fail task 1 agree
  // regardless of what task 1 would have produced.
  EXPECT_EQ(run(0xaa, true), run(0xaa, true));
}

}  // namespace
}  // namespace sep2p::engine
