// Integer flags of the bench binaries: well-formed values parse in both
// spellings, and malformed ones stop the binary with status 2 instead of
// silently selecting a default.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace sep2p::bench {
namespace {

// argv for `args`, with a program name in front.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "bench");
    for (std::string& arg : storage_) pointers_.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

int Threads(std::vector<std::string> args) {
  Argv a(std::move(args));
  return ThreadsArg(a.argc(), a.argv());
}

int TraceTrials(std::vector<std::string> args) {
  Argv a(std::move(args));
  return TraceTrialsArg(a.argc(), a.argv());
}

TEST(BenchFlagsTest, WellFormedValuesParse) {
  EXPECT_EQ(Threads({}), 0);
  EXPECT_EQ(Threads({"--quick"}), 0);
  EXPECT_EQ(Threads({"--threads=4"}), 4);
  EXPECT_EQ(Threads({"--threads", "3"}), 3);
  EXPECT_EQ(Threads({"--threads=0"}), 0);
  EXPECT_EQ(Threads({"--threads=2", "--threads=5"}), 2);  // first wins
  EXPECT_EQ(TraceTrials({}), 1);
  EXPECT_EQ(TraceTrials({"--trace-trials=7"}), 7);
  EXPECT_EQ(TraceTrials({"--trace-trials", "0"}), 0);
  // Flags sharing a prefix are not confused with each other.
  EXPECT_EQ(TraceTrials({"--trace=out.json", "--trace", "t"}), 1);
  EXPECT_EQ(Threads({"--threadsx=9"}), 0);
}

TEST(BenchFlagsTest, MalformedValuesExitWithStatusTwo) {
  for (const char* bad : {"abc", "-3", "", "4x", "+4", " 4", "1e3",
                          "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_EXIT(Threads({std::string("--threads=") + bad}),
                testing::ExitedWithCode(2), "--threads");
  }
  EXPECT_EXIT(Threads({"--threads", "abc"}), testing::ExitedWithCode(2),
              "--threads");
  EXPECT_EXIT(TraceTrials({"--trace-trials=-1"}),
              testing::ExitedWithCode(2), "--trace-trials");
}

// The provenance block names the run's --threads value and mode, and a
// calibration measured over the machine's hardware threads.
TEST(BenchFlagsTest, ProvenanceRecordsThreadsAndMode) {
  Argv quick({"--quick", "--threads", "3"});
  const std::string block = ProvenanceJson(quick.argc(), quick.argv());
  EXPECT_EQ(block.rfind("  \"provenance\": {\"commit\": \"", 0), 0u) << block;
  EXPECT_NE(block.find("\"threads\": 3, \"mode\": \"quick\"}"),
            std::string::npos)
      << block;
  EXPECT_NE(block.find("\"hardware_concurrency\": "), std::string::npos);
  EXPECT_NE(block.find("\"effective_parallelism\": "), std::string::npos);
  EXPECT_EQ(block.substr(block.size() - 2), ",\n");
}

}  // namespace
}  // namespace sep2p::bench
