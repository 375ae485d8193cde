// Micro-benchmarks for the primitives underlying the cost model:
// SHA-256 and HMAC (free in the paper's accounting), Ed25519 sign/verify (the
// "asymmetric crypto operation" unit), Chord/CAN routing, region
// queries, and the k-table math. These calibrate what one unit of the
// paper's metrics costs on real hardware.

#include <benchmark/benchmark.h>

#include "core/ktable.h"
#include "core/probability.h"
#include "crypto/ed25519_provider.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sim_provider.h"
#include "dht/can.h"
#include "dht/chord.h"
#include "sim/network.h"

namespace {

using namespace sep2p;

void BM_Sha256(benchmark::State& state) {
  std::vector<uint8_t> data(state.range(0));
  util::Rng rng(1);
  rng.FillBytes(data.data(), data.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

// HMAC-SHA256 over a 100-byte message with a 32-byte key: the shape of a
// SimProvider signature, the hash call the simulated sign/verify path
// makes.
void BM_Hmac(benchmark::State& state) {
  util::Rng rng(4);
  std::vector<uint8_t> key(32), msg(100);
  rng.FillBytes(key.data(), key.size());
  rng.FillBytes(msg.data(), msg.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacSha256(key, msg));
  }
}
BENCHMARK(BM_Hmac);

template <typename Provider>
void BM_Sign(benchmark::State& state) {
  Provider provider;
  util::Rng rng(2);
  auto pair = provider.GenerateKeyPair(rng);
  std::vector<uint8_t> msg(256);
  rng.FillBytes(msg.data(), msg.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.Sign(pair->priv, msg));
  }
}
BENCHMARK(BM_Sign<crypto::Ed25519Provider>)->Name("BM_Sign/ed25519");
BENCHMARK(BM_Sign<crypto::SimProvider>)->Name("BM_Sign/sim");

template <typename Provider>
void BM_Verify(benchmark::State& state) {
  Provider provider;
  util::Rng rng(3);
  auto pair = provider.GenerateKeyPair(rng);
  std::vector<uint8_t> msg(256);
  rng.FillBytes(msg.data(), msg.size());
  auto sig = provider.Sign(pair->priv, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.Verify(pair->pub, msg, *sig));
  }
}
BENCHMARK(BM_Verify<crypto::Ed25519Provider>)->Name("BM_Verify/ed25519");
BENCHMARK(BM_Verify<crypto::SimProvider>)->Name("BM_Verify/sim");

std::unique_ptr<sim::Network>& SharedNetwork(size_t n) {
  static std::map<size_t, std::unique_ptr<sim::Network>> cache;
  auto& slot = cache[n];
  if (!slot) {
    sim::Parameters params;
    params.n = n;
    params.cache_size = 256;
    slot = std::move(sim::Network::Build(params).value());
  }
  return slot;
}

void BM_ChordRoute(benchmark::State& state) {
  auto& net = SharedNetwork(state.range(0));
  util::Rng rng(4);
  for (auto _ : state) {
    uint32_t from = rng.NextUint64(net->directory().size());
    dht::RingPos target = (static_cast<dht::RingPos>(rng.NextUint64())
                           << 64) |
                          rng.NextUint64();
    benchmark::DoNotOptimize(net->chord().Route(from, target));
  }
}
BENCHMARK(BM_ChordRoute)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CanRoute(benchmark::State& state) {
  auto& net = SharedNetwork(state.range(0));
  auto& can = net->can();
  util::Rng rng(5);
  int i = 0;
  for (auto _ : state) {
    uint32_t from = rng.NextUint64(net->directory().size());
    dht::NodeId key = dht::NodeId::Of("bench-" + std::to_string(i++));
    benchmark::DoNotOptimize(can.Route(from, key));
  }
}
BENCHMARK(BM_CanRoute)->Arg(1000)->Arg(10000);

void BM_RegionQuery(benchmark::State& state) {
  auto& net = SharedNetwork(10000);
  util::Rng rng(6);
  double rs = static_cast<double>(state.range(0)) / 10000.0;
  for (auto _ : state) {
    dht::RingPos center = (static_cast<dht::RingPos>(rng.NextUint64())
                           << 64) |
                          rng.NextUint64();
    benchmark::DoNotOptimize(
        net->directory().NodesInRegion(dht::Region::Centered(center, rs)));
  }
}
BENCHMARK(BM_RegionQuery)->Arg(32)->Arg(512)->Arg(4096);

void BM_KTableBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::KTable::Build(10000000, state.range(0), 1e-6));
  }
}
BENCHMARK(BM_KTableBuild)->Arg(100)->Arg(10000)->Arg(100000);

void BM_BinomialTail(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BinomialTail(6, 10000000, 1e-6));
  }
}
BENCHMARK(BM_BinomialTail);

}  // namespace

BENCHMARK_MAIN();
