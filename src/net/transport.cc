#include "net/transport.h"

#include <algorithm>

#include "core/messages.h"

namespace sep2p::net {

void Transport::Register(uint8_t tag, Handler handler) {
  handlers_[tag] = std::move(handler);
}

void Transport::RegisterNode(uint32_t node, uint8_t tag, Handler handler) {
  node_handlers_[{node, tag}] = std::move(handler);
}

void Transport::UnregisterNode(uint32_t node, uint8_t tag) {
  node_handlers_.erase({node, tag});
}

std::optional<std::vector<uint8_t>> Transport::Dispatch(
    uint32_t server, const std::vector<uint8_t>& request) {
  Result<uint8_t> tag = core::msg::PeekTag(request);
  if (!tag.ok()) return std::nullopt;
  if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kDispatches);
  if (trace_ != nullptr) {
    obs::Event e;
    e.t_us = trace_->now_us();  // the transport parks its clock on arrival
    e.kind = obs::EventKind::kDispatch;
    e.node = server;
    e.value = tag.value();
    trace_->Record(std::move(e));
  }
  auto node_it = node_handlers_.find({server, tag.value()});
  if (node_it != node_handlers_.end()) {
    return node_it->second(server, request);
  }
  auto it = handlers_.find(tag.value());
  if (it == handlers_.end()) return std::nullopt;
  return it->second(server, request);
}

Transport::RpcResult Transport::RunRpc(uint32_t client, uint32_t server,
                                       const std::vector<uint8_t>& request,
                                       const Handler& handler) {
  RpcResult result;
  RpcCall call{client, server, 0, request, handler};
  uint64_t rpc_start = 0;
  {
    AccountingStep step = BeginAccounting();
    call.rpc = ++next_rpc_id_;
    rpc_start = step.now_us;
    if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kRpcsBegun);
    RecordRpcEvent(call, obs::EventKind::kRpcBegin, step.now_us, 0);
  }
  uint64_t backoff = retry_.backoff_base_us;
  for (int attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    result.attempts = attempt;
    {
      AccountingStep step = BeginAccounting();
      if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kRpcAttempts);
      RecordRpcEvent(call, obs::EventKind::kAttempt, step.now_us, attempt);
    }
    if (AttemptRpc(call, &result.reply)) {
      AccountingStep step = BeginAccounting();
      result.ok = true;
      if (metrics_ != nullptr) {
        metrics_->Observe(obs::Hist::kRpcLatencyUs, step.now_us - rpc_start);
        metrics_->Observe(obs::Hist::kRpcAttempts,
                          static_cast<uint64_t>(attempt));
      }
      RecordRpcEvent(call, obs::EventKind::kRpcEnd, step.now_us, attempt);
      return result;
    }
    const bool last = attempt == retry_.max_attempts;
    uint64_t wait = backoff;
    {
      AccountingStep step = BeginAccounting();
      ++stats_.timeouts;
      if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kTimeouts);
      RecordRpcEvent(call, obs::EventKind::kTimeout, step.now_us, attempt);
      if (!last) {
        ++stats_.retries;
        if (metrics_ != nullptr) metrics_->Inc(obs::Counter::kRetries);
        if (retry_.jitter_fraction > 0) {
          wait += static_cast<uint64_t>(static_cast<double>(backoff) *
                                        retry_.jitter_fraction *
                                        rng_.NextDouble());
        }
      }
    }
    if (last) break;
    WaitUs(wait);
    backoff = static_cast<uint64_t>(static_cast<double>(backoff) *
                                    retry_.backoff_factor);
    AccountingStep step = BeginAccounting();
    RecordRpcEvent(call, obs::EventKind::kRetry, step.now_us, attempt + 1);
  }
  AccountingStep step = BeginAccounting();
  ++stats_.rpc_failures;
  if (metrics_ != nullptr) {
    metrics_->Inc(obs::Counter::kRpcsFailed);
    metrics_->Observe(obs::Hist::kRpcAttempts,
                      static_cast<uint64_t>(retry_.max_attempts));
  }
  RecordRpcEvent(call, obs::EventKind::kRpcFail, step.now_us,
                 retry_.max_attempts);
  return result;
}

void Transport::RecordRpcEvent(const RpcCall& call, obs::EventKind kind,
                               uint64_t t_us, int attempt) {
  if (trace_ == nullptr) return;
  obs::Event e;
  e.t_us = t_us;
  e.kind = kind;
  e.node = call.client;
  e.peer = call.server;
  e.rpc = call.rpc;
  e.value = static_cast<uint64_t>(attempt);
  trace_->Record(std::move(e));
}

std::vector<Transport::RpcResult> Transport::CallBatch(
    const std::vector<Outgoing>& calls, const Handler& handler) {
  std::vector<RpcResult> results;
  results.reserve(calls.size());
  for (const Outgoing& out : calls) {
    results.push_back(Call(out.client, out.server, out.request, handler));
  }
  return results;
}

std::vector<Transport::RpcResult> Transport::CallMany(
    uint32_t client, const std::vector<uint32_t>& servers,
    const std::vector<std::vector<uint8_t>>& requests,
    const Handler& handler) {
  std::vector<Outgoing> calls;
  calls.reserve(servers.size());
  for (size_t i = 0; i < servers.size(); ++i) {
    calls.push_back({client, servers[i], requests[i]});
  }
  return CallBatch(calls, handler);
}

std::vector<Transport::RpcResult> Transport::Broadcast(
    uint32_t client, const std::vector<uint32_t>& servers,
    const std::vector<uint8_t>& request, const Handler& handler) {
  std::vector<Outgoing> calls;
  calls.reserve(servers.size());
  for (uint32_t server : servers) calls.push_back({client, server, request});
  return CallBatch(calls, handler);
}

Transport::QuorumResult Transport::EngageQuorum(
    uint32_t client, const std::vector<uint32_t>& candidates, int k,
    const std::function<std::vector<uint8_t>(uint32_t)>& make_request,
    const Handler& handler) {
  QuorumResult q;
  if (static_cast<int>(candidates.size()) < k) return q;
  const uint64_t retries_before = stats_.retries;
  q.members.assign(candidates.begin(), candidates.begin() + k);
  q.replies.resize(k);
  size_t next = static_cast<size_t>(k);

  // Wave 1 engages the first k candidates in parallel; each later wave
  // re-engages only the slots whose member was declared failed, with
  // the next spare substituted in.
  std::vector<int> pending(k);
  for (int i = 0; i < k; ++i) pending[i] = i;
  while (!pending.empty()) {
    std::vector<Outgoing> wave;
    wave.reserve(pending.size());
    for (int slot : pending) {
      wave.push_back({client, q.members[slot], make_request(q.members[slot])});
    }
    std::vector<RpcResult> results = CallBatch(wave, handler);

    std::vector<int> still_pending;
    for (size_t i = 0; i < pending.size(); ++i) {
      const int slot = pending[i];
      if (results[i].ok) {
        q.replies[slot] = std::move(results[i].reply);
        continue;
      }
      // Declared failed: substitute the next spare, if any remains.
      if (next >= candidates.size()) {
        q.retries = static_cast<int>(stats_.retries - retries_before);
        return q;  // quorum genuinely unreachable (ok = false)
      }
      if (trace_ != nullptr) {
        obs::Event e;
        e.t_us = now_us();
        e.kind = obs::EventKind::kMark;
        e.node = wave[i].server;
        e.peer = candidates[next];
        e.detail = "quorum-replacement";
        trace_->Record(std::move(e));
      }
      q.members[slot] = candidates[next++];
      ++q.replacements;
      ++stats_.quorum_replacements;
      if (metrics_ != nullptr) {
        metrics_->Inc(obs::Counter::kQuorumReplacements);
      }
      still_pending.push_back(slot);
    }
    pending.swap(still_pending);
  }
  q.ok = true;
  q.retries = static_cast<int>(stats_.retries - retries_before);
  return q;
}

void Transport::AdvanceRoute(int hops) {
  if (metrics_ != nullptr && hops > 0) {
    metrics_->Inc(obs::Counter::kRouteHops, static_cast<uint64_t>(hops));
  }
}

}  // namespace sep2p::net
