#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

namespace sep2p::obs {

namespace {

// Shared JSON/Prometheus label escaping (both escape `"` and `\`).
std::string EscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

const std::array<uint64_t, Histogram::kBoundCount>&
Histogram::BucketBounds() {
  static const std::array<uint64_t, kBoundCount> kBounds = {
      10,        20,        50,        100,       200,
      500,       1000,      2000,      5000,      10000,
      20000,     50000,     100000,    200000,    500000,
      1000000,   2000000,   5000000,   10000000,  20000000,
      50000000,  100000000, 200000000, 500000000, 1000000000,
  };
  return kBounds;
}

void Histogram::Observe(uint64_t value) {
  const auto& bounds = BucketBounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  const size_t idx = static_cast<size_t>(it - bounds.begin());
  ++buckets_[idx];  // idx == kBoundCount means overflow
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kBucketCount; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

uint64_t Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(q * count), with rank at least 1.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
  if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
  rank = std::max<uint64_t>(rank, 1);
  uint64_t cum = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    cum += buckets_[i];
    if (cum >= rank) {
      return i < kBoundCount ? BucketBounds()[i] : max_;
    }
  }
  return max_;
}

const char* CounterName(Counter c) {
  switch (c) {
    case Counter::kMessagesSent: return "messages_sent";
    case Counter::kMessagesDelivered: return "messages_delivered";
    case Counter::kMessagesDropped: return "messages_dropped";
    case Counter::kBytesSent: return "bytes_sent";
    case Counter::kLateReplies: return "late_replies";
    case Counter::kTimeouts: return "timeouts";
    case Counter::kRetries: return "retries";
    case Counter::kRpcsBegun: return "rpcs_begun";
    case Counter::kRpcAttempts: return "rpc_attempts";
    case Counter::kRpcsFailed: return "rpcs_failed";
    case Counter::kStepCrashes: return "step_crashes";
    case Counter::kQuorumReplacements: return "quorum_replacements";
    case Counter::kRouteHops: return "route_hops";
    case Counter::kDispatches: return "dispatches";
    case Counter::kCryptoSign: return "crypto_sign";
    case Counter::kCryptoVerify: return "crypto_verify";
    case Counter::kSelectionsCompleted: return "selections_completed";
    case Counter::kRelocations: return "relocations";
    case Counter::kRestarts: return "restarts";
    case Counter::kTrials: return "trials";
    case Counter::kTasksSubmitted: return "tasks_submitted";
    case Counter::kTasksAdmitted: return "tasks_admitted";
    case Counter::kTasksCompleted: return "tasks_completed";
    case Counter::kTasksFailed: return "tasks_failed";
    case Counter::kChurnJoins: return "churn_joins";
    case Counter::kChurnJoinsRejected: return "churn_joins_rejected";
    case Counter::kChurnLeaves: return "churn_leaves";
    case Counter::kChurnCrashes: return "churn_crashes";
    case Counter::kChurnCertsIssued: return "churn_certs_issued";
    case Counter::kCount: break;
  }
  return "unknown";
}

const char* HistName(Hist h) {
  switch (h) {
    case Hist::kRpcLatencyUs: return "rpc_latency_us";
    case Hist::kRpcAttempts: return "rpc_attempts_per_call";
    case Hist::kTrialLatencyUs: return "trial_latency_us";
    case Hist::kTaskQueueDelayUs: return "task_queue_delay_us";
    case Hist::kTaskLatencyUs: return "task_latency_us";
    case Hist::kCount: break;
  }
  return "unknown";
}

const char* NodeCounterName(NodeCounter c) {
  switch (c) {
    case NodeCounter::kMessages: return "messages";
    case NodeCounter::kCrypto: return "crypto_ops";
    case NodeCounter::kCount: break;
  }
  return "unknown";
}

void MetricsRegistry::EnablePerNode(uint32_t node_count) {
  const size_t want =
      static_cast<size_t>(node_count) * kNodeCounterCount;
  if (want > node_counters_.size()) node_counters_.resize(want, 0);
}

void MetricsRegistry::PushPhase(const char* name) {
  Phase& phase = phases_[name];  // creates on first use
  ++phase.entries;
  phase_stack_.push_back(current_phase_);
  current_phase_ = &phase;
}

void MetricsRegistry::PopPhase() {
  if (phase_stack_.empty()) {
    current_phase_ = nullptr;
    return;
  }
  current_phase_ = phase_stack_.back();
  phase_stack_.pop_back();
}

uint64_t MetricsRegistry::phase_counter(const std::string& phase,
                                        Counter c) const {
  const auto it = phases_.find(phase);
  if (it == phases_.end()) return 0;
  return it->second.counters[static_cast<size_t>(c)];
}

std::vector<std::string> MetricsRegistry::PhaseNames() const {
  std::vector<std::string> names;
  names.reserve(phases_.size());
  for (const auto& [name, phase] : phases_) names.push_back(name);
  return names;
}

bool MetricsRegistry::empty() const {
  for (uint64_t c : counters_) {
    if (c != 0) return false;
  }
  for (const auto& h : hists_) {
    if (h.count() != 0) return false;
  }
  return phases_.empty() && gauges_.empty();
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (size_t i = 0; i < kCounterCount; ++i) {
    counters_[i] += other.counters_[i];
  }
  for (size_t i = 0; i < kHistCount; ++i) {
    hists_[i].Merge(other.hists_[i]);
  }
  for (const auto& [name, theirs] : other.phases_) {
    Phase& ours = phases_[name];
    for (size_t i = 0; i < kCounterCount; ++i) {
      ours.counters[i] += theirs.counters[i];
    }
    ours.entries += theirs.entries;
  }
  for (const auto& [name, value] : other.gauges_) {
    gauges_[name] = value;
  }
  if (other.node_counters_.size() > node_counters_.size()) {
    node_counters_.resize(other.node_counters_.size(), 0);
  }
  for (size_t i = 0; i < other.node_counters_.size(); ++i) {
    node_counters_[i] += other.node_counters_[i];
  }
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::ostringstream os;
  for (const auto& [name, value] : gauges_) {
    os << "# TYPE sep2p_" << name << " gauge\n";
    os << "sep2p_" << name << " " << FormatDouble(value) << "\n";
  }
  for (size_t i = 0; i < kCounterCount; ++i) {
    const char* name = CounterName(static_cast<Counter>(i));
    os << "# TYPE sep2p_" << name << " counter\n";
    os << "sep2p_" << name << " " << counters_[i] << "\n";
    for (const auto& [phase, row] : phases_) {
      const uint64_t v = row.counters[i];
      if (v == 0) continue;
      os << "sep2p_" << name << "{phase=\"" << EscapeString(phase)
         << "\"} " << v << "\n";
    }
  }
  os << "# TYPE sep2p_phase_entries counter\n";
  for (const auto& [phase, row] : phases_) {
    os << "sep2p_phase_entries{phase=\"" << EscapeString(phase) << "\"} "
       << row.entries << "\n";
  }
  const auto& bounds = Histogram::BucketBounds();
  for (size_t i = 0; i < kHistCount; ++i) {
    const Histogram& h = hists_[i];
    if (h.count() == 0) continue;
    const char* name = HistName(static_cast<Hist>(i));
    os << "# TYPE sep2p_" << name << " histogram\n";
    uint64_t cum = 0;
    for (size_t b = 0; b < Histogram::kBucketCount; ++b) {
      cum += h.buckets()[b];
      os << "sep2p_" << name << "_bucket{le=\"";
      if (b < Histogram::kBoundCount) {
        os << bounds[b];
      } else {
        os << "+Inf";
      }
      os << "\"} " << cum << "\n";
    }
    os << "sep2p_" << name << "_sum " << h.sum() << "\n";
    os << "sep2p_" << name << "_count " << h.count() << "\n";
  }
  // Top per-node rows by departing messages (at most 10, ties broken by
  // node id so output is deterministic).
  if (!node_counters_.empty()) {
    const size_t nodes = node_counters_.size() / kNodeCounterCount;
    std::vector<uint32_t> order;
    for (size_t n = 0; n < nodes; ++n) {
      if (node_counter(static_cast<uint32_t>(n),
                       NodeCounter::kMessages) > 0 ||
          node_counter(static_cast<uint32_t>(n), NodeCounter::kCrypto) >
              0) {
        order.push_back(static_cast<uint32_t>(n));
      }
    }
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      const uint64_t ma = node_counter(a, NodeCounter::kMessages);
      const uint64_t mb = node_counter(b, NodeCounter::kMessages);
      if (ma != mb) return ma > mb;
      return a < b;
    });
    if (order.size() > 10) order.resize(10);
    for (size_t i = 0; i < kNodeCounterCount; ++i) {
      const char* name = NodeCounterName(static_cast<NodeCounter>(i));
      os << "# TYPE sep2p_node_" << name << " counter\n";
      for (uint32_t n : order) {
        os << "sep2p_node_" << name << "{node=\"" << n << "\"} "
           << node_counter(n, static_cast<NodeCounter>(i)) << "\n";
      }
    }
  }
  return os.str();
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream os;
  os << "{";
  os << "\"gauges\":{";
  bool first = true;
  for (const auto& [name, value] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << EscapeString(name) << "\":" << FormatDouble(value);
  }
  os << "},\"counters\":{";
  for (size_t i = 0; i < kCounterCount; ++i) {
    if (i > 0) os << ",";
    os << "\"" << CounterName(static_cast<Counter>(i))
       << "\":" << counters_[i];
  }
  os << "},\"phases\":{";
  first = true;
  for (const auto& [phase, row] : phases_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << EscapeString(phase) << "\":{\"entries\":" << row.entries;
    for (size_t i = 0; i < kCounterCount; ++i) {
      if (row.counters[i] == 0) continue;
      os << ",\"" << CounterName(static_cast<Counter>(i))
         << "\":" << row.counters[i];
    }
    os << "}";
  }
  os << "},\"histograms\":{";
  first = true;
  const auto& bounds = Histogram::BucketBounds();
  for (size_t i = 0; i < kHistCount; ++i) {
    const Histogram& h = hists_[i];
    if (h.count() == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "\"" << HistName(static_cast<Hist>(i)) << "\":{";
    os << "\"count\":" << h.count() << ",\"sum\":" << h.sum()
       << ",\"min\":" << h.min() << ",\"max\":" << h.max();
    os << ",\"p50\":" << h.Quantile(0.50)
       << ",\"p90\":" << h.Quantile(0.90)
       << ",\"p99\":" << h.Quantile(0.99);
    os << ",\"buckets\":[";
    for (size_t b = 0; b < Histogram::kBucketCount; ++b) {
      if (b > 0) os << ",";
      os << "[";
      if (b < Histogram::kBoundCount) {
        os << bounds[b];
      } else {
        os << "-1";
      }
      os << "," << h.buckets()[b] << "]";
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

}  // namespace sep2p::obs
