#include "dht/directory.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace sep2p::dht {

Directory::Directory(std::vector<NodeRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const NodeRecord& a, const NodeRecord& b) {
              if (a.pos != b.pos) return a.pos < b.pos;
              return a.id < b.id;
            });
  const size_t n = records.size();
  positions_.reserve(n);
  ids_.reserve(n);
  pubs_.reserve(n);
  serials_.reserve(n);
  flags_.reserve(n);
  order_.reserve(n);
  rank_.reserve(n);
  sorted_pos_.reserve(n);
  for (NodeRecord& r : records) AppendColumns(r);
  // After construction handle == rank (records were sorted first).
  order_.resize(n);
  rank_.resize(n);
  std::iota(order_.begin(), order_.end(), 0u);
  std::iota(rank_.begin(), rank_.end(), 0u);
  sorted_pos_ = positions_;
  RebuildFenwick();
}

void Directory::AppendColumns(const NodeRecord& record) {
  positions_.push_back(record.pos);
  ids_.push_back(record.id);
  pubs_.push_back(record.pub);
  serials_.push_back(record.cert.serial);
  uint8_t flags = 0;
  if (record.alive) {
    flags |= kAliveBit;
    ++alive_count_;
  }

  if (!record.priv.data.empty()) {
    if (priv_stride_ == 0) {
      priv_stride_ = record.priv.data.size();
      privs_.resize(priv_stride_ * (positions_.size() - 1), 0);
    }
    assert(record.priv.data.size() == priv_stride_);
  }
  if (priv_stride_ != 0) {
    privs_.resize(priv_stride_ * positions_.size(), 0);
    if (!record.priv.data.empty()) {
      std::copy(record.priv.data.begin(), record.priv.data.end(),
                privs_.end() - static_cast<ptrdiff_t>(priv_stride_));
    }
  }

  if (!record.cert.ca_signature.empty()) {
    if (sig_stride_ == 0) {
      sig_stride_ = record.cert.ca_signature.size();
      cert_sigs_.resize(sig_stride_ * (positions_.size() - 1), 0);
    }
    assert(record.cert.ca_signature.size() == sig_stride_);
    flags |= kCertBit;
  }
  if (sig_stride_ != 0) {
    cert_sigs_.resize(sig_stride_ * positions_.size(), 0);
    if (!record.cert.ca_signature.empty()) {
      std::copy(record.cert.ca_signature.begin(),
                record.cert.ca_signature.end(),
                cert_sigs_.end() - static_cast<ptrdiff_t>(sig_stride_));
    }
  }
  flags_.push_back(flags);
}

crypto::PrivateKey Directory::priv(uint32_t index) const {
  crypto::PrivateKey key;
  if (priv_stride_ == 0) return key;
  const uint8_t* base = privs_.data() + priv_stride_ * index;
  key.data.assign(base, base + priv_stride_);
  return key;
}

crypto::Certificate Directory::cert(uint32_t index) const {
  crypto::Certificate cert;
  cert.subject = pubs_[index];
  cert.serial = serials_[index];
  if (has_cert(index) && sig_stride_ != 0) {
    const uint8_t* base = cert_sigs_.data() + sig_stride_ * index;
    cert.ca_signature.assign(base, base + sig_stride_);
  }
  return cert;
}

void Directory::SetCertSignature(uint32_t index,
                                 const crypto::Signature& sig) {
  assert(!sig.empty());
  if (sig_stride_ == 0) {
    sig_stride_ = sig.size();
    cert_sigs_.resize(sig_stride_ * positions_.size(), 0);
  }
  assert(sig.size() == sig_stride_);
  std::copy(sig.begin(), sig.end(),
            cert_sigs_.begin() + static_cast<ptrdiff_t>(sig_stride_ * index));
  flags_[index] |= kCertBit;
}

void Directory::SetAlive(uint32_t index, bool alive) {
  const bool was = (flags_[index] & kAliveBit) != 0;
  if (was == alive) {
    if (alive) flags_[index] &= static_cast<uint8_t>(~kCrashedBit);
    return;
  }
  if (alive) {
    flags_[index] |= kAliveBit;
    flags_[index] &= static_cast<uint8_t>(~kCrashedBit);
    ++alive_count_;
    FenwickAdd(rank_[index], +1);
  } else {
    flags_[index] &= static_cast<uint8_t>(~kAliveBit);
    --alive_count_;
    FenwickAdd(rank_[index], -1);
  }
}

void Directory::MarkCrashed(uint32_t index) {
  SetAlive(index, false);
  flags_[index] |= kCrashedBit;
}

uint32_t Directory::AddNode(NodeRecord record) {
  const uint32_t handle = static_cast<uint32_t>(size());
  // Insertion rank: equal positions order by id, matching the
  // constructor's sort, so incremental growth and a from-scratch
  // rebuild produce the identical ring order.
  size_t r = RankLowerBound(record.pos);
  while (r < sorted_pos_.size() && sorted_pos_[r] == record.pos &&
         ids_[order_[r]] < record.id) {
    ++r;
  }
  AppendColumns(record);
  order_.insert(order_.begin() + static_cast<ptrdiff_t>(r), handle);
  sorted_pos_.insert(sorted_pos_.begin() + static_cast<ptrdiff_t>(r),
                     record.pos);
  rank_.push_back(0);
  for (size_t j = r; j < order_.size(); ++j) rank_[order_[j]] = j;
  RebuildFenwick();
  return handle;
}

// --------------------------------------------------------------- ranks

size_t Directory::RankLowerBound(RingPos pos) const {
  size_t lo = 0, hi = sorted_pos_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (sorted_pos_[mid] < pos) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t Directory::RankUpperBound(RingPos pos) const {
  size_t lo = 0, hi = sorted_pos_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (sorted_pos_[mid] <= pos) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// ------------------------------------------------------------- fenwick

void Directory::RebuildFenwick() {
  const size_t n = size();
  fenwick_.assign(n + 1, 0);
  for (size_t r = 0; r < n; ++r) {
    if ((flags_[order_[r]] & kAliveBit) != 0) {
      for (size_t i = r + 1; i <= n; i += i & (~i + 1)) ++fenwick_[i];
    }
  }
}

void Directory::FenwickAdd(size_t rank, int delta) {
  for (size_t i = rank + 1; i < fenwick_.size(); i += i & (~i + 1)) {
    fenwick_[i] = static_cast<uint32_t>(static_cast<int64_t>(fenwick_[i]) +
                                        delta);
  }
}

size_t Directory::AliveBefore(size_t rank) const {
  size_t sum = 0;
  for (size_t i = rank; i > 0; i -= i & (~i + 1)) sum += fenwick_[i];
  return sum;
}

size_t Directory::SelectAlive(size_t k) const {
  assert(k < alive_count_);
  // Binary lifting over the implicit Fenwick prefix sums: find the
  // smallest rank whose prefix count is k + 1.
  size_t pos = 0;
  size_t remaining = k + 1;
  size_t mask = 1;
  while ((mask << 1) < fenwick_.size()) mask <<= 1;
  for (; mask > 0; mask >>= 1) {
    size_t next = pos + mask;
    if (next < fenwick_.size() && fenwick_[next] < remaining) {
      pos = next;
      remaining -= fenwick_[next];
    }
  }
  return pos;  // ranks are 0-based; `pos` is the last rank with prefix < k+1
}

// ------------------------------------------------------------- queries

std::optional<uint32_t> Directory::SuccessorIndex(RingPos pos) const {
  if (alive_count_ == 0) return std::nullopt;
  const size_t before = AliveBefore(RankLowerBound(pos));
  const size_t k = before == alive_count_ ? 0 : before;  // wrap
  return order_[SelectAlive(k)];
}

std::optional<uint32_t> Directory::PredecessorIndex(RingPos pos) const {
  if (alive_count_ == 0) return std::nullopt;
  const size_t r = RankLowerBound(pos);
  const size_t before = AliveBefore(r);
  if (before > 0) return order_[SelectAlive(before - 1)];
  // Wrap: prefer the last alive node with position strictly after
  // `pos`; nodes at exactly `pos` are not "strictly before".
  const size_t at_or_before = AliveBefore(RankUpperBound(pos));
  if (alive_count_ > at_or_before) {
    return order_[SelectAlive(alive_count_ - 1)];
  }
  // Degenerate single-position ring: every alive node sits at `pos`.
  const uint32_t handle = order_[r < size() ? r : 0];
  if (alive(handle)) return handle;
  return std::nullopt;
}

std::optional<uint32_t> Directory::NearestIndex(RingPos pos) const {
  std::optional<uint32_t> succ = SuccessorIndex(pos);
  if (!succ.has_value()) return std::nullopt;
  // The nearest node is either the successor or the alive predecessor.
  const size_t before = AliveBefore(RankLowerBound(pos));
  const size_t prev_rank =
      before > 0 ? SelectAlive(before - 1) : SelectAlive(alive_count_ - 1);
  const uint32_t prev = order_[prev_rank];
  const RingPos d_pred = RingDistance(positions_[prev], pos);
  const RingPos d_succ = RingDistance(positions_[*succ], pos);
  return d_pred < d_succ ? prev : *succ;
}

template <typename Fn>
void Directory::ForEachAliveInRegion(const Region& region, Fn&& fn) const {
  if (alive_count_ == 0) return;
  const RingPos kMaxHalf = static_cast<RingPos>(1) << 127;
  const RingPos begin = region.begin();
  const bool full_ring = region.half_width() >= kMaxHalf;
  // A point p is inside iff its clockwise distance from the region's
  // start is at most the full width (|p - center| <= half_width).
  const RingPos width = region.half_width() << 1;

  const size_t m = size();
  const size_t start = RankLowerBound(begin);
  if (alive_count_ == m) {
    // No churn: walk ranks directly (handle == rank order).
    for (size_t step = 0; step < m; ++step) {
      size_t r = start + step;
      if (r >= m) r -= m;
      if (!full_ring && ClockwiseDistance(begin, sorted_pos_[r]) > width) {
        break;
      }
      if (!fn(order_[r])) return;
    }
    return;
  }
  // Under churn: enumerate alive nodes in ring order via Fenwick
  // selection — O(log N) per visited node, never scanning dead runs.
  const size_t first = AliveBefore(start);
  for (size_t step = 0; step < alive_count_; ++step) {
    size_t k = first + step;
    if (k >= alive_count_) k -= alive_count_;
    const size_t r = SelectAlive(k);
    if (!full_ring && ClockwiseDistance(begin, sorted_pos_[r]) > width) {
      break;
    }
    if (!fn(order_[r])) return;
  }
}

std::vector<uint32_t> Directory::NodesInRegion(const Region& region) const {
  return NodesInRegion(region, 0);
}

std::vector<uint32_t> Directory::NodesInRegion(const Region& region,
                                               size_t limit) const {
  std::vector<uint32_t> out;
  ForEachAliveInRegion(region, [&](uint32_t index) {
    out.push_back(index);
    return limit == 0 || out.size() < limit;
  });
  return out;
}

size_t Directory::CountInRegion(const Region& region) const {
  if (positions_.empty()) return 0;
  const RingPos kMaxHalf = static_cast<RingPos>(1) << 127;
  if (region.half_width() >= kMaxHalf) return alive_count_;
  // Members are exactly the alive nodes with pos in [begin, begin +
  // width] on the ring — a contiguous rank range (possibly wrapping),
  // so two Fenwick prefix counts answer it in O(log N) under any churn
  // state.
  const RingPos begin = region.begin();
  const RingPos end = begin + (region.half_width() << 1);  // wraps
  const size_t lo = AliveBefore(RankLowerBound(begin));
  const size_t hi = AliveBefore(RankUpperBound(end));
  if (begin <= end) return hi - lo;
  return (alive_count_ - lo) + hi;
}

std::optional<uint32_t> Directory::FirstAliveInRange(RingPos lo,
                                                     RingPos hi) const {
  const size_t lo_rank = RankLowerBound(lo);
  const size_t hi_rank = hi == 0 ? size() : RankLowerBound(hi);
  const size_t a = AliveBefore(lo_rank);
  const size_t b = AliveBefore(hi_rank);
  if (b <= a) return std::nullopt;
  return order_[SelectAlive(a)];
}

size_t Directory::CountAliveInRange(RingPos lo, RingPos hi) const {
  const size_t lo_rank = RankLowerBound(lo);
  const size_t hi_rank = hi == 0 ? size() : RankLowerBound(hi);
  if (hi_rank <= lo_rank) return 0;
  return AliveBefore(hi_rank) - AliveBefore(lo_rank);
}

std::optional<uint32_t> Directory::NthAlive(size_t k) const {
  if (k >= alive_count_) return std::nullopt;
  return order_[SelectAlive(k)];
}

std::optional<uint32_t> Directory::IndexOf(const NodeId& id) const {
  const RingPos pos = id.ring_pos();
  for (size_t r = RankLowerBound(pos);
       r < size() && sorted_pos_[r] == pos; ++r) {
    if (ids_[order_[r]] == id) return order_[r];
  }
  return std::nullopt;
}

}  // namespace sep2p::dht
