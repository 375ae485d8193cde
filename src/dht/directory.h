// Directory: the simulator's ground-truth node table.
//
// Holds every node in structure-of-arrays layout, sorted by ring
// position, and answers the queries the overlays and protocols need:
// successor-of-position, nodes-in-region, nearest-node. Because nodes
// are sorted by position, any region is a contiguous arc, so region
// queries cost O(log N + answer); this is what makes exhaustive
// million-node simulation feasible on one machine.
//
// Memory layout (the "memory diet" for N = 10^6..10^7 nodes): instead
// of an array-of-structs of ~300-byte records with three heap
// allocations each (private key vector, certificate signature vector,
// allocator slack), the directory keeps one dense column per field —
// positions, 256-bit ids, public keys, certificate serials, flag bytes —
// plus two shared fixed-stride blobs for private keys and CA signatures.
// A node costs ~150 bytes and zero per-node allocations, so 10^6 nodes
// fit in ~150 MB and build is a single streaming pass.
//
// Churn (incremental maintenance): node handles (uint32_t indices) are
// STABLE for the lifetime of the directory — protocols and caches store
// them freely. Alive/dead membership is tracked by a Fenwick tree over
// ring ranks, so SetAlive/MarkCrashed are O(log N) and every query
// (successor, predecessor, region count, k-th alive) stays O(log N)
// even when most of the table is churned out — the previous
// implementation degraded to O(N) scans past dead records. AddNode
// inserts a genuinely new node (O(N) column shift — fine for tests and
// small networks; large-scale churn drivers pre-provision a pool of
// dead nodes and activate them in O(log N), see sim::ChurnDriver).
//
// The Directory is *simulator state*, not something a real node would
// hold — real nodes see only their node cache (node/node_cache.h) and
// the DHT routing tables (dht/chord.h). It records membership only:
// which nodes collude is per-epoch simulation truth
// (strategies::Coalition), never a directory column.

#ifndef SEP2P_DHT_DIRECTORY_H_
#define SEP2P_DHT_DIRECTORY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/certificate.h"
#include "dht/region.h"

namespace sep2p::dht {

// Build-time input (and snapshot view) of one node. The directory
// decomposes records into columns; it is not stored as-is.
struct NodeRecord {
  NodeId id;
  RingPos pos = 0;  // cached id.ring_pos()
  crypto::PublicKey pub{};
  crypto::PrivateKey priv;  // simulator convenience: nodes sign locally
  crypto::Certificate cert;
  bool alive = true;
};

class Directory {
 public:
  // Takes ownership of the records and sorts them by ring position.
  explicit Directory(std::vector<NodeRecord> records);

  size_t size() const { return positions_.size(); }

  // ---------------------------------------------------------------
  // Column accessors. `index` is a stable node handle; after initial
  // construction handles coincide with ring ranks, and they never move
  // under SetAlive/MarkCrashed (AddNode appends a fresh handle).
  RingPos pos(uint32_t index) const { return positions_[index]; }
  const NodeId& id(uint32_t index) const { return ids_[index]; }
  const crypto::PublicKey& pub(uint32_t index) const { return pubs_[index]; }
  uint64_t serial(uint32_t index) const { return serials_[index]; }
  bool alive(uint32_t index) const {
    return (flags_[index] & kAliveBit) != 0;
  }
  bool crashed(uint32_t index) const {
    return (flags_[index] & kCrashedBit) != 0;
  }
  // True once a CA signature has been recorded for the node (initially
  // false for pre-provisioned churn-pool nodes, whose certificates are
  // issued when they join).
  bool has_cert(uint32_t index) const {
    return (flags_[index] & kCertBit) != 0;
  }

  // Materializes the node's private key / certificate from the shared
  // blobs. Cheap (one small copy); certificates of nodes without a
  // recorded CA signature come back with an empty signature.
  crypto::PrivateKey priv(uint32_t index) const;
  crypto::Certificate cert(uint32_t index) const;

  // Records the CA signature for a node provisioned without one (churn
  // pool issuance at join time). The signature length must match the
  // directory's uniform signature stride.
  void SetCertSignature(uint32_t index, const crypto::Signature& sig);

  // ---------------------------------------------------------------
  // Membership (incremental maintenance; all O(log N)).
  size_t alive_count() const { return alive_count_; }
  void SetAlive(uint32_t index, bool alive);
  // Graceful leave: the node disappears from every query but keeps its
  // handle, identity and credentials (it may rejoin later).
  void RemoveNode(uint32_t index) { SetAlive(index, false); }
  // Crash: like RemoveNode but flagged, so churn drivers and metrics
  // can distinguish failure flavors. Reviving with SetAlive(true)
  // clears the flag.
  void MarkCrashed(uint32_t index);

  // Inserts a genuinely new node and returns its handle. O(N) (column
  // shift + Fenwick rebuild): intended for tests and small networks;
  // large-scale churn pre-provisions dead nodes and uses SetAlive.
  uint32_t AddNode(NodeRecord record);

  // ---------------------------------------------------------------
  // Queries (handles in, handles out).

  // Index of the first alive node at or clockwise-after `pos` (Chord
  // successor). Returns nullopt when no node is alive.
  std::optional<uint32_t> SuccessorIndex(RingPos pos) const;

  // Index of the last alive node strictly before `pos` (Chord
  // predecessor), wrapping. Returns nullopt when no node is alive.
  std::optional<uint32_t> PredecessorIndex(RingPos pos) const;

  // Index of the alive node minimizing ring distance to `pos`.
  std::optional<uint32_t> NearestIndex(RingPos pos) const;

  // Indices of alive nodes whose id lies in `region`, in ring order
  // starting from the region's counter-clockwise edge.
  std::vector<uint32_t> NodesInRegion(const Region& region) const;

  // Same, but stops early once `limit` nodes are collected (0 = no limit).
  std::vector<uint32_t> NodesInRegion(const Region& region,
                                      size_t limit) const;

  // Number of alive nodes in `region` without materializing them.
  // O(log N) under any churn state (Fenwick rank counts).
  size_t CountInRegion(const Region& region) const;

  // Index lookup by node id; nullopt if absent (alive or not).
  std::optional<uint32_t> IndexOf(const NodeId& id) const;

  // Handle of the k-th alive node in ring order (0-based); nullopt when
  // k >= alive_count(). O(log N) — churn drivers use it to sample a
  // uniform alive victim without scanning.
  std::optional<uint32_t> NthAlive(size_t k) const;

  // First alive node with position in the half-open interval [lo, hi),
  // NOT wrapping; hi == 0 means "up to the end of the space" (2^128).
  // Used by Kademlia's trie descent, whose buckets are dyadic intervals.
  std::optional<uint32_t> FirstAliveInRange(RingPos lo, RingPos hi) const;

  // Number of alive nodes in [lo, hi) (same conventions).
  size_t CountAliveInRange(RingPos lo, RingPos hi) const;

 private:
  static constexpr uint8_t kAliveBit = 1;
  static constexpr uint8_t kCrashedBit = 2;
  static constexpr uint8_t kCertBit = 4;

  // First ring rank with position >= `pos` (possibly size()).
  size_t RankLowerBound(RingPos pos) const;
  // First ring rank with position > `pos` (same conventions).
  size_t RankUpperBound(RingPos pos) const;

  // Fenwick tree over ring ranks (1 per alive node).
  void FenwickAdd(size_t rank, int delta);
  // Number of alive nodes among ranks [0, rank).
  size_t AliveBefore(size_t rank) const;
  // Ring rank of the k-th alive node (0-based); requires k < alive_count_.
  size_t SelectAlive(size_t k) const;
  void RebuildFenwick();

  void AppendColumns(const NodeRecord& record);

  template <typename Fn>
  void ForEachAliveInRegion(const Region& region, Fn&& fn) const;

  // ----- SoA columns, indexed by stable handle -----
  std::vector<RingPos> positions_;          // 16 B
  std::vector<NodeId> ids_;                 // 32 B
  std::vector<crypto::PublicKey> pubs_;     // 32 B
  std::vector<uint64_t> serials_;           // 8 B
  std::vector<uint8_t> flags_;              // 1 B
  // Shared fixed-stride credential blobs (0 stride until first
  // non-empty value is seen; uniform within one directory).
  std::vector<uint8_t> privs_;
  std::vector<uint8_t> cert_sigs_;
  size_t priv_stride_ = 0;
  size_t sig_stride_ = 0;

  // ----- ring order -----
  // order_[rank] = handle, rank_[handle] = rank. sorted_pos_ mirrors
  // positions_ in rank order and is kept densely packed because the
  // position binary search is the single hottest directory operation
  // (Chord routing does dozens per hop); probing a wide column per step
  // would thrash the cache a 16-byte-element array walks cleanly.
  std::vector<uint32_t> order_;
  std::vector<uint32_t> rank_;
  std::vector<RingPos> sorted_pos_;

  // ----- alive tracking -----
  // fenwick_[r] (1-based) partial sums of alive flags in rank order:
  // O(log N) membership updates and O(log N) successor/count/select
  // queries regardless of how many nodes are churned out.
  std::vector<uint32_t> fenwick_;
  size_t alive_count_ = 0;
};

}  // namespace sep2p::dht

#endif  // SEP2P_DHT_DIRECTORY_H_
