// Digest of a run's per-request decisions, shared by the golden tests of
// the tier-1 and scale suites: a change that drifts a single assignment,
// pickup time or fare changes the digest.
#ifndef MTSHARE_TESTS_TESTING_DECISION_DIGEST_H_
#define MTSHARE_TESTS_TESTING_DECISION_DIGEST_H_

#include <bit>
#include <cstdint>

#include "sim/metrics.h"

namespace mtshare {

/// 64-bit FNV-1a over little-endian words, so the digest does not depend
/// on the host's byte order or struct padding.
class Fnv1a {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void Add(double value) { Add(std::bit_cast<uint64_t>(value)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// Every request's id, assignment, taxi, and the bits of its pickup and
/// dropoff times and regular and shared fares, in record order.
inline uint64_t DecisionDigest(const Metrics& m) {
  Fnv1a fnv;
  for (const RequestRecord& r : m.records()) {
    fnv.Add(static_cast<uint64_t>(r.id));
    fnv.Add(static_cast<uint64_t>(r.assigned));
    fnv.Add(static_cast<uint64_t>(static_cast<int64_t>(r.taxi)));
    fnv.Add(r.pickup_time);
    fnv.Add(r.dropoff_time);
    fnv.Add(r.regular_fare);
    fnv.Add(r.shared_fare);
  }
  return fnv.value();
}

}  // namespace mtshare

#endif  // MTSHARE_TESTS_TESTING_DECISION_DIGEST_H_
