#include "routing/contraction_hierarchy.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/epoch.h"
#include "common/logging.h"
#include "common/timer.h"

namespace mtshare {
namespace {

/// One directed arc of the dynamic core graph (the not-yet-contracted
/// subgraph plus the shortcuts added so far). Parallel arcs are collapsed
/// to their minimum cost — Dijkstra relaxes both and keeps the minimum, so
/// distances are unchanged.
struct CoreArc {
  VertexId head;
  Seconds cost;
};

/// Limited forward Dijkstra over the core graph, used to find witness
/// paths that make a candidate shortcut redundant. Epoch-stamped buffers:
/// one instance serves many searches without O(V) resets.
class WitnessSearch {
 public:
  explicit WitnessSearch(int32_t n)
      : dist_(n, 0.0), epoch_(n, 0), settled_(n, 0) {}

  /// Runs from `source`, skipping `excluded`, until the queue minimum
  /// exceeds `bound` or `settle_limit` vertices were settled. Afterwards
  /// Reached(w) / DistanceTo(w) describe every settled vertex.
  void Run(const std::vector<std::vector<CoreArc>>& out, VertexId source,
           VertexId excluded, Seconds bound, int32_t settle_limit) {
    NextEpoch(epoch_id_, epoch_, settled_);
    while (!queue_.empty()) queue_.pop();
    dist_[source] = 0.0;
    epoch_[source] = epoch_id_;
    queue_.push({0.0, source});
    int32_t settled_count = 0;
    while (!queue_.empty() && settled_count < settle_limit) {
      auto [cost, v] = queue_.top();
      if (cost > bound) break;
      queue_.pop();
      if (settled_[v] == epoch_id_ || cost > dist_[v]) continue;
      settled_[v] = epoch_id_;
      ++settled_count;
      for (const CoreArc& arc : out[v]) {
        if (arc.head == excluded) continue;
        Seconds cand = cost + arc.cost;
        if (cand > bound) continue;
        if (epoch_[arc.head] != epoch_id_ || cand < dist_[arc.head]) {
          epoch_[arc.head] = epoch_id_;
          dist_[arc.head] = cand;
          queue_.push({cand, arc.head});
        }
      }
    }
  }

  bool Reached(VertexId v) const { return settled_[v] == epoch_id_; }
  Seconds DistanceTo(VertexId v) const { return dist_[v]; }

 private:
  struct Entry {
    Seconds cost;
    VertexId vertex;
    bool operator>(const Entry& other) const { return cost > other.cost; }
  };

  std::vector<Seconds> dist_;
  std::vector<uint32_t> epoch_;
  std::vector<uint32_t> settled_;
  uint32_t epoch_id_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
};

struct Shortcut {
  VertexId tail;
  VertexId head;
  Seconds cost;
};

/// Inserts (or relaxes) arc head/cost in an adjacency list.
void UpsertArc(std::vector<CoreArc>& arcs, VertexId head, Seconds cost) {
  for (CoreArc& arc : arcs) {
    if (arc.head == head) {
      arc.cost = std::min(arc.cost, cost);
      return;
    }
  }
  arcs.push_back({head, cost});
}

void EraseArc(std::vector<CoreArc>& arcs, VertexId head) {
  for (size_t i = 0; i < arcs.size(); ++i) {
    if (arcs[i].head == head) {
      arcs[i] = arcs.back();
      arcs.pop_back();
      return;
    }
  }
}

/// The sequential contraction state; Build() drives it.
class Contractor {
 public:
  Contractor(const RoadNetwork& network, const ChOptions& options)
      : options_(options),
        n_(network.num_vertices()),
        out_(n_),
        in_(n_),
        level_(n_, 0),
        deleted_neighbors_(n_, 0) {
    for (VertexId v = 0; v < n_; ++v) {
      for (const Arc& arc : network.OutArcs(v)) {
        if (arc.head == v) continue;  // self loops never shorten paths
        UpsertArc(out_[v], arc.head, arc.cost);
        UpsertArc(in_[arc.head], v, arc.cost);
      }
    }
  }

  /// Shortcuts required to contract v right now. Returns the count and, if
  /// `collect` is set, the shortcut list (count only for priority probes —
  /// the probe is identical code, so simulated == applied).
  int32_t SimulateContraction(VertexId v, WitnessSearch& witness,
                              std::vector<Shortcut>* collect) const {
    int32_t shortcuts = 0;
    for (const CoreArc& in_arc : in_[v]) {
      VertexId u = in_arc.head;
      Seconds bound = 0.0;
      bool any_target = false;
      for (const CoreArc& out_arc : out_[v]) {
        if (out_arc.head == u) continue;
        bound = std::max(bound, in_arc.cost + out_arc.cost);
        any_target = true;
      }
      if (!any_target) continue;
      witness.Run(out_, u, v, bound, options_.witness_settle_limit);
      for (const CoreArc& out_arc : out_[v]) {
        VertexId w = out_arc.head;
        if (w == u) continue;
        Seconds via_v = in_arc.cost + out_arc.cost;
        // Conservative: only a found witness path suppresses the shortcut
        // (a truncated search can add redundant shortcuts, never lose a
        // distance).
        if (witness.Reached(w) && witness.DistanceTo(w) <= via_v) continue;
        ++shortcuts;
        if (collect != nullptr) collect->push_back({u, w, via_v});
      }
    }
    return shortcuts;
  }

  /// Edge difference + contracted-neighbor + level heuristic. Lower
  /// contracts earlier; ties broken by vertex id in the queue.
  int64_t Priority(VertexId v, WitnessSearch& witness) const {
    int32_t shortcuts = SimulateContraction(v, witness, nullptr);
    int32_t removed =
        static_cast<int32_t>(in_[v].size() + out_[v].size());
    return 2 * static_cast<int64_t>(shortcuts - removed) +
           deleted_neighbors_[v] + level_[v];
  }

  /// Contracts every vertex; fills rank/up/down lists.
  void Run(std::vector<int32_t>& rank,
           std::vector<std::vector<CoreArc>>& up,
           std::vector<std::vector<CoreArc>>& down, int64_t& shortcut_count) {
    WitnessSearch witness(n_);
    std::vector<int64_t> priority(n_);
    for (VertexId v = 0; v < n_; ++v) priority[v] = Priority(v, witness);

    using QueueEntry = std::pair<int64_t, VertexId>;  // (priority, vertex)
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        queue;
    for (VertexId v = 0; v < n_; ++v) queue.push({priority[v], v});

    std::vector<Shortcut> shortcuts;
    std::vector<uint8_t> contracted(n_, 0);
    int32_t next_rank = 0;
    while (!queue.empty()) {
      auto [prio, v] = queue.top();
      queue.pop();
      if (contracted[v]) continue;
      // Lazy update: the popped key may be stale (a neighbor contracted
      // since it was pushed). Recompute; if the vertex no longer wins
      // against the next key, push it back and try again.
      shortcuts.clear();
      int32_t needed = SimulateContraction(v, witness, &shortcuts);
      int32_t removed = static_cast<int32_t>(in_[v].size() + out_[v].size());
      int64_t fresh = 2 * static_cast<int64_t>(needed - removed) +
                      deleted_neighbors_[v] + level_[v];
      if (!queue.empty() &&
          std::make_pair(fresh, v) > std::make_pair(queue.top().first,
                                                    queue.top().second)) {
        queue.push({fresh, v});
        continue;
      }

      // Contract v: its remaining core neighbors all outrank it, so its
      // current adjacency *is* its upward/downward search arc set.
      rank[v] = next_rank++;
      contracted[v] = 1;
      up[v] = out_[v];
      down[v] = in_[v];
      for (const CoreArc& arc : in_[v]) {
        EraseArc(out_[arc.head], v);
        deleted_neighbors_[arc.head] += 1;
        level_[arc.head] = std::max(level_[arc.head], level_[v] + 1);
      }
      for (const CoreArc& arc : out_[v]) {
        EraseArc(in_[arc.head], v);
        deleted_neighbors_[arc.head] += 1;
        level_[arc.head] = std::max(level_[arc.head], level_[v] + 1);
      }
      for (const Shortcut& s : shortcuts) {
        UpsertArc(out_[s.tail], s.head, s.cost);
        UpsertArc(in_[s.head], s.tail, s.cost);
      }
      shortcut_count += shortcuts.size();
    }
  }

 private:
  const ChOptions options_;
  const int32_t n_;
  std::vector<std::vector<CoreArc>> out_;
  std::vector<std::vector<CoreArc>> in_;
  std::vector<int32_t> level_;
  std::vector<int32_t> deleted_neighbors_;
};

}  // namespace

ContractionHierarchy ContractionHierarchy::Build(const RoadNetwork& network,
                                                 const ChOptions& options) {
  MTSHARE_CHECK(options.witness_settle_limit > 0);
  WallTimer timer;
  const int32_t n = network.num_vertices();
  ContractionHierarchy ch;
  ch.rank_.assign(n, 0);

  std::vector<std::vector<CoreArc>> up(n);
  std::vector<std::vector<CoreArc>> down(n);
  {
    Contractor contractor(network, options);
    contractor.Run(ch.rank_, up, down, ch.stats_.shortcuts_added);
  }
  ch.descending_rank_order_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    ch.descending_rank_order_[n - 1 - ch.rank_[v]] = v;
  }

  // Each search graph by vertex, then the same arcs by sweep position:
  // position i holds the arcs of descending_rank_order_[i], each head
  // replaced by its position.
  auto fill = [n, &ch](const std::vector<std::vector<CoreArc>>& lists,
                       std::vector<int32_t>& offsets,
                       std::vector<SearchArc>& arcs) {
    offsets.assign(2 * (static_cast<size_t>(n) + 1), 0);
    int32_t* by_position = offsets.data() + n + 1;
    for (int32_t i = 0; i < n; ++i) {
      offsets[i + 1] = offsets[i] + static_cast<int32_t>(lists[i].size());
      by_position[i + 1] =
          by_position[i] +
          static_cast<int32_t>(lists[ch.descending_rank_order_[i]].size());
    }
    const int32_t e = offsets[n];
    arcs.resize(2 * static_cast<size_t>(e));
    for (VertexId v = 0; v < n; ++v) {
      int32_t at = offsets[v];
      for (const CoreArc& arc : lists[v]) {
        arcs[at++] = SearchArc{arc.head, arc.cost};
      }
    }
    for (int32_t i = 0; i < n; ++i) {
      int32_t at = e + by_position[i];
      for (const CoreArc& arc : lists[ch.descending_rank_order_[i]]) {
        arcs[at++] = SearchArc{n - 1 - ch.rank_[arc.head], arc.cost};
      }
    }
  };
  fill(up, ch.up_offsets_, ch.up_arcs_);
  fill(down, ch.down_offsets_, ch.down_arcs_);
  ch.stats_.preprocessing_ms = timer.ElapsedMillis();
  return ch;
}

size_t ContractionHierarchy::MemoryBytes() const {
  return rank_.size() * sizeof(int32_t) +
         descending_rank_order_.size() * sizeof(VertexId) +
         (up_offsets_.size() + down_offsets_.size()) * sizeof(int32_t) +
         (up_arcs_.size() + down_arcs_.size()) * sizeof(SearchArc);
}

}  // namespace mtshare
