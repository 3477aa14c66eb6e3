#include "graph/road_network.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace mtshare {

size_t RoadNetwork::MemoryBytes() const {
  return coords_.size() * sizeof(Point) +
         (fwd_offsets_.size() + rev_offsets_.size()) * sizeof(int32_t) +
         (fwd_arcs_.size() + rev_arcs_.size()) * sizeof(Arc);
}

RoadNetwork::Builder::Builder(double speed_mps) : speed_mps_(speed_mps) {
  MTSHARE_CHECK(speed_mps > 0.0);
}

VertexId RoadNetwork::Builder::AddVertex(const Point& coord) {
  coords_.push_back(coord);
  return static_cast<VertexId>(coords_.size() - 1);
}

void RoadNetwork::Builder::AddEdge(VertexId u, VertexId v, double length_m,
                                   double speed_factor) {
  MTSHARE_CHECK(u >= 0 && u < num_vertices());
  MTSHARE_CHECK(v >= 0 && v < num_vertices());
  MTSHARE_CHECK(length_m > 0.0);
  MTSHARE_CHECK(speed_factor > 0.0);
  edges_.push_back(
      RawEdge{u, v, length_m,
              QuantizeTravelCost(length_m / (speed_mps_ * speed_factor))});
}

void RoadNetwork::Builder::AddBidirectionalEdge(VertexId u, VertexId v,
                                                double length_m,
                                                double speed_factor) {
  AddEdge(u, v, length_m, speed_factor);
  AddEdge(v, u, length_m, speed_factor);
}

RoadNetwork RoadNetwork::Builder::Build() {
  RoadNetwork net;
  net.coords_ = std::move(coords_);
  net.speed_mps_ = speed_mps_;

  const int32_t n = static_cast<int32_t>(net.coords_.size());
  auto fill_csr = [&](bool forward, std::vector<int32_t>& offsets,
                      std::vector<Arc>& arcs) {
    offsets.assign(n + 1, 0);
    for (const RawEdge& e : edges_) {
      ++offsets[(forward ? e.u : e.v) + 1];
    }
    for (int32_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
    arcs.resize(edges_.size());
    std::vector<int32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const RawEdge& e : edges_) {
      int32_t tail = forward ? e.u : e.v;
      int32_t head = forward ? e.v : e.u;
      arcs[cursor[tail]++] = Arc{head, e.length_m, e.cost};
    }
  };
  fill_csr(true, net.fwd_offsets_, net.fwd_arcs_);
  fill_csr(false, net.rev_offsets_, net.rev_arcs_);

  BoundingBox box;
  if (!net.coords_.empty()) {
    box.min = box.max = net.coords_[0];
    for (const Point& p : net.coords_) {
      box.min.x = std::min(box.min.x, p.x);
      box.min.y = std::min(box.min.y, p.y);
      box.max.x = std::max(box.max.x, p.x);
      box.max.y = std::max(box.max.y, p.y);
    }
  }
  net.bounds_ = box;
  return net;
}

int32_t StronglyConnectedComponents(const RoadNetwork& network,
                                    std::vector<int32_t>* component_ids) {
  const int32_t n = network.num_vertices();
  component_ids->assign(n, -1);
  // Iterative Tarjan.
  std::vector<int32_t> index(n, -1);
  std::vector<int32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<int32_t> stack;
  struct Frame {
    VertexId v;
    size_t arc_pos;
  };
  std::vector<Frame> call_stack;
  int32_t next_index = 0;
  int32_t num_components = 0;

  for (VertexId root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    call_stack.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      VertexId v = frame.v;
      auto arcs = network.OutArcs(v);
      if (frame.arc_pos < arcs.size()) {
        VertexId w = arcs[frame.arc_pos++].head;
        if (index[w] == -1) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        if (lowlink[v] == index[v]) {
          while (true) {
            VertexId w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            (*component_ids)[w] = num_components;
            if (w == v) break;
          }
          ++num_components;
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          VertexId parent = call_stack.back().v;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }
  return num_components;
}

RoadNetwork ExtractLargestScc(const RoadNetwork& network,
                              std::vector<VertexId>* old_to_new) {
  std::vector<int32_t> comp;
  int32_t num_components = StronglyConnectedComponents(network, &comp);
  const int32_t n = network.num_vertices();

  std::vector<int32_t> sizes(num_components, 0);
  for (int32_t c : comp) ++sizes[c];
  int32_t best =
      static_cast<int32_t>(std::max_element(sizes.begin(), sizes.end()) -
                           sizes.begin());

  std::vector<VertexId> mapping(n, kInvalidVertex);
  RoadNetwork::Builder builder(network.speed_mps());
  for (VertexId v = 0; v < n; ++v) {
    if (comp[v] == best) mapping[v] = builder.AddVertex(network.coord(v));
  }
  for (VertexId v = 0; v < n; ++v) {
    if (comp[v] != best) continue;
    for (const Arc& arc : network.OutArcs(v)) {
      if (comp[arc.head] != best) continue;
      // Preserve the original travel time by back-deriving the speed factor.
      double factor = arc.length_m / (arc.cost * network.speed_mps());
      builder.AddEdge(mapping[v], mapping[arc.head], arc.length_m, factor);
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(mapping);
  return builder.Build();
}

}  // namespace mtshare
