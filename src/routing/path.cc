#include "routing/path.h"

#include "common/logging.h"

namespace mtshare {

void AppendPath(Path* route, const Path& leg) {
  if (!route->valid || !leg.valid) {
    *route = Path::Invalid();
    return;
  }
  MTSHARE_CHECK(!route->empty() && !leg.empty());
  MTSHARE_CHECK(route->back() == leg.front());
  route->vertices.insert(route->vertices.end(), leg.vertices.begin() + 1,
                         leg.vertices.end());
  route->cost += leg.cost;
}

}  // namespace mtshare
