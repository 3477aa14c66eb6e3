#include "geo/mobility_vector.h"

#include <cmath>

namespace mtshare {

double DirectionCosine(const Point& u, const Point& v) {
  return CosineFromNorms(u, VectorNorm(u), v, VectorNorm(v));
}

double DirectionCosine(const MobilityVector& a, const MobilityVector& b) {
  return DirectionCosine(a.Displacement(), b.Displacement());
}

double CosineSimilarityRaw4d(const MobilityVector& a,
                             const MobilityVector& b) {
  double dot = a.origin.x * b.origin.x + a.origin.y * b.origin.y +
               a.destination.x * b.destination.x +
               a.destination.y * b.destination.y;
  double na = std::sqrt(a.origin.x * a.origin.x + a.origin.y * a.origin.y +
                        a.destination.x * a.destination.x +
                        a.destination.y * a.destination.y);
  double nb = std::sqrt(b.origin.x * b.origin.x + b.origin.y * b.origin.y +
                        b.destination.x * b.destination.x +
                        b.destination.y * b.destination.y);
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / (na * nb);
}

}  // namespace mtshare
