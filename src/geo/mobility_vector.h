#ifndef MTSHARE_GEO_MOBILITY_VECTOR_H_
#define MTSHARE_GEO_MOBILITY_VECTOR_H_

#include <cmath>

#include "geo/latlng.h"

namespace mtshare {

/// Mobility vector (paper Def. 9): a trip's origin and destination. The
/// paper writes it as the 4-tuple (lat_o, lng_o, lat_d, lng_d); the travel
/// *direction* it encodes is the displacement destination - origin.
struct MobilityVector {
  Point origin;
  Point destination;

  /// Displacement on the city plane (the direction the trip travels).
  Point Displacement() const {
    return Point{destination.x - origin.x, destination.y - origin.y};
  }

  double Length() const { return Distance(origin, destination); }
};

/// Cosine similarity between the travel directions of two mobility vectors,
/// i.e., between their displacement vectors. This is the measure used by
/// mobility clustering and by the partition-filter direction rule
/// (paper eq. (1) with threshold lambda).
///
/// Note: the paper's eq. (1) literally dots the raw 4-tuples, but over a
/// single city the absolute coordinates dominate that product and every pair
/// scores ~1, which cannot express "t2 travels inversely with r1" (Fig. 1).
/// The displacement-based cosine is the measure consistent with the paper's
/// semantics ("travel direction difference"); CosineSimilarityRaw4d keeps
/// the literal formula available for ablation.
double DirectionCosine(const MobilityVector& a, const MobilityVector& b);

/// The literal 4-d cosine of eq. (1); see DirectionCosine for why the
/// library does not use it internally.
double CosineSimilarityRaw4d(const MobilityVector& a, const MobilityVector& b);

/// Cosine between two planar vectors; 0.0 (incompatible) when either has
/// zero length — a degenerate trip has no direction, so it cannot *share*
/// one. Returning 1.0 here would admit origin == destination requests into
/// every mobility cluster and past every direction filter. Equals
/// CosineFromNorms(u, VectorNorm(u), v, VectorNorm(v)) bit for bit.
double DirectionCosine(const Point& u, const Point& v);

/// Euclidean length of `u`, as DirectionCosine computes it.
inline double VectorNorm(const Point& u) {
  return std::sqrt(u.x * u.x + u.y * u.y);
}

/// DirectionCosine(u, v) given `nu` = VectorNorm(u) and `nv` =
/// VectorNorm(v): the same operands in the same order, so the same bits.
/// Lets a caller that tests many vectors against one direction, or reads
/// stored norms (LandmarkGraph::DisplacementNorm), skip the square roots.
inline double CosineFromNorms(const Point& u, double nu, const Point& v,
                              double nv) {
  if (nu <= 0.0 || nv <= 0.0) return 0.0;
  return (u.x * v.x + u.y * v.y) / (nu * nv);
}

}  // namespace mtshare

#endif  // MTSHARE_GEO_MOBILITY_VECTOR_H_
