#ifndef MTSHARE_SCHED_SCHEDULE_H_
#define MTSHARE_SCHED_SCHEDULE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/types.h"
#include "demand/request.h"

namespace mtshare {

/// One pickup or dropoff stop in a taxi schedule (paper Def. 4).
struct ScheduleEvent {
  RequestId request = kInvalidRequest;
  VertexId vertex = kInvalidVertex;
  bool is_pickup = false;
  /// Latest permissible execution time: the request's delivery deadline for
  /// dropoffs, its pickup deadline for pickups.
  Seconds deadline = 0.0;
  /// Party size of the request (capacity delta: + on pickup, - on dropoff).
  int32_t passengers = 1;
};

/// Travel-cost callback used by feasibility checks — typically bound to
/// DistanceOracle::Cost, giving the O(1) queries the paper assumes.
using LegCostFn = std::function<Seconds(VertexId, VertexId)>;

/// Read-only view over the pending events of a Schedule. PopFront advances
/// a cursor instead of shifting storage, so the view starts past any
/// already-executed prefix.
class EventSpan {
 public:
  using const_iterator = const ScheduleEvent*;

  EventSpan(const ScheduleEvent* begin, const ScheduleEvent* end)
      : begin_(begin), end_(end) {}

  const_iterator begin() const { return begin_; }
  const_iterator end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  const ScheduleEvent& front() const { return *begin_; }
  const ScheduleEvent& operator[](size_t i) const { return begin_[i]; }

 private:
  const ScheduleEvent* begin_;
  const ScheduleEvent* end_;
};

/// An ordered event list S_tj. Pickup of a request always precedes its
/// dropoff. The schedule does not know taxi position/time; those are
/// supplied to the checking functions.
class Schedule {
 public:
  Schedule() = default;

  EventSpan events() const {
    return EventSpan(events_.data() + head_, events_.data() + events_.size());
  }
  bool empty() const { return head_ == events_.size(); }
  size_t size() const { return events_.size() - head_; }
  const ScheduleEvent& at(size_t i) const { return events_[head_ + i]; }

  /// Appends an event (building-block; prefer WithInsertion).
  void Append(const ScheduleEvent& event) { events_.push_back(event); }

  /// Removes the first event (after the taxi executes it). O(1): advances
  /// the head cursor; storage is reclaimed once the schedule drains.
  void PopFront();

  /// New schedule with the request's pickup inserted before position
  /// `pickup_pos` and dropoff before `dropoff_pos` of the *original* event
  /// list (pickup_pos <= dropoff_pos <= size()). Existing event order is
  /// preserved — the paper's design choice shared with prior work
  /// (Sec. IV-C2).
  static Schedule WithInsertion(const Schedule& base, const RideRequest& r,
                                size_t pickup_pos, size_t dropoff_pos);

 private:
  std::vector<ScheduleEvent> events_;
  /// Index of the first pending event; [0, head_) were already executed.
  size_t head_ = 0;
};

/// Outcome of walking a schedule from the taxi's position.
struct ScheduleCheck {
  bool feasible = false;
  /// Total travel seconds from the start vertex through every event.
  Seconds total_travel = 0.0;
};

/// Simulates the schedule: starting at `start_vertex` at `start_time` with
/// `onboard` riders, drives leg-by-leg using `leg_cost`, enforcing each
/// event's deadline and the capacity bound at every moment (paper Sec. III-C
/// constraints).
ScheduleCheck CheckSchedule(const Schedule& schedule, VertexId start_vertex,
                            Seconds start_time, int32_t onboard,
                            int32_t capacity, const LegCostFn& leg_cost);

/// Result of searching all insertion positions of a request into a schedule.
struct InsertionResult {
  bool found = false;
  size_t pickup_pos = 0;
  size_t dropoff_pos = 0;
  /// Increase in total travel vs. the unmodified schedule — the detour cost
  /// omega of paper eq. (4)/Algorithm 1.
  Seconds detour = kInfiniteCost;
  Schedule schedule;   // the winning instance
  ScheduleCheck check;  // its feasibility walk
};

/// Per-slot screen for insertion search: slot i (insert before base event
/// i; i == size() appends) participates only while its flag is nonzero.
/// Producers (the detour-ellipse screen, DESIGN.md §14) may only clear
/// slots that are PROVABLY infeasible — the searches below skip cleared
/// slots without checking them, so an over-eager mask would change the
/// returned optimum. Both vectors must have size() + 1 entries.
struct InsertionSlotMask {
  std::vector<uint8_t> pickup;
  std::vector<uint8_t> dropoff;
};

/// Enumerates all (pickup_pos <= dropoff_pos) insertions of `r` into `base`
/// (O(m^2) instances, each checked in O(m)) and returns the feasible
/// instance with minimum detour. This is the exhaustive scan of paper
/// Algorithm 1's inner loop. `slot_mask` (optional) skips screened-out
/// slots.
InsertionResult FindBestInsertion(const Schedule& base, const RideRequest& r,
                                  VertexId taxi_location, Seconds now,
                                  int32_t onboard, int32_t capacity,
                                  const LegCostFn& leg_cost,
                                  const InsertionSlotMask* slot_mask = nullptr);

/// Same optimum as FindBestInsertion, computed with the dynamic-programming
/// slack precomputation of the pGreedyDP baseline (Tong et al., VLDB'18):
/// prefix arrival times and suffix slack arrays make each candidate pair
/// O(1) to evaluate after O(m) setup, so the whole search is O(m^2) instead
/// of O(m^3).
InsertionResult FindBestInsertionDp(
    const Schedule& base, const RideRequest& r, VertexId taxi_location,
    Seconds now, int32_t onboard, int32_t capacity, const LegCostFn& leg_cost,
    const InsertionSlotMask* slot_mask = nullptr);

}  // namespace mtshare

#endif  // MTSHARE_SCHED_SCHEDULE_H_
