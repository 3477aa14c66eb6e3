#include "sched/schedule.h"

#include <algorithm>

#include "common/logging.h"

namespace mtshare {

void Schedule::PopFront() {
  MTSHARE_CHECK(!empty());
  ++head_;
  if (head_ == events_.size()) {
    events_.clear();
    head_ = 0;
  }
}

Schedule Schedule::WithInsertion(const Schedule& base, const RideRequest& r,
                                 size_t pickup_pos, size_t dropoff_pos) {
  MTSHARE_CHECK(pickup_pos <= dropoff_pos);
  MTSHARE_CHECK(dropoff_pos <= base.size());
  ScheduleEvent pickup{r.id, r.origin, true, r.PickupDeadline(), r.passengers};
  ScheduleEvent dropoff{r.id, r.destination, false, r.deadline, r.passengers};
  Schedule out;
  out.events_.reserve(base.size() + 2);
  for (size_t k = 0; k <= base.size(); ++k) {
    if (k == pickup_pos) out.events_.push_back(pickup);
    if (k == dropoff_pos) out.events_.push_back(dropoff);
    if (k < base.size()) out.events_.push_back(base.at(k));
  }
  return out;
}

ScheduleCheck CheckSchedule(const Schedule& schedule, VertexId start_vertex,
                            Seconds start_time, int32_t onboard,
                            int32_t capacity, const LegCostFn& leg_cost) {
  if (onboard > capacity) return ScheduleCheck{};
  Seconds time = start_time;
  Seconds travel = 0.0;
  VertexId at = start_vertex;
  int32_t load = onboard;
  for (const ScheduleEvent& e : schedule.events()) {
    Seconds leg = leg_cost(at, e.vertex);
    if (leg == kInfiniteCost) return ScheduleCheck{};
    time += leg;
    travel += leg;
    if (time > e.deadline) return ScheduleCheck{};
    load += e.is_pickup ? e.passengers : -e.passengers;
    if (load > capacity || load < 0) return ScheduleCheck{};
    at = e.vertex;
  }
  return ScheduleCheck{true, travel};
}

InsertionResult FindBestInsertion(const Schedule& base, const RideRequest& r,
                                  VertexId taxi_location, Seconds now,
                                  int32_t onboard, int32_t capacity,
                                  const LegCostFn& leg_cost,
                                  const InsertionSlotMask* slot_mask) {
  InsertionResult best;
  ScheduleCheck base_check =
      CheckSchedule(base, taxi_location, now, onboard, capacity, leg_cost);
  if (!base_check.feasible) return best;

  for (size_t i = 0; i <= base.size(); ++i) {
    if (slot_mask != nullptr && !slot_mask->pickup[i]) continue;
    for (size_t j = i; j <= base.size(); ++j) {
      if (slot_mask != nullptr && !slot_mask->dropoff[j]) continue;
      Schedule candidate = Schedule::WithInsertion(base, r, i, j);
      ScheduleCheck check = CheckSchedule(candidate, taxi_location, now,
                                          onboard, capacity, leg_cost);
      if (!check.feasible) continue;
      Seconds detour = check.total_travel - base_check.total_travel;
      if (detour < best.detour) {
        best.found = true;
        best.pickup_pos = i;
        best.dropoff_pos = j;
        best.detour = detour;
        best.schedule = std::move(candidate);
        best.check = std::move(check);
      }
    }
  }
  return best;
}

InsertionResult FindBestInsertionDp(const Schedule& base, const RideRequest& r,
                                    VertexId taxi_location, Seconds now,
                                    int32_t onboard, int32_t capacity,
                                    const LegCostFn& leg_cost,
                                    const InsertionSlotMask* slot_mask) {
  const size_t m = base.size();
  const auto& ev = base.events();
  if (onboard > capacity) return InsertionResult{};

  // Prefix arrival times, loads, and suffix deadline slack of the base
  // schedule (the pGreedyDP precomputation).
  std::vector<Seconds> arr(m, 0.0);
  std::vector<int32_t> load_after(m, 0);
  {
    Seconds t = now;
    VertexId at = taxi_location;
    int32_t load = onboard;
    for (size_t k = 0; k < m; ++k) {
      Seconds leg = leg_cost(at, ev[k].vertex);
      if (leg == kInfiniteCost) return InsertionResult{};
      t += leg;
      if (t > ev[k].deadline) return InsertionResult{};  // base infeasible
      load += ev[k].is_pickup ? ev[k].passengers : -ev[k].passengers;
      if (load > capacity || load < 0) return InsertionResult{};
      arr[k] = t;
      load_after[k] = load;
      at = ev[k].vertex;
    }
  }
  std::vector<Seconds> slack_suffix(m + 1, kInfiniteCost);
  for (size_t k = m; k-- > 0;) {
    slack_suffix[k] = std::min(slack_suffix[k + 1], ev[k].deadline - arr[k]);
  }

  const Seconds pickup_deadline = r.PickupDeadline();
  const int32_t pax = r.passengers;
  InsertionResult best;

  for (size_t i = 0; i <= m; ++i) {
    if (slot_mask != nullptr && !slot_mask->pickup[i]) continue;
    const VertexId prev_i = (i == 0) ? taxi_location : ev[i - 1].vertex;
    const Seconds t_prev = (i == 0) ? now : arr[i - 1];
    const int32_t load_before_i = (i == 0) ? onboard : load_after[i - 1];
    if (load_before_i + pax > capacity) continue;

    const Seconds to_pickup = leg_cost(prev_i, r.origin);
    if (to_pickup == kInfiniteCost) continue;
    const Seconds pickup_t = t_prev + to_pickup;
    if (pickup_t > pickup_deadline) continue;

    // Case j == i: dropoff immediately follows pickup.
    if (slot_mask == nullptr || slot_mask->dropoff[i]) {
      const Seconds ride = leg_cost(r.origin, r.destination);
      if (ride != kInfiniteCost) {
        const Seconds drop_t = pickup_t + ride;
        if (drop_t <= r.deadline) {
          Seconds detour;
          bool ok = true;
          if (i < m) {
            const Seconds back = leg_cost(r.destination, ev[i].vertex);
            const Seconds old_leg = leg_cost(prev_i, ev[i].vertex);
            if (back == kInfiniteCost) {
              ok = false;
              detour = kInfiniteCost;
            } else {
              detour = to_pickup + ride + back - old_leg;
              ok = detour <= slack_suffix[i];
            }
          } else {
            detour = to_pickup + ride;
          }
          if (ok && detour < best.detour) {
            best.found = true;
            best.pickup_pos = i;
            best.dropoff_pos = i;
            best.detour = detour;
          }
        }
      }
    }

    if (i == m) continue;  // no later dropoff positions exist

    // Case j > i: the pickup displaces leg (prev_i -> v_i) by d1; scan j
    // upward maintaining the running deadline-gap and load maxima over
    // events [i, j).
    const Seconds into_i = leg_cost(r.origin, ev[i].vertex);
    const Seconds old_leg_i = leg_cost(prev_i, ev[i].vertex);
    if (into_i == kInfiniteCost) continue;
    const Seconds d1 = to_pickup + into_i - old_leg_i;

    Seconds min_gap = kInfiniteCost;   // min(deadline_k - arr_k), k in [i, j)
    int32_t max_load = load_before_i;  // max load carried while rider aboard
    for (size_t j = i + 1; j <= m; ++j) {
      // Extend the window with event j-1.
      min_gap = std::min(min_gap, ev[j - 1].deadline - arr[j - 1]);
      max_load = std::max(max_load, load_after[j - 1]);
      if (d1 > min_gap) break;                // later j only shrinks min_gap
      if (max_load + pax > capacity) break;   // and grows max_load
      if (slot_mask != nullptr && !slot_mask->dropoff[j]) continue;

      const VertexId prev_j = ev[j - 1].vertex;
      const Seconds to_drop = leg_cost(prev_j, r.destination);
      if (to_drop == kInfiniteCost) continue;
      const Seconds drop_t = arr[j - 1] + d1 + to_drop;
      if (drop_t > r.deadline) continue;

      Seconds detour;
      bool ok = true;
      if (j < m) {
        const Seconds back = leg_cost(r.destination, ev[j].vertex);
        const Seconds old_leg_j = leg_cost(prev_j, ev[j].vertex);
        if (back == kInfiniteCost) {
          ok = false;
          detour = kInfiniteCost;
        } else {
          const Seconds d2 = to_drop + back - old_leg_j;
          detour = d1 + d2;
          ok = detour <= slack_suffix[j];
        }
      } else {
        detour = d1 + to_drop;
      }
      if (ok && detour < best.detour) {
        best.found = true;
        best.pickup_pos = i;
        best.dropoff_pos = j;
        best.detour = detour;
      }
    }
  }

  if (best.found) {
    best.schedule =
        Schedule::WithInsertion(base, r, best.pickup_pos, best.dropoff_pos);
    best.check = CheckSchedule(best.schedule, taxi_location, now, onboard,
                               capacity, leg_cost);
    if (!best.check.feasible) {
      // The DP's algebraic test and the re-walk accumulate leg costs in
      // different orders; on an exact deadline boundary they can disagree
      // by an ulp. Defer to the walk-based search, whose winner is
      // feasible by construction.
      return FindBestInsertion(base, r, taxi_location, now, onboard,
                               capacity, leg_cost, slot_mask);
    }
  }
  return best;
}

}  // namespace mtshare
