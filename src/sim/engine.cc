#include "sim/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "payment/payment_model.h"
#include "sim/request_source.h"
#include "sim/taxi.h"

namespace mtshare {

SimulationEngine::SimulationEngine(const RoadNetwork& network,
                                   Dispatcher* dispatcher,
                                   std::vector<TaxiState>* fleet,
                                   const EngineOptions& options)
    : network_(network),
      dispatcher_(dispatcher),
      fleet_(fleet),
      options_(options) {
  MTSHARE_CHECK(dispatcher != nullptr);
  MTSHARE_CHECK(fleet != nullptr);
  serves_offline_ =
      options.serve_offline && dispatcher->ServesOfflineRequests();
  if (serves_offline_) {
    snap_ = std::make_unique<GridIndex>(
        network, std::max(50.0, options.encounter_radius_m));
  }
}

Metrics SimulationEngine::Run(const std::vector<RideRequest>& requests) {
  VectorRequestSource source(&requests);
  return Run(source);
}

Metrics SimulationEngine::Run(RequestSource& source) {
  WallTimer run_timer;
  metrics_ = Metrics();
  metrics_.serve.batch_window_ms = std::max(0.0, options_.batch_window_ms);
  requests_.clear();
  waiting_offline_.clear();
  offline_done_.clear();
  commit_horizon_ = 0.0;
  last_release_ = 0.0;
  heap_ = {};
  taxi_gen_.assign(fleet_->size(), 0);
  idle_routeless_.clear();
  for (TaxiState& taxi : *fleet_) {
    RearmTaxi(taxi);
    UpdateIdleSet(taxi);
  }

  // Batch-window ingest (Luo et al., arXiv 2004.02570): the window anchors
  // at the first pending arrival; everything released before anchor + Δt
  // joins the batch, which dispatches at window close. A zero window is a
  // batch of one, flushed as soon as its request is ingested, so every
  // decision fires before the next pull.
  const Seconds window = metrics_.serve.batch_window_ms / 1000.0;
  std::vector<RequestId> queue;  // pending online requests, release order
  std::vector<RequestId> hails;  // pending offline releases
  Seconds window_close = 0.0;
  bool open = false;
  RideRequest next;
  while (source.Next(&next)) {
    if (open && next.release_time >= window_close) {
      FlushBatch(&queue, &hails, window_close);
      open = false;
    }
    Ingest(next);
    const RideRequest& r = requests_.back();
    if (!open) {
      window_close = r.release_time + window;
      open = true;
    }
    if (r.offline) {
      hails.push_back(r.id);
    } else if (options_.max_queue > 0 &&
               static_cast<int64_t>(queue.size()) >= options_.max_queue) {
      ++metrics_.serve.shed;
      RequestRecord& rec = metrics_.record(r.id);
      rec.shed = true;
      if (options_.on_decision) options_.on_decision(r, rec);
    } else {
      queue.push_back(r.id);
      metrics_.serve.queue_depth = std::max(
          metrics_.serve.queue_depth, static_cast<int64_t>(queue.size()));
    }
    if (window <= 0.0) {
      FlushBatch(&queue, &hails, window_close);
      open = false;
    }
  }
  if (open) FlushBatch(&queue, &hails, window_close);

  // Drain: instead of a fixed margin past the last deadline, iterate to a
  // fixed point — every committed plan must play its route out (committed
  // tails can arrive after their planned event times on probabilistic
  // routes), and waiting hailers stay eligible until their pickup
  // deadlines pass.
  Seconds target = std::max(last_release_, commit_horizon_);
  if (serves_offline_) {
    for (const RideRequest& r : requests_) {
      if (r.offline && !offline_done_[r.id]) {
        target = std::max(target, r.PickupDeadline());
      }
    }
  }
  for (;;) {
    ++metrics_.engine.drain_rounds;
    AdvanceTo(target);
    if (commit_horizon_ > target) {
      target = commit_horizon_;  // a drain-time encounter committed a plan
      continue;
    }
    break;
  }
  for (const TaxiState& taxi : *fleet_) {
    // Every onboard passenger must have been delivered by the drain.
    MTSHARE_CHECK(taxi.onboard == 0);
    MTSHARE_CHECK(taxi.schedule.empty());
  }

  metrics_.index_memory_bytes = dispatcher_->IndexMemoryBytes();
  double income = 0.0;
  for (const TaxiState& t : *fleet_) income += t.income;
  metrics_.total_driver_income = income;
  metrics_.execution_seconds = run_timer.ElapsedSeconds();
  metrics_.phases = dispatcher_->phase_timers();
  metrics_.routing = dispatcher_->routing_stats();
  metrics_.FinalizeDistributions();
  return std::move(metrics_);
}

void SimulationEngine::Ingest(const RideRequest& r) {
  // Metrics::Register CHECKs dense ids; monotone release times are the
  // streaming contract (sources self-validate and report violations as a
  // failed status before handing the request over — this is the backstop).
  MTSHARE_CHECK(r.release_time >= last_release_);
  metrics_.Register(r);
  requests_.push_back(r);
  offline_done_.push_back(0);
  last_release_ = r.release_time;
}

void SimulationEngine::FlushBatch(std::vector<RequestId>* queue,
                                  std::vector<RequestId>* hails,
                                  Seconds when) {
  if (metrics_.serve.batch_window_ms > 0.0) ++metrics_.serve.batches;
  ++metrics_.engine.boundaries;
  AdvanceTo(when);
  // Hailers start waiting before the online batch dispatches: they were on
  // the street the whole window, and a window-close assignment may route a
  // taxi right past them. They stay invisible to the dispatcher until a
  // taxi encounters them.
  for (RequestId id : *hails) RegisterHailer(requests_[id]);
  hails->clear();
  // Release order; each plan is committed before the next dispatch runs,
  // so later requests see the fleet the earlier assignments produced.
  for (RequestId id : *queue) DispatchOne(requests_[id], when);
  queue->clear();
}

void SimulationEngine::RegisterHailer(const RideRequest& r) {
  if (!serves_offline_) return;
  // Register the hailer at every vertex a passing driver could spot them
  // from.
  for (VertexId v : snap_->VerticesInRadius(network_.coord(r.origin),
                                            options_.encounter_radius_m)) {
    waiting_offline_[v].push_back(r.id);
  }
}

void SimulationEngine::DispatchOne(const RideRequest& r, Seconds now) {
  ++metrics_.serve.admitted;
  WallTimer response_timer;
  DispatchOutcome outcome = dispatcher_->Dispatch(r, now);
  double ms = response_timer.ElapsedMillis();
  RequestRecord& rec = metrics_.record(r.id);
  rec.response_ms = ms;
  rec.candidates = outcome.candidates;
  if (outcome.assigned) {
    TaxiState& taxi = Commit(r, std::move(outcome), now);
    RearmTaxi(taxi);
    UpdateIdleSet(taxi);
  }
  if (options_.on_decision) options_.on_decision(r, rec);
}

TaxiState& SimulationEngine::Commit(const RideRequest& r,
                                    DispatchOutcome outcome, Seconds now) {
  RequestRecord& rec = metrics_.record(r.id);
  rec.assigned = true;
  rec.taxi = outcome.taxi;
  TaxiState& taxi = (*fleet_)[outcome.taxi];
  ApplyPlan(&taxi, network_, std::move(outcome.schedule),
            outcome.route.path.vertices,
            std::move(outcome.route.event_arrivals), now);
  ExecuteDueEvents(taxi);  // the pickup may be immediate (same vertex)
  dispatcher_->OnScheduleCommitted(taxi.id);
  NoteCommit(taxi);
  return taxi;
}

void SimulationEngine::AdvanceTo(Seconds now) {
  due_.clear();
  while (!heap_.empty() && heap_.top().time <= now) {
    PendingArc top = heap_.top();
    heap_.pop();
    ++metrics_.engine.heap_pops;
    if (top.gen != taxi_gen_[top.taxi]) continue;  // stale entry
    due_.push_back(top.taxi);
  }
  // Advance in taxi-id order, each taxi fully, so runs are deterministic
  // (offline encounters resolve by lowest id).
  std::sort(due_.begin(), due_.end());
  for (TaxiId id : due_) {
    TaxiState& taxi = (*fleet_)[id];
    AdvanceTaxi(taxi, now);
    RearmTaxi(taxi);
    UpdateIdleSet(taxi);
  }
  if (serves_offline_ && dispatcher_->IdleCruisingEnabled()) {
    // Cruise offers go to every idle routeless taxi in id order, so the
    // sampler's rng stream and the per-taxi rate limiter are
    // deterministic. Offers mutate the set (ApplyPlan), so iterate a
    // snapshot.
    offer_buf_.assign(idle_routeless_.begin(), idle_routeless_.end());
    for (TaxiId id : offer_buf_) {
      TaxiState& taxi = (*fleet_)[id];
      if (!taxi.Idle() || taxi.HasRoute()) continue;
      RoutePlanner::PlannedRoute cruise =
          dispatcher_->PlanIdleCruise(id, now);
      if (cruise.valid && cruise.path.vertices.size() > 1) {
        ApplyPlan(&taxi, network_, Schedule(), cruise.path.vertices, {}, now);
        RearmTaxi(taxi);
        UpdateIdleSet(taxi);
      }
    }
  }
}

void SimulationEngine::StepArc(TaxiState& taxi) {
  // Arc lengths were cached on the route node when the plan was applied.
  double meters = taxi.route.arc_length_m(taxi.route_pos);
  taxi.driven_meters += meters;
  if (taxi.onboard > 0) {
    taxi.occupied_meters += meters;
    taxi.episode_meters += meters;
  }
  ++taxi.route_pos;
  taxi.location = taxi.route.vertex(taxi.route_pos);
  taxi.location_time = taxi.route.time(taxi.route_pos);
  ++metrics_.engine.arcs_stepped;
}

void SimulationEngine::AdvanceTaxi(TaxiState& taxi, Seconds now) {
  // Movement notifications are batched into spans: one OnTaxiAdvanced per
  // uninterrupted stretch of arcs. Spans split where other work
  // interleaves with the walk — at schedule events (the index must
  // observe the pre-event schedule for earlier arcs and the post-event
  // schedule at the event arc) and at encounter probes (the probe must
  // observe up-to-date indexes).
  size_t batch_start = taxi.route_pos;
  while (taxi.route_pos + 1 < taxi.route.size() &&
         taxi.route.time(taxi.route_pos + 1) <= now) {
    StepArc(taxi);
    bool event_due = false;
    if (!taxi.schedule.empty()) {
      const ScheduleEvent& event = taxi.schedule.events().front();
      event_due = event.vertex == taxi.location &&
                  taxi.event_arrivals[taxi.event_pos] <=
                      taxi.location_time + 1e-6;
    }
    bool probe_due =
        serves_offline_ && waiting_offline_.count(taxi.location) > 0;
    if (event_due) {
      if (taxi.route_pos - 1 > batch_start) {
        // Arcs strictly before the event arc, under the pre-event schedule.
        dispatcher_->OnTaxiAdvanced(taxi.id, batch_start, taxi.route_pos - 1);
      }
      ExecuteDueEvents(taxi);
      // The event arc itself, under the post-event schedule.
      dispatcher_->OnTaxiAdvanced(taxi.id, taxi.route_pos - 1, taxi.route_pos);
      if (taxi.schedule.empty()) {
        dispatcher_->OnScheduleCommitted(taxi.id);
      }
      batch_start = taxi.route_pos;
    } else if (probe_due) {
      if (taxi.route_pos > batch_start) {
        dispatcher_->OnTaxiAdvanced(taxi.id, batch_start, taxi.route_pos);
      }
      batch_start = taxi.route_pos;
    }
    if (probe_due) {
      CheckOfflineEncounters(taxi, taxi.location_time);
      // A served encounter replanned the route (route_pos reset to 0).
      batch_start = taxi.route_pos;
    }
  }
  if (taxi.route_pos > batch_start) {
    dispatcher_->OnTaxiAdvanced(taxi.id, batch_start, taxi.route_pos);
  }
}

void SimulationEngine::RearmTaxi(const TaxiState& taxi) {
  ++taxi_gen_[taxi.id];
  if (taxi.HasRoute()) {
    heap_.push(PendingArc{taxi.route.time(taxi.route_pos + 1), taxi.id,
                          taxi_gen_[taxi.id]});
  }
}

void SimulationEngine::UpdateIdleSet(const TaxiState& taxi) {
  if (taxi.Idle() && !taxi.HasRoute()) {
    idle_routeless_.insert(taxi.id);
  } else {
    idle_routeless_.erase(taxi.id);
  }
}

void SimulationEngine::NoteCommit(const TaxiState& taxi) {
  if (!taxi.route.empty()) {
    commit_horizon_ = std::max(commit_horizon_, taxi.route.back_time());
  }
}

void SimulationEngine::ExecuteDueEvents(TaxiState& taxi) {
  while (!taxi.schedule.empty()) {
    const ScheduleEvent event = taxi.schedule.events().front();
    Seconds planned = taxi.event_arrivals[taxi.event_pos];
    if (event.vertex != taxi.location ||
        planned > taxi.location_time + 1e-6) {
      break;
    }
    taxi.schedule.PopFront();
    ++taxi.event_pos;
    if (event.is_pickup) {
      HandlePickup(taxi, event, planned);
    } else {
      HandleDropoff(taxi, event, planned);
    }
  }
}

void SimulationEngine::HandlePickup(TaxiState& taxi,
                                    const ScheduleEvent& event, Seconds when) {
  taxi.onboard += event.passengers;
  MTSHARE_CHECK(taxi.onboard <= taxi.capacity);
  taxi.episode_requests.push_back(event.request);
  RequestRecord& rec = metrics_.record(event.request);
  rec.pickup_time = when;
}

void SimulationEngine::HandleDropoff(TaxiState& taxi,
                                     const ScheduleEvent& event,
                                     Seconds when) {
  taxi.onboard -= event.passengers;
  MTSHARE_CHECK(taxi.onboard >= 0);
  RequestRecord& rec = metrics_.record(event.request);
  rec.dropoff_time = when;
  rec.completed = true;
  dispatcher_->OnRequestCompleted(requests_[event.request], taxi.id);
  if (taxi.onboard == 0) SettleEpisodeFor(taxi);
}

void SimulationEngine::SettleEpisodeFor(TaxiState& taxi) {
  if (taxi.episode_requests.empty()) return;
  std::vector<EpisodePassenger> riders;
  riders.reserve(taxi.episode_requests.size());
  for (RequestId id : taxi.episode_requests) {
    const RequestRecord& rec = metrics_.record(id);
    MTSHARE_CHECK(rec.completed);
    EpisodePassenger p;
    p.request = id;
    p.direct_m = rec.direct_cost * network_.speed_mps();
    p.traveled_m = (rec.dropoff_time - rec.pickup_time) * network_.speed_mps();
    riders.push_back(p);
  }
  EpisodeSettlement settlement = SettleEpisode(riders, taxi.episode_meters);
  for (const PassengerSettlement& p : settlement.passengers) {
    RequestRecord& rec = metrics_.record(p.request);
    rec.regular_fare = p.regular_fare;
    rec.shared_fare = p.shared_fare;
  }
  taxi.income += settlement.driver_income;
  taxi.episode_requests.clear();
  taxi.episode_meters = 0.0;
}

void SimulationEngine::CheckOfflineEncounters(TaxiState& taxi, Seconds now) {
  auto it = waiting_offline_.find(taxi.location);
  if (it == waiting_offline_.end()) return;
  auto& waiting = it->second;
  for (size_t i = 0; i < waiting.size();) {
    const RideRequest& r = requests_[waiting[i]];
    if (offline_done_[r.id] || now > r.PickupDeadline()) {
      // Served elsewhere, or expired: the passenger is gone.
      offline_done_[r.id] = offline_done_[r.id] ? offline_done_[r.id] : 1;
      waiting[i] = waiting.back();
      waiting.pop_back();
      continue;
    }
    if (now < r.release_time) {
      ++i;  // not hailing yet
      continue;
    }
    WallTimer response_timer;
    DispatchOutcome outcome =
        dispatcher_->TryServeEncountered(r, taxi.id, now);
    if (!outcome.assigned) {
      // Rejected probes still burned dispatcher (phase) time; book it so
      // the phase breakdown reconciles against total dispatch time.
      metrics_.offline_probe_ms += response_timer.ElapsedMillis();
      ++i;
      continue;
    }
    RequestRecord& rec = metrics_.record(r.id);
    rec.response_ms = response_timer.ElapsedMillis();
    rec.candidates = outcome.candidates;
    // AdvanceTo re-arms the taxi once its walk ends.
    Commit(r, std::move(outcome), now);
    offline_done_[r.id] = 1;
    if (options_.on_decision) options_.on_decision(r, rec);
    waiting[i] = waiting.back();
    waiting.pop_back();
  }
  if (waiting.empty()) waiting_offline_.erase(it);
}

}  // namespace mtshare
