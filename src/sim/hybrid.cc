#include "sim/hybrid.h"

#include <algorithm>
#include <cmath>

namespace stellar {

namespace {

/// Trigger-poll period while any region is in packet mode.
constexpr SimTime kEpoch = SimTime::micros(5);
/// Promotion requires every region link's queue at or below this.
constexpr std::uint64_t kZoomQueueBytes = 256u << 10;
/// Consecutive quiet epochs required before promotion.
constexpr std::uint32_t kPromoteQuietEpochs = 3;

}  // namespace

HybridDriver::HybridDriver(Simulator& sim, ClosFabric& fabric)
    : sim_(&sim), fabric_(&fabric), receivers_(fabric.endpoint_count()) {
  STELLAR_CHECK(fabric.hybrid_driver() == nullptr,
                "fabric already has a hybrid driver attached");
  fabric.set_hybrid_driver(this);
  const FabricConfig& fc = fabric.config();
  regions_.resize(static_cast<std::size_t>(fc.rails) * fc.planes);
  for (std::uint32_t r = 0; r < fc.rails; ++r) {
    for (std::uint32_t p = 0; p < fc.planes; ++p) {
      Region& rg = regions_[r * fc.planes + p];
      // Deterministic link order: host/ToR edge links per (segment, host),
      // then the aggregation layer per (segment, agg).
      for (std::uint32_t s = 0; s < fc.segments; ++s) {
        for (std::uint32_t h = 0; h < fc.hosts_per_segment; ++h) {
          rg.links.push_back(&fabric.host_uplink(s, h, r, p));
          rg.links.push_back(&fabric.tor_downlink(s, h, r, p));
        }
      }
      for (std::uint32_t s = 0; s < fc.segments; ++s) {
        for (std::uint32_t a = 0; a < fc.aggs_per_plane; ++a) {
          rg.links.push_back(&fabric.tor_uplink(s, r, p, a));
          rg.links.push_back(&fabric.agg_downlink(a, s, r, p));
        }
      }
      for (NetLink* link : rg.links) {
        rg.link_index.emplace(
            link, rg.solver.add_link(
                      static_cast<double>(link->config().bandwidth.bps()) /
                      8.0));
      }
      rg.span_start = sim.now();
    }
  }
}

HybridDriver::~HybridDriver() {
  for (std::uint32_t r = 0; r < regions_.size(); ++r) {
    Region& rg = regions_[r];
    // Clients outliving the driver must not keep pointing at its records.
    for (ClientInfo* ci : rg.clients) ci->client->fluid_info_ = nullptr;
    sim_->cancel(rg.advance_event);
    sim_->cancel(rg.kick_event);
    emit_span(r, rg, rg.mode);
  }
  sim_->cancel(tick_event_);
  for (const EventHandle handle : zoom_window_events_) sim_->cancel(handle);
  fabric_->set_hybrid_driver(nullptr);
}

std::uint32_t HybridDriver::region_of(EndpointId endpoint) const {
  const ClosFabric::EndpointCoords c = fabric_->coords(endpoint);
  return c.rail * fabric_->config().planes + c.plane;
}

void HybridDriver::emit_span(std::uint32_t region, Region& rg,
                             RegionMode ended) {
  const SimTime now = sim_->now();
  if (now > rg.span_start) {
    if (ended == RegionMode::kFluid) rg.fluid_total += now - rg.span_start;
    if (span_hook_) span_hook_(region, ended, rg.span_start, now);
  }
  rg.span_start = now;
}

SimTime HybridDriver::fluid_time() const {
  SimTime total = SimTime::zero();
  for (const Region& rg : regions_) {
    total = total + rg.fluid_total;
    if (rg.mode == RegionMode::kFluid && sim_->now() > rg.span_start) {
      total = total + (sim_->now() - rg.span_start);
    }
  }
  return total;
}

std::uint64_t HybridDriver::fluid_bytes_served() const {
  std::uint64_t total = fluid_bytes_served_;
  const SimTime now = sim_->now();
  for (const Region& rg : regions_) {
    if (rg.mode != RegionMode::kFluid) continue;
    for (const ClientInfo* ci : rg.clients) {
      if (!ci->in_fluid || ci->dead || ci->flow < 0) continue;
      const double earned = ci->rate * (now - ci->anchor).sec() + ci->carry;
      if (earned < 1.0) continue;
      // A flow whose due event is still pending at now may have accrued a
      // hair past its demand; serving would stop at the demand too.
      total += std::min(static_cast<std::uint64_t>(earned), ci->demand);
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

void HybridDriver::register_client(FluidClient* client, EndpointId endpoint) {
  auto info = std::make_unique<ClientInfo>();
  ClientInfo* ci = info.get();
  ci->client = client;
  ci->seq = next_seq_++;
  ci->region = region_of(endpoint);
  Region& rg = regions_[ci->region];
  rg.clients.push_back(ci);
  client->fluid_info_ = ci;
  info_.emplace(client, std::move(info));
  if (rg.mode == RegionMode::kFluid) {
    // Born in fluid: a fresh connection has no packet state, so its freeze
    // is trivial — it only resolves the link shares its spray would use.
    if (freeze(rg, ci) && serving_ != ci->region) schedule_kick(ci->region);
  } else {
    arm_tick();
  }
}

void HybridDriver::unregister_client(FluidClient* client) {
  ClientInfo* ci = info_of(client);
  if (ci == nullptr) return;
  client->fluid_info_ = nullptr;
  Region& rg = regions_[ci->region];
  if (ci->flow >= 0) remove_flow(rg, ci);
  rg.clients.erase(std::find(rg.clients.begin(), rg.clients.end(), ci));
  std::erase(rg.touched, ci);
  std::erase_if(rg.due, [ci](const DueEntry& e) { return e.client == ci; });
  std::make_heap(rg.due.begin(), rg.due.end(), due_later);
  info_.erase(client);
}

void HybridDriver::register_receiver(EndpointId endpoint,
                                     FluidReceiver* receiver) {
  receivers_.at(endpoint) = receiver;
}

void HybridDriver::unregister_receiver(EndpointId endpoint) {
  receivers_.at(endpoint) = nullptr;
}

FluidReceiver* HybridDriver::receiver(EndpointId endpoint) const {
  return endpoint < receivers_.size() ? receivers_[endpoint] : nullptr;
}

// ---------------------------------------------------------------------------
// Fluid service
// ---------------------------------------------------------------------------

bool HybridDriver::freeze(Region& rg, ClientInfo* ci) {
  FluidFlowDesc desc = ci->client->fluid_freeze();
  ci->shares.clear();
  for (const auto& [link, weight] : desc.shares) {
    auto it = rg.link_index.find(link);
    STELLAR_CHECK(it != rg.link_index.end(),
                  "fluid flow references a link outside its region");
    ci->shares.push_back(FluidSolver::LinkShare{it->second, weight});
  }
  ci->in_fluid = true;
  ci->demand = desc.remaining;
  ci->blocked = false;
  ci->next = ci->client->fluid_next_completion_bytes();
  if (ci->next == 0 && desc.messages > 0) push_due_now(rg, ci);
  if (desc.remaining == 0) return false;
  add_flow(rg, ci);
  return true;
}

void HybridDriver::add_flow(Region& rg, ClientInfo* ci) {
  ci->flow = rg.solver.add_flow(ci->shares);
  const auto id = static_cast<std::size_t>(ci->flow);
  if (rg.flow_owner.size() <= id) rg.flow_owner.resize(id + 1, nullptr);
  rg.flow_owner[id] = ci;
  // Rate 0 until the next solve anchors it at its max-min share.
  ci->rate = 0.0;
  ci->anchor = sim_->now();
  ci->carry = 0.0;
  rg.solve_needed = true;
}

void HybridDriver::remove_flow(Region& rg, ClientInfo* ci) {
  const auto id = static_cast<std::uint32_t>(ci->flow);
  rg.solver.remove_flow(id);
  rg.flow_owner[id] = nullptr;
  ci->flow = -1;
  ci->rate = 0.0;
  ci->carry = 0.0;
  ++ci->version;
  rg.solve_needed = true;
}

bool HybridDriver::serve(ClientInfo* ci, bool due) {
  const SimTime now = sim_->now();
  // Integrate the rate since the anchor with a fractional-byte carry, so
  // bytes are conserved exactly across rate changes.
  const double earned = ci->rate * (now - ci->anchor).sec() + ci->carry;
  ci->anchor = now;
  std::uint64_t want = earned > 0.0 ? static_cast<std::uint64_t>(earned) : 0;
  const std::uint64_t upcoming = ci->next;
  STELLAR_DCHECK(upcoming == ci->client->fluid_next_completion_bytes(),
                 "cached next completion %llu is stale",
                 static_cast<unsigned long long>(upcoming));
  if (due && want < upcoming) {
    // Due-time snap: the due time is the first picosecond by which the
    // in-service message has accrued, but rate * dt can round to a hair
    // under it. Complete it anyway and carry the shortfall, rather than
    // finishing it at a second event one picosecond later.
    STELLAR_DCHECK(static_cast<double>(upcoming) - earned < 1.0,
                   "fluid due event is more than a byte short");
    want = upcoming;
  }
  // Nothing accrued and a head that needs bytes: nothing to serve. A
  // zero-length head (upcoming 0) is served anyway, and completes.
  if (want == 0 && upcoming != 0) {
    ci->carry = earned;
    return false;
  }
  const auto [served, next] = ci->client->fluid_serve(want);
  ci->next = next;
  // The head moved: an entry queued for the old one (say, a zero-length
  // WRITE a completion callback posted and this serve then completed) is
  // void. Callers re-queue the flow.
  ++ci->version;
  STELLAR_DCHECK(served <= ci->demand,
                 "fluid serve of %llu bytes exceeds the flow's demand %llu",
                 static_cast<unsigned long long>(served),
                 static_cast<unsigned long long>(ci->demand));
  ci->demand -= served;
  fluid_bytes_served_ += served;
  ci->carry = served == want ? earned - static_cast<double>(want) : 0.0;
  return upcoming > 0 && served >= upcoming;
}

void HybridDriver::push_due(Region& rg, ClientInfo* ci) {
  ++ci->version;  // supersedes any entry already queued
  if (ci->rate <= 0.0) return;
  const std::uint64_t upcoming = ci->next;
  STELLAR_DCHECK(upcoming == ci->client->fluid_next_completion_bytes(),
                 "cached next completion %llu is stale",
                 static_cast<unsigned long long>(upcoming));
  if (upcoming == 0) return;
  double need = static_cast<double>(upcoming) - ci->carry;
  if (need < 0.0) need = 0.0;
  auto dt_ps = static_cast<std::uint64_t>(std::ceil(need * 1e12 / ci->rate));
  if (dt_ps == 0) dt_ps = 1;
  rg.due.push_back(DueEntry{ci->anchor + SimTime::picos(dt_ps), ci->seq, ci,
                            ci->version});
  std::push_heap(rg.due.begin(), rg.due.end(), due_later);
}

void HybridDriver::push_due_now(Region& rg, ClientInfo* ci) {
  rg.due.push_back(DueEntry{sim_->now(), ci->seq, ci, ++ci->version});
  std::push_heap(rg.due.begin(), rg.due.end(), due_later);
  if (serving_ != ci->region) schedule_kick(ci->region);
}

void HybridDriver::serve_due(std::uint32_t region) {
  Region& rg = regions_[region];
  const SimTime now = sim_->now();
  serving_ = region;
  while (!rg.due.empty() && rg.due.front().at <= now) {
    const DueEntry top = rg.due.front();
    std::pop_heap(rg.due.begin(), rg.due.end(), due_later);
    rg.due.pop_back();
    if (top.version != top.client->version) continue;  // superseded
    serve(top.client, /*due=*/true);
    rg.touched.push_back(top.client);
  }
  serving_ = kNoRegion;
}

void HybridDriver::retire_touched(Region& rg) {
  if (rg.touched.empty()) return;
  // Registration order, as a sweep over the region's clients would visit
  // them: retirement order decides which solver ids get recycled.
  std::sort(rg.touched.begin(), rg.touched.end(),
            [](const ClientInfo* a, const ClientInfo* b) {
              return a->seq < b->seq;
            });
  rg.touched.erase(std::unique(rg.touched.begin(), rg.touched.end()),
                   rg.touched.end());
  for (ClientInfo* ci : rg.touched) {
    if (ci->flow < 0) continue;
    if (ci->dead || ci->demand == 0) {
      if (!ci->dead) ++fluid_completions_;
      remove_flow(rg, ci);
    } else {
      push_due(rg, ci);
    }
  }
  rg.touched.clear();
}

void HybridDriver::solve_region(std::uint32_t region) {
  Region& rg = regions_[region];
  rg.solver.solve();
  rg.solve_needed = false;
  serving_ = region;
  for (const std::uint32_t id : rg.solver.last_solved_flows()) {
    ClientInfo* ci = rg.flow_owner[id];
    if (ci == nullptr) continue;  // unregistered by a completion callback
    const double rate = rg.solver.rate(id);
    if (rate == ci->rate) continue;
    // Bytes earned at the old rate through now; the new rate runs from here.
    if (serve(ci, /*due=*/false)) rg.touched.push_back(ci);
    ci->rate = rate;
    push_due(rg, ci);
  }
  serving_ = kNoRegion;
}

void HybridDriver::advance_to_now(std::uint32_t region) {
  Region& rg = regions_[region];
  serving_ = region;
  // By index: a completion callback may register a client.
  for (std::size_t i = 0; i < rg.clients.size(); ++i) {
    ClientInfo* ci = rg.clients[i];
    if (!ci->in_fluid || ci->dead || ci->flow < 0) continue;
    serve(ci, /*due=*/false);
  }
  serving_ = kNoRegion;
}

void HybridDriver::service_region(std::uint32_t region) {
  Region& rg = regions_[region];
  if (rg.mode != RegionMode::kFluid) return;
  serve_due(region);
  // A re-solve can complete a message of a re-rated flow (when rounding
  // lands it exactly on the boundary), which needs its own retire pass.
  for (;;) {
    if (rg.pending_zoom) {
      rg.pending_zoom = false;
      zoom_region(region, rg.pending_zoom_reason);
      return;
    }
    retire_touched(rg);
    if (!rg.solve_needed) break;
    solve_region(region);
  }
  schedule_next(region);
}

void HybridDriver::schedule_next(std::uint32_t region) {
  Region& rg = regions_[region];
  if (rg.advance_event.valid()) {
    sim_->cancel(rg.advance_event);
    rg.advance_event = EventHandle{};
  }
  const auto stale = [](const DueEntry& e) {
    return e.version != e.client->version;
  };
  // Every re-rate leaves a superseded entry behind; compact once they
  // outnumber the live ones (at most one per active flow).
  if (rg.due.size() > 2 * rg.solver.active_flows() + 64) {
    std::erase_if(rg.due, stale);
    std::make_heap(rg.due.begin(), rg.due.end(), due_later);
  }
  while (!rg.due.empty() && stale(rg.due.front())) {
    std::pop_heap(rg.due.begin(), rg.due.end(), due_later);
    rg.due.pop_back();
  }
  if (rg.due.empty()) return;
  rg.advance_event = sim_->schedule_at(rg.due.front().at, [this, region] {
    regions_[region].advance_event = EventHandle{};
    service_region(region);
  });
}

void HybridDriver::schedule_kick(std::uint32_t region) {
  Region& rg = regions_[region];
  if (rg.kick_event.valid()) return;
  rg.kick_event = sim_->schedule_at(sim_->now(), [this, region] {
    regions_[region].kick_event = EventHandle{};
    service_region(region);
  });
}

// ---------------------------------------------------------------------------
// Mode transitions
// ---------------------------------------------------------------------------

void HybridDriver::enter_fluid(std::uint32_t region) {
  Region& rg = regions_[region];
  if (rg.mode == RegionMode::kFluid) return;
  const SimTime now = sim_->now();
  if (now < hold_until_) return;
  for (ClientInfo* ci : rg.clients) {
    if (ci->dead || ci->client->fluid_errored()) continue;
    if (!ci->client->fluid_eligible()) return;  // stay packet this epoch
  }
  // A down link breaks the fluid model's capacity assumptions (flows
  // across it would stall at rate zero and never complete): packet mode
  // owns outages — its retransmit/blacklist machinery routes around them.
  for (const NetLink* link : rg.links) {
    if (!link->is_up()) return;
  }
  // Refresh capacities: degrade faults may have changed link bandwidth
  // since the region was last fluid.
  for (std::uint32_t l = 0; l < rg.links.size(); ++l) {
    rg.solver.set_capacity(
        l, static_cast<double>(rg.links[l]->config().bandwidth.bps()) / 8.0);
  }
  // Absorb every packet the region's links still own into fluid state.
  for (NetLink* link : rg.links) absorbed_packets_ += link->absorb();
  for (ClientInfo* ci : rg.clients) {
    if (ci->dead || ci->client->fluid_errored()) {
      ci->dead = true;
      continue;
    }
    freeze(rg, ci);
  }
  emit_span(region, rg, RegionMode::kPacket);
  rg.mode = RegionMode::kFluid;
  ++transitions_;
  solve_region(region);
  schedule_next(region);
}

void HybridDriver::zoom_region(std::uint32_t region, const char* reason) {
  Region& rg = regions_[region];
  if (rg.mode != RegionMode::kFluid) return;
  if (serving_ != kNoRegion) {
    // Mid-serve (a completion callback triggered the zoom): finish the
    // serve loop first, then zoom at the same timestamp via the kick.
    rg.pending_zoom = true;
    rg.pending_zoom_reason = reason;
    schedule_kick(region);
    return;
  }
  advance_to_now(region);
  if (rg.advance_event.valid()) {
    sim_->cancel(rg.advance_event);
    rg.advance_event = EventHandle{};
  }
  rg.pending_zoom = false;
  emit_span(region, rg, RegionMode::kFluid);
  rg.mode = RegionMode::kPacket;
  ++transitions_;
  for (ClientInfo* ci : rg.clients) {
    const double rate = ci->rate;
    if (ci->flow >= 0) remove_flow(rg, ci);
    if (ci->in_fluid) {
      ci->in_fluid = false;
      // Thaw seeds the congestion window from the fluid rate and calls
      // send_more(), repopulating real link queues.
      ci->client->fluid_thaw(rate);
    }
  }
  rg.due.clear();
  rg.touched.clear();
  rg.solve_needed = false;
  rg.quiet_epochs = 0;
  // Promotion baselines: only *new* ECN marks / retransmits after the zoom
  // count against quietness.
  std::uint64_t ecn = 0;
  for (const NetLink* link : rg.links) ecn += link->ecn_marks();
  std::uint64_t retx = 0;
  for (ClientInfo* ci : rg.clients) {
    if (!ci->dead) retx += ci->client->fluid_retransmit_count();
  }
  rg.last_ecn = ecn;
  rg.last_retx = retx;
  (void)reason;
  arm_tick();
}

void HybridDriver::force_packet(SimTime hold, const char* reason) {
  const SimTime until = sim_->now() + hold;
  if (until > hold_until_) hold_until_ = until;
  for (std::uint32_t r = 0; r < regions_.size(); ++r) zoom_region(r, reason);
  arm_tick();
}

void HybridDriver::request_zoom_window(SimTime start, SimTime end) {
  if (start <= sim_->now()) {
    if (end > hold_until_) hold_until_ = end;
    force_packet(SimTime::zero(), "zoom-window");
    return;
  }
  zoom_window_events_.push_back(sim_->schedule_at(start, [this, end] {
    if (end > hold_until_) hold_until_ = end;
    force_packet(SimTime::zero(), "zoom-window");
  }));
}

// ---------------------------------------------------------------------------
// Client notifications
// ---------------------------------------------------------------------------

void HybridDriver::on_fluid_post(FluidClient* client, std::uint64_t bytes) {
  ClientInfo* ci = info_of(client);
  if (ci == nullptr) return;
  // Behind a queued non-WRITE the WRITE waits for the pending zoom.
  if (!ci->in_fluid || ci->dead || ci->blocked) return;
  ci->demand += bytes;
  // A flow with no cached head (drained, or never started) may have just
  // got one. Otherwise the post queues behind the head, or lands inside
  // the client's own serve, whose FluidServe::next then covers it.
  if (ci->next == 0) {
    ci->next = client->fluid_next_completion_bytes();
    // Still 0 with a WRITE queued: a zero-length WRITE heads the queue.
    if (ci->next == 0) push_due_now(regions_[ci->region], ci);
  }
  if (ci->flow < 0 && ci->demand > 0) {
    add_flow(regions_[ci->region], ci);
    // The region being served re-solves before its pass ends.
    if (serving_ != ci->region) schedule_kick(ci->region);
  }
  // A post behind an already-active flow queues after the in-service
  // message: rates and the next completion event are unchanged.
}

void HybridDriver::on_ineligible_post(FluidClient* client) {
  ClientInfo* ci = info_of(client);
  if (ci == nullptr || !ci->in_fluid) return;
  // The cached head stays right: a non-WRITE queues behind it, or heads
  // an empty queue, where the next completion reads 0 either way.
  ci->blocked = true;
  zoom_region(ci->region, "ineligible-post");
}

void HybridDriver::on_client_error(FluidClient* client) {
  ClientInfo* ci = info_of(client);
  if (ci == nullptr) return;
  ci->dead = true;
  ci->next = 0;  // the error dropped every queued message
  if (!ci->in_fluid) return;
  ci->in_fluid = false;
  Region& rg = regions_[ci->region];
  if (ci->flow >= 0) {
    // The flow itself is retired by the next service_region pass — it may
    // currently be mid-serve. Its queued due entry is void already.
    ++ci->version;
    rg.touched.push_back(ci);
    rg.solve_needed = true;
    if (serving_ != ci->region) schedule_kick(ci->region);
  }
}

// ---------------------------------------------------------------------------
// Promotion (packet -> fluid) trigger polling
// ---------------------------------------------------------------------------

void HybridDriver::arm_tick() {
  if (tick_event_.valid()) return;
  bool needed = false;
  for (const Region& rg : regions_) {
    if (rg.mode != RegionMode::kPacket) continue;
    for (const ClientInfo* ci : rg.clients) {
      if (!ci->dead) {
        needed = true;
        break;
      }
    }
    if (needed) break;
  }
  if (!needed) return;
  // Never keep an otherwise-drained simulator alive just to poll: when
  // traffic stops, the tick stops with it.
  if (sim_->pending_events() == 0) return;
  tick_event_ = sim_->schedule_after(kEpoch, [this] { tick(); });
}

void HybridDriver::tick() {
  tick_event_ = EventHandle{};
  const SimTime now = sim_->now();
  for (std::uint32_t r = 0; r < regions_.size(); ++r) {
    Region& rg = regions_[r];
    if (rg.mode != RegionMode::kPacket) continue;
    bool has_live = false;
    for (const ClientInfo* ci : rg.clients) {
      if (!ci->dead) {
        has_live = true;
        break;
      }
    }
    if (!has_live) continue;
    std::uint64_t ecn = 0;
    for (const NetLink* link : rg.links) ecn += link->ecn_marks();
    std::uint64_t retx = 0;
    for (const ClientInfo* ci : rg.clients) {
      if (!ci->dead) retx += ci->client->fluid_retransmit_count();
    }
    bool quiet = true;
    for (const NetLink* link : rg.links) {
      if (link->queue_bytes() > kZoomQueueBytes) {
        quiet = false;
        break;
      }
    }
    if (ecn != rg.last_ecn || retx != rg.last_retx) quiet = false;
    rg.last_ecn = ecn;
    rg.last_retx = retx;
    if (now < hold_until_) quiet = false;
    if (quiet) {
      ++rg.quiet_epochs;
    } else {
      rg.quiet_epochs = 0;
    }
    if (rg.quiet_epochs >= kPromoteQuietEpochs) enter_fluid(r);
  }
  arm_tick();
}

}  // namespace stellar
