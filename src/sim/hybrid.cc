#include "sim/hybrid.h"

#include <algorithm>
#include <cmath>

namespace stellar {

namespace {

/// Trigger-poll period while the fabric is in packet mode.
constexpr SimTime kEpoch = SimTime::micros(5);
/// Promotion requires every link's queue at or below this.
constexpr std::uint64_t kZoomQueueBytes = 256u << 10;
/// Consecutive quiet epochs required before promotion.
constexpr std::uint32_t kPromoteQuietEpochs = 3;

}  // namespace

HybridDriver::HybridDriver(Simulator& sim, ClosFabric& fabric)
    : sim_(&sim),
      fabric_(&fabric),
      receivers_(fabric.endpoint_count()),
      advance_timer_(sim, [this] { service(); }),
      kick_timer_(sim, [this] { service(); }),
      tick_timer_(sim, [this] { tick(); }) {
  STELLAR_CHECK(fabric.hybrid_driver() == nullptr,
                "fabric already has a hybrid driver attached");
  fabric.set_hybrid_driver(this);
  const FabricConfig& fc = fabric.config();
  // Deterministic link order, which solver link ids follow: host/ToR edge
  // links per (segment, host), then the aggregation layer per (segment,
  // agg).
  for (std::uint32_t s = 0; s < fc.segments; ++s) {
    for (std::uint32_t h = 0; h < fc.hosts_per_segment; ++h) {
      links_.push_back(&fabric.host_uplink(s, h));
      links_.push_back(&fabric.tor_downlink(s, h));
    }
  }
  for (std::uint32_t s = 0; s < fc.segments; ++s) {
    for (std::uint32_t a = 0; a < fc.aggs_per_plane; ++a) {
      links_.push_back(&fabric.tor_uplink(s, a));
      links_.push_back(&fabric.agg_downlink(a, s));
    }
  }
  for (NetLink* link : links_) {
    link_index_.emplace(
        link,
        solver_.add_link(
            static_cast<double>(link->config().bandwidth.bps()) / 8.0));
  }
  span_start_ = sim.now();
}

HybridDriver::~HybridDriver() {
  // Clients outliving the driver must not keep pointing at its records.
  for (ClientInfo* ci : clients_) ci->client->fluid_info_ = nullptr;
  emit_span(mode_);
  fabric_->set_hybrid_driver(nullptr);
}

RegionMode HybridDriver::region_mode(std::uint32_t region) const {
  STELLAR_CHECK(region == 0, "region_mode(%u): the fabric is one region",
                region);
  return mode_;
}

void HybridDriver::emit_span(RegionMode ended) {
  const SimTime now = sim_->now();
  if (now > span_start_) {
    if (ended == RegionMode::kFluid) fluid_total_ += now - span_start_;
    if (span_hook_) span_hook_(ended, span_start_, now);
  }
  span_start_ = now;
}

SimTime HybridDriver::fluid_time() const {
  if (mode_ == RegionMode::kFluid && sim_->now() > span_start_) {
    return fluid_total_ + (sim_->now() - span_start_);
  }
  return fluid_total_;
}

std::uint64_t HybridDriver::fluid_bytes_served() const {
  std::uint64_t total = fluid_bytes_served_;
  if (mode_ != RegionMode::kFluid) return total;
  const SimTime now = sim_->now();
  for (const ClientInfo* ci : clients_) {
    if (!ci->in_fluid || ci->dead || ci->flow < 0) continue;
    const double earned = ci->rate * (now - ci->anchor).sec() + ci->carry;
    if (earned < 1.0) continue;
    // A flow whose due event is still pending at now may have accrued a
    // hair past its demand; serving would stop at the demand too.
    total += std::min(static_cast<std::uint64_t>(earned), ci->demand);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

void HybridDriver::register_client(FluidClient* client) {
  auto info = std::make_unique<ClientInfo>();
  ClientInfo* ci = info.get();
  ci->client = client;
  ci->seq = next_seq_++;
  clients_.push_back(ci);
  client->fluid_info_ = ci;
  info_.emplace(client, std::move(info));
  if (mode_ == RegionMode::kFluid) {
    // Born in fluid: a fresh connection has no packet state, so its freeze
    // is trivial — it only resolves the link shares its spray would use.
    if (freeze(ci) && !serving_) schedule_kick();
  } else {
    arm_tick();
  }
}

void HybridDriver::unregister_client(FluidClient* client) {
  ClientInfo* ci = info_of(client);
  if (ci == nullptr) return;
  client->fluid_info_ = nullptr;
  if (ci->flow >= 0) remove_flow(ci);
  clients_.erase(std::find(clients_.begin(), clients_.end(), ci));
  std::erase(touched_, ci);
  std::erase_if(due_, [ci](const DueEntry& e) { return e.client == ci; });
  std::make_heap(due_.begin(), due_.end(), due_later);
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

bool HybridDriver::freeze(ClientInfo* ci) {
  FluidFlowDesc desc = ci->client->fluid_freeze();
  ci->shares.clear();
  for (const auto& [link, weight] : desc.shares) {
    auto it = link_index_.find(link);
    STELLAR_CHECK(it != link_index_.end(),
                  "fluid flow references a link outside the fabric");
    ci->shares.push_back(FluidSolver::LinkShare{it->second, weight});
  }
  ci->in_fluid = true;
  ci->demand = desc.remaining;
  ci->blocked = false;
  ci->next = ci->client->fluid_next_completion_bytes();
  if (ci->next == 0 && desc.messages > 0) push_due_now(ci);
  if (desc.remaining == 0) return false;
  add_flow(ci);
  return true;
}

void HybridDriver::add_flow(ClientInfo* ci) {
  ci->flow = solver_.add_flow(ci->shares);
  const auto id = static_cast<std::size_t>(ci->flow);
  if (flow_owner_.size() <= id) flow_owner_.resize(id + 1, nullptr);
  flow_owner_[id] = ci;
  // Rate 0 until the next solve anchors it at its max-min share.
  ci->rate = 0.0;
  ci->anchor = sim_->now();
  ci->carry = 0.0;
  solve_needed_ = true;
}

void HybridDriver::remove_flow(ClientInfo* ci) {
  const auto id = static_cast<std::uint32_t>(ci->flow);
  solver_.remove_flow(id);
  flow_owner_[id] = nullptr;
  ci->flow = -1;
  ci->rate = 0.0;
  ci->carry = 0.0;
  ++ci->version;
  solve_needed_ = true;
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

void HybridDriver::push_due(ClientInfo* ci) {
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
  due_.push_back(DueEntry{ci->anchor + SimTime::picos(dt_ps), ci->seq, ci,
                          ci->version});
  std::push_heap(due_.begin(), due_.end(), due_later);
}

void HybridDriver::push_due_now(ClientInfo* ci) {
  due_.push_back(DueEntry{sim_->now(), ci->seq, ci, ++ci->version});
  std::push_heap(due_.begin(), due_.end(), due_later);
  if (!serving_) schedule_kick();
}

void HybridDriver::serve_due() {
  const SimTime now = sim_->now();
  serving_ = true;
  while (!due_.empty() && due_.front().at <= now) {
    const DueEntry top = due_.front();
    std::pop_heap(due_.begin(), due_.end(), due_later);
    due_.pop_back();
    if (top.version != top.client->version) continue;  // superseded
    serve(top.client, /*due=*/true);
    touched_.push_back(top.client);
  }
  serving_ = false;
}

void HybridDriver::retire_touched() {
  if (touched_.empty()) return;
  // Registration order, as a sweep over the clients would visit them:
  // retirement order decides which solver ids get recycled.
  std::sort(touched_.begin(), touched_.end(),
            [](const ClientInfo* a, const ClientInfo* b) {
              return a->seq < b->seq;
            });
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  for (ClientInfo* ci : touched_) {
    if (ci->flow < 0) continue;
    if (ci->dead || ci->demand == 0) {
      if (!ci->dead) ++fluid_completions_;
      remove_flow(ci);
    } else {
      push_due(ci);
    }
  }
  touched_.clear();
}

void HybridDriver::solve() {
  solver_.solve();
  solve_needed_ = false;
  serving_ = true;
  for (const std::uint32_t id : solver_.last_solved_flows()) {
    ClientInfo* ci = flow_owner_[id];
    if (ci == nullptr) continue;  // unregistered by a completion callback
    const double rate = solver_.rate(id);
    if (rate == ci->rate) continue;
    // Bytes earned at the old rate through now; the new rate runs from here.
    if (serve(ci, /*due=*/false)) touched_.push_back(ci);
    ci->rate = rate;
    push_due(ci);
  }
  serving_ = false;
}

void HybridDriver::advance_to_now() {
  serving_ = true;
  // By index: a completion callback may register a client.
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    ClientInfo* ci = clients_[i];
    if (!ci->in_fluid || ci->dead || ci->flow < 0) continue;
    serve(ci, /*due=*/false);
  }
  serving_ = false;
}

void HybridDriver::service() {
  if (mode_ != RegionMode::kFluid) return;
  serve_due();
  // A re-solve can complete a message of a re-rated flow (when rounding
  // lands it exactly on the boundary), which needs its own retire pass.
  for (;;) {
    if (pending_zoom_) {
      pending_zoom_ = false;
      zoom(pending_zoom_reason_);
      return;
    }
    retire_touched();
    if (!solve_needed_) break;
    solve();
  }
  schedule_next();
}

void HybridDriver::schedule_next() {
  advance_timer_.disarm();
  const auto stale = [](const DueEntry& e) {
    return e.version != e.client->version;
  };
  // Every re-rate leaves a superseded entry behind; compact once they
  // outnumber the live ones (at most one per active flow).
  if (due_.size() > 2 * solver_.active_flows() + 64) {
    std::erase_if(due_, stale);
    std::make_heap(due_.begin(), due_.end(), due_later);
  }
  while (!due_.empty() && stale(due_.front())) {
    std::pop_heap(due_.begin(), due_.end(), due_later);
    due_.pop_back();
  }
  if (!due_.empty()) advance_timer_.arm(due_.front().at);
}

void HybridDriver::schedule_kick() {
  if (!kick_timer_.armed()) kick_timer_.arm(sim_->now());
}

// ---------------------------------------------------------------------------
// Mode transitions
// ---------------------------------------------------------------------------

void HybridDriver::enter_fluid() {
  if (mode_ == RegionMode::kFluid) return;
  const SimTime now = sim_->now();
  if (now < hold_until_) return;
  for (ClientInfo* ci : clients_) {
    if (ci->dead || ci->client->fluid_errored()) continue;
    if (!ci->client->fluid_eligible()) return;  // stay packet this epoch
  }
  // A down link breaks the fluid model's capacity assumptions (flows
  // across it would stall at rate zero and never complete): packet mode
  // owns outages — its retransmit/blacklist machinery routes around them.
  for (const NetLink* link : links_) {
    if (!link->is_up()) return;
  }
  // Refresh capacities: degrade faults may have changed link bandwidth
  // since the fabric was last fluid.
  for (std::uint32_t l = 0; l < links_.size(); ++l) {
    solver_.set_capacity(
        l, static_cast<double>(links_[l]->config().bandwidth.bps()) / 8.0);
  }
  // Absorb every packet the links still own into fluid state.
  for (NetLink* link : links_) absorbed_packets_ += link->absorb();
  for (ClientInfo* ci : clients_) {
    if (ci->dead || ci->client->fluid_errored()) {
      ci->dead = true;
      continue;
    }
    freeze(ci);
  }
  emit_span(RegionMode::kPacket);
  mode_ = RegionMode::kFluid;
  ++transitions_;
  solve();
  schedule_next();
}

void HybridDriver::zoom(const char* reason) {
  if (mode_ != RegionMode::kFluid) return;
  if (serving_) {
    // Mid-serve (a completion callback triggered the zoom): finish the
    // serve loop first, then zoom at the same timestamp via the kick.
    pending_zoom_ = true;
    pending_zoom_reason_ = reason;
    schedule_kick();
    return;
  }
  advance_to_now();
  advance_timer_.disarm();
  pending_zoom_ = false;
  emit_span(RegionMode::kFluid);
  mode_ = RegionMode::kPacket;
  ++transitions_;
  for (ClientInfo* ci : clients_) {
    const double rate = ci->rate;
    if (ci->flow >= 0) remove_flow(ci);
    if (ci->in_fluid) {
      ci->in_fluid = false;
      // Thaw seeds the congestion window from the fluid rate and calls
      // send_more(), repopulating real link queues.
      ci->client->fluid_thaw(rate);
    }
  }
  due_.clear();
  touched_.clear();
  solve_needed_ = false;
  quiet_epochs_ = 0;
  // Promotion baselines: only *new* ECN marks / retransmits after the zoom
  // count against quietness.
  std::uint64_t ecn = 0;
  for (const NetLink* link : links_) ecn += link->ecn_marks();
  std::uint64_t retx = 0;
  for (ClientInfo* ci : clients_) {
    if (!ci->dead) retx += ci->client->fluid_retransmit_count();
  }
  last_ecn_ = ecn;
  last_retx_ = retx;
  (void)reason;
  arm_tick();
}

void HybridDriver::force_packet(SimTime hold, const char* reason) {
  const SimTime until = sim_->now() + hold;
  if (until > hold_until_) hold_until_ = until;
  zoom(reason);
  arm_tick();
}

void HybridDriver::request_zoom_window(SimTime start, SimTime end) {
  if (start <= sim_->now()) {
    open_zoom_window(end);
    return;
  }
  zoom_windows_.push_back(std::make_unique<ZoomWindow>(this, end));
  zoom_windows_.back()->timer.arm(start);
}

void HybridDriver::open_zoom_window(SimTime end) {
  if (end > hold_until_) hold_until_ = end;
  force_packet(SimTime::zero(), "zoom-window");
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
    if (ci->next == 0) push_due_now(ci);
  }
  if (ci->flow < 0 && ci->demand > 0) {
    add_flow(ci);
    // A service pass in progress re-solves before it ends.
    if (!serving_) schedule_kick();
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
  zoom("ineligible-post");
}

void HybridDriver::on_client_error(FluidClient* client) {
  ClientInfo* ci = info_of(client);
  if (ci == nullptr) return;
  ci->dead = true;
  ci->next = 0;  // the error dropped every queued message
  if (!ci->in_fluid) return;
  ci->in_fluid = false;
  if (ci->flow >= 0) {
    // The flow itself is retired by the next service() pass — it may
    // currently be mid-serve. Its queued due entry is void already.
    ++ci->version;
    touched_.push_back(ci);
    solve_needed_ = true;
    if (!serving_) schedule_kick();
  }
}

// ---------------------------------------------------------------------------
// Promotion (packet -> fluid) trigger polling
// ---------------------------------------------------------------------------

bool HybridDriver::has_live_client() const {
  return std::any_of(clients_.begin(), clients_.end(),
                     [](const ClientInfo* ci) { return !ci->dead; });
}

void HybridDriver::arm_tick() {
  if (tick_timer_.armed()) return;
  if (mode_ != RegionMode::kPacket || !has_live_client()) return;
  // Never keep an otherwise-drained simulator alive just to poll: when
  // traffic stops, the tick stops with it.
  if (sim_->pending_events() == 0) return;
  tick_timer_.arm(sim_->now() + kEpoch);
}

void HybridDriver::tick() {
  if (mode_ == RegionMode::kPacket && has_live_client()) {
    std::uint64_t ecn = 0;
    for (const NetLink* link : links_) ecn += link->ecn_marks();
    std::uint64_t retx = 0;
    for (const ClientInfo* ci : clients_) {
      if (!ci->dead) retx += ci->client->fluid_retransmit_count();
    }
    bool quiet = true;
    for (const NetLink* link : links_) {
      if (link->queue_bytes() > kZoomQueueBytes) {
        quiet = false;
        break;
      }
    }
    if (ecn != last_ecn_ || retx != last_retx_) quiet = false;
    last_ecn_ = ecn;
    last_retx_ = retx;
    if (sim_->now() < hold_until_) quiet = false;
    if (quiet) {
      ++quiet_epochs_;
    } else {
      quiet_epochs_ = 0;
    }
    if (quiet_epochs_ >= kPromoteQuietEpochs) enter_fluid();
  }
  arm_tick();
}

}  // namespace stellar
