#include "fasda/pe/processing_element.hpp"

namespace fasda::pe {

PairProbe::Fn PairProbe::hook;
RetireProbe::Fn RetireProbe::hook;

ProcessingElement::ProcessingElement(std::string name, const PEConfig& config,
                                     const ForceModel& model,
                                     const std::vector<CellParticle>* home,
                                     ForceSink* sink, int fc_index)
    : Component(std::move(name)),
      config_(config),
      model_(model),
      home_(home),
      sink_(sink),
      fc_index_(fc_index),
      input_(config.input_queue_depth),
      output_(config.output_queue_depth) {
  const auto filters = static_cast<std::size_t>(config.num_filters);
  pool_.reserve(2 * filters);
  free_slots_.reserve(2 * filters);
  retiring_.reserve(2 * filters);
  filters_.reserve(filters);
  filter_pos_.reserve(filters);
  filter_min_stream_.reserve(filters);
  // stream_and_filter only advances while the buffer can take a full burst
  // of every loaded filter, and at most one pair issues per cycle into a
  // pipeline whose entries complete `pipeline_latency` cycles later.
  pair_buffer_.reserve(config.pair_buffer_depth + filters);
  pipeline_.reserve(static_cast<std::size_t>(config.pipeline_latency) + 1);
}

ProcessingElement::RefSlot ProcessingElement::alloc_ref() {
  if (!free_slots_.empty()) {
    const RefSlot slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  pool_.emplace_back();
  return static_cast<RefSlot>(pool_.size() - 1);
}

void ProcessingElement::release_ref(RefSlot slot) {
  pool_[slot] = RefState{};
  free_slots_.push_back(slot);
}

void ProcessingElement::tick(sim::Cycle now) {
  // Order within a cycle mirrors the RTL stages back-to-front so each stage
  // consumes state its upstream produced in *earlier* cycles.
  drain_pipeline(now);
  issue_pair(now);
  stream_and_filter();
  retire_references();
  if (!pass_active_) reload_filters();

  const bool active = pass_active_ || !pipeline_.empty() || !pair_buffer_.empty();
  pe_util_.record(0, 0, active);  // work/capacity recorded in issue_pair
}

sim::Cycle ProcessingElement::next_wake(sim::Cycle now) const {
  if (pass_active_ || !pair_buffer_.empty() || !input_.empty()) return now;
  for (const RefSlot slot : retiring_) {
    // Retiring entries always have pass_done set; pending == 0 means the
    // arbiter acts (or keeps stalling on a full output, which still
    // re-evaluates every cycle).
    if (pool_[slot].pending == 0) return now;
  }
  if (!pipeline_.empty()) return std::max(pipeline_.front().completes_at, now);
  return sim::kNeverCycle;
}

void ProcessingElement::skip_idle(sim::Cycle from, sim::Cycle to) {
  // Replays the bookkeeping `to - from` idle ticks accrue: issue_pair's
  // empty-buffer record(0, 1, false) each cycle, plus the end-of-tick
  // active flag — true exactly while in-flight pairs sit in the pipeline,
  // the one sleepable state where tick still counts the PE as functioning
  // (we only sleep on a non-empty pipeline waiting for its head's
  // completes_at, so the flag is constant across the window).
  pe_util_.record(0, to - from, false);
  if (!pipeline_.empty()) pe_util_.active_cycles += to - from;
}

void ProcessingElement::drain_pipeline(sim::Cycle now) {
  while (!pipeline_.empty() && pipeline_.front().completes_at <= now) {
    const PipelineEntry e = pipeline_.front();
    pipeline_.pop_front();
    sink_->accumulate(e.home_slot, e.force_on_home, fc_index_);
    RefState& r = pool_[e.ref];
    r.acc -= e.force_on_home;
    r.pending--;
  }
}

void ProcessingElement::issue_pair(sim::Cycle now) {
  if (pair_buffer_.empty()) {
    pe_util_.record(0, 1, false);
    return;
  }
  const PairCandidate c = pair_buffer_.front();
  pair_buffer_.pop_front();
  const CellParticle& home = (*home_)[c.home_slot];
  const RefState& r = pool_[c.ref];
  PipelineEntry e;
  e.force_on_home = model_.pair_force(home.pos, home.elem, r.ref.pos, r.ref.elem);
  e.home_slot = c.home_slot;
  e.ref = c.ref;
  e.completes_at = now + static_cast<sim::Cycle>(config_.pipeline_latency);
  if (PairProbe::hook) {
    PairProbe::hook((*home_)[e.home_slot].id, r.ref, e.force_on_home);
  }
  pipeline_.push_back(e);
  ++pairs_issued_;
  pe_util_.record(1, 1, false);
}

void ProcessingElement::stream_and_filter() {
  if (!pass_active_) return;
  // Worst case every loaded filter accepts this cycle; only advance when the
  // buffer can take the burst (the hardware's filter-output backpressure).
  if (pair_buffer_.size() + filters_.size() > config_.pair_buffer_depth) {
    filter_util_.record(0, static_cast<std::uint64_t>(config_.num_filters), true);
    return;
  }
  const CellParticle& home = (*home_)[stream_index_];
  const std::uint32_t si = static_cast<std::uint32_t>(stream_index_);
  const std::size_t loaded = filters_.size();
  for (std::size_t f = 0; f < loaded; ++f) {
    if (si < filter_min_stream_[f]) continue;
    const std::uint64_t r2q = fixed::r2_fixed(filter_pos_[f], home.pos);
    if (model_.filter(r2q)) {
      // `pending` counts from acceptance, not pipeline issue: a reference
      // must not retire while accepted pairs still wait in the buffer.
      RefState& r = pool_[filters_[f]];
      r.pending++;
      r.any_pair = true;
      pair_buffer_.push_back(
          PairCandidate{filters_[f], static_cast<std::uint16_t>(stream_index_)});
    }
  }
  filter_util_.record(loaded, static_cast<std::uint64_t>(config_.num_filters),
                      true);

  if (++stream_index_ >= home_->size()) {
    // Pass complete: all loaded references start retiring.
    for (const RefSlot slot : filters_) {
      pool_[slot].pass_done = true;
      retiring_.push_back(slot);
    }
    filters_.clear();
    filter_pos_.clear();
    filter_min_stream_.clear();
    pass_active_ = false;
    stream_index_ = 0;
  }
}

void ProcessingElement::retire_references() {
  // At most one retirement per cycle (the FRN-side arbiter).
  for (auto it = retiring_.begin(); it != retiring_.end(); ++it) {
    RefState& r = pool_[*it];
    if (!r.pass_done || r.pending != 0) continue;
    if (r.ref.is_home) {
      sink_->accumulate(r.ref.home_index, r.acc, fc_index_);
    } else if (r.any_pair) {
      if (!output_.can_push()) return;  // stall, retry next cycle
      const ring::ForceToken token{r.ref.src_lcid, r.acc, r.ref.slot};
      if (RetireProbe::hook) RetireProbe::hook(token);
      output_.push(token);
    } else {
      ++zero_force_refs_;
    }
    ++refs_processed_;
    release_ref(*it);
    retiring_.erase(it);
    return;
  }
}

void ProcessingElement::reload_filters() {
  if (home_->empty()) {
    // An empty home cell still receives broadcasts from its neighbours;
    // they pair with nothing and are discarded like any zero-force
    // reference, otherwise the node could never drain (§5.4).
    while (!input_.empty()) {
      input_.pop();
      ++zero_force_refs_;
      ++refs_processed_;
    }
    return;
  }
  while (static_cast<int>(filters_.size()) < config_.num_filters &&
         !input_.empty()) {
    const RefSlot slot = alloc_ref();
    RefState& r = pool_[slot];
    r.ref = input_.pop();
    filters_.push_back(slot);
    filter_pos_.push_back(r.ref.pos);
    // Home references pair only against later stream indices (each
    // intra-cell pair examined once); neighbours pair from index 0.
    filter_min_stream_.push_back(
        r.ref.is_home ? static_cast<std::uint32_t>(r.ref.home_index) + 1u : 0u);
  }
  if (!filters_.empty()) {
    pass_active_ = true;
    stream_index_ = 0;
  }
}

bool ProcessingElement::quiescent() const {
  return filters_.empty() && retiring_.empty() && pair_buffer_.empty() &&
         pipeline_.empty() && input_.total_occupancy() == 0 &&
         output_.total_occupancy() == 0;
}

void ProcessingElement::reset_phase() {
  stream_index_ = 0;
  pass_active_ = false;
}

}  // namespace fasda::pe
