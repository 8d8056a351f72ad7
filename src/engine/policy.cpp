#include "src/engine/policy.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "src/core/estimator.hpp"
#include "src/engine/exec_core.hpp"

namespace moldable::engine {

double certified_lower_bound(const jobs::Instance& instance) {
  if (instance.size() == 0) return 0.0;
  // The memory-aware area bound is valid independently of the estimator
  // (and is +inf for provably-unschedulable memory-tight instances, which
  // is exactly what lets the shed probe refuse them with a proof), so it is
  // max-combined even when the estimator itself fails.
  const double mem_bound =
      instance.memory_constrained() ? instance.memory_lower_bound() : 0.0;
  try {
    return std::max(core::estimate_makespan(instance).omega, mem_bound);
  } catch (const std::exception&) {
    if (mem_bound > 0) return mem_bound;
    return -std::numeric_limits<double>::infinity();
  }
}

void mix_shed_digest(std::uint64_t& h, std::size_t index, const ShedOutcome& shed) {
  const std::uint64_t digest_index = index;
  detail::fnv1a_mix(h, &digest_index, sizeof(digest_index));
  const unsigned char marker = 2;  // served outcomes mix ok 0/1 here
  detail::fnv1a_mix(h, &marker, sizeof(marker));
  detail::fnv1a_mix(h, shed.sla_class.data(), shed.sla_class.size());
  detail::fnv1a_mix_double(h, shed.omega);
  detail::fnv1a_mix_double(h, shed.budget);
}

VariantPriorTable::VariantPriorTable(std::size_t n_variants, double decay)
    : n_variants_(n_variants), decay_(decay) {
  if (decay_ <= 0 || decay_ > 1) throw std::invalid_argument("prior decay must be in (0, 1]");
}

void VariantPriorTable::observe_win(const std::string& sla_class, std::size_t variant) {
  if (variant >= n_variants_) return;
  auto& scores = scores_[sla_class];
  scores.resize(n_variants_, 0.0);
  scores[variant] += 1.0;
}

void VariantPriorTable::observe_cancel(const std::string& sla_class, std::size_t variant) {
  if (variant >= n_variants_) return;
  auto& scores = scores_[sla_class];
  scores.resize(n_variants_, 0.0);
  scores[variant] -= 0.25;
}

void VariantPriorTable::end_window() {
  for (auto& [cls, scores] : scores_) {
    for (double& s : scores) s *= decay_;
  }
}

std::vector<std::uint16_t> VariantPriorTable::order(const std::string& sla_class) const {
  std::vector<std::uint16_t> order(n_variants_);
  std::iota(order.begin(), order.end(), std::uint16_t{0});
  auto it = scores_.find(sla_class);
  if (it == scores_.end()) return order;
  const std::vector<double>& scores = it->second;
  std::stable_sort(order.begin(), order.end(), [&](std::uint16_t a, std::uint16_t b) {
    return scores[a] > scores[b];  // stable: equal scores keep config order
  });
  return order;
}

std::uint16_t VariantPriorTable::leader(const std::string& sla_class) const {
  auto it = scores_.find(sla_class);
  if (it == scores_.end() || n_variants_ == 0) return 0;
  const std::vector<double>& scores = it->second;
  std::uint16_t best = 0;
  for (std::uint16_t v = 1; v < n_variants_; ++v) {
    if (scores[v] > scores[best]) best = v;
  }
  return best;
}

std::vector<VariantPriorTable::ClassPriors> VariantPriorTable::snapshot() const {
  std::vector<ClassPriors> out;
  out.reserve(scores_.size());
  for (const auto& [cls, scores] : scores_) {
    ClassPriors entry;
    entry.sla_class = cls;
    std::vector<std::uint16_t> ranked = order(cls);
    entry.ranked.reserve(ranked.size());
    for (std::uint16_t v : ranked) entry.ranked.emplace_back(v, scores[v]);
    out.push_back(std::move(entry));
  }
  return out;
}

AdmissionPolicy::AdmissionPolicy(Config config, std::map<std::string, double> deadlines)
    : config_(config),
      deadlines_(std::move(deadlines)),
      priors_(config.n_variants) {}

void AdmissionPolicy::observe_arrival(double arrival) {
  if (arrival > virtual_now_) virtual_now_ = arrival;
}

ShedDecision AdmissionPolicy::admission_check(const jobs::Instance& instance) const {
  ShedDecision decision;
  auto it = deadlines_.find(instance.sla_class());
  if (it == deadlines_.end()) return decision;  // no deadline, nothing to certify
  decision.budget = it->second;
  decision.omega = certified_lower_bound(instance);
  // completion >= arrival + omega, so omega > budget proves arrival + budget
  // unmeetable. -inf (estimator failure) and 0 (empty) never trip this.
  decision.shed = config_.shed && decision.omega > decision.budget;
  return decision;
}

VariantPlan AdmissionPolicy::plan_for(const jobs::Instance& instance, double omega) const {
  VariantPlan plan;
  if (config_.n_variants < 2) return plan;  // nothing to reorder or shrink
  if (config_.shed) {
    auto it = deadlines_.find(instance.sla_class());
    // Queueing ate the slack: the admission inequality re-checked with the
    // virtual clock as the start time instead of the arrival stamp.
    if (it != deadlines_.end() && omega >= 0 &&
        virtual_now_ + omega > instance.arrival() + it->second) {
      plan.order = {priors_.leader(instance.sla_class())};
      plan.downshift = true;
      return plan;
    }
  }
  if (config_.adapt) {
    std::vector<std::uint16_t> order = priors_.order(instance.sla_class());
    bool identity = true;
    for (std::size_t v = 0; v < order.size(); ++v) {
      if (order[v] != v) { identity = false; break; }
    }
    if (!identity) plan.order = std::move(order);
  }
  return plan;
}

}  // namespace moldable::engine
