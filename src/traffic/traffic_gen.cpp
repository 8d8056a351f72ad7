#include "src/traffic/traffic_gen.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "src/engine/exec_core.hpp"  // the shared FNV-1a helpers
#include "src/jobs/io.hpp"
#include "src/traffic/arrival_process.hpp"
#include "src/util/cli.hpp"
#include "src/util/common.hpp"
#include "src/util/prng.hpp"

namespace moldable::traffic {

namespace {

/// Derived-seed sub-stream tags: arrival thinning, assignment draws, the
/// fixed duplicate record, then one stream per arrival index from kInstance.
enum : std::uint64_t { kArrivals = 0, kAssign = 1, kDuplicate = 2, kInstance = 16 };

}  // namespace

std::vector<ClassShare> parse_class_mix(const std::string& spec) {
  std::vector<ClassShare> mix;
  std::size_t pos = 0;
  double total = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == 0 || eq == std::string::npos)
      throw std::invalid_argument("class mix '" + spec + "': expected name=weight, got '" +
                                  item + "'");
    ClassShare share;
    share.name = item.substr(0, eq);
    const auto bad_weight = [&] {
      return std::invalid_argument("class mix '" + spec + "': bad weight in '" + item + "'");
    };
    try {
      share.weight = util::cli::parse_real(item.substr(eq + 1));
    } catch (const util::cli::BadValue&) {
      throw bad_weight();
    }
    if (!std::isfinite(share.weight) || share.weight < 0) throw bad_weight();
    total += share.weight;
    mix.push_back(std::move(share));
    pos = comma + 1;
  }
  if (mix.empty() || !(total > 0))
    throw std::invalid_argument("class mix '" + spec + "': need a positive total weight");
  return mix;
}

TrafficGenerator::TrafficGenerator(TrafficConfig config)
    : config_(std::move(config)), curve_(parse_curve_spec(config_.curve)) {
  if (!(config_.horizon > 0) || !std::isfinite(config_.horizon))
    throw std::invalid_argument("traffic: horizon must be finite and > 0");
  if (!(config_.pareto_alpha > 0) || !std::isfinite(config_.pareto_alpha))
    throw std::invalid_argument("traffic: pareto alpha must be finite and > 0");
  if (config_.jobs_min < 1)
    throw std::invalid_argument("traffic: jobs_min must be >= 1");
  if (config_.jobs_cap < config_.jobs_min)
    throw std::invalid_argument("traffic: jobs_cap must be >= jobs_min");
  if (config_.machines < 1)
    throw std::invalid_argument("traffic: machines must be >= 1");
  if (config_.families.empty())
    throw std::invalid_argument("traffic: need at least one generator family");
  for (jobs::Family f : config_.families)
    if (f == jobs::Family::kTable && config_.machines > 8192)
      throw std::invalid_argument(
          "traffic: the table family refuses machines > 8192 (Theta(m) per job)");
  if (config_.classes.empty())
    throw std::invalid_argument("traffic: need at least one SLA class share");
  if (config_.memory_capacity < 0 || !std::isfinite(config_.memory_capacity))
    throw std::invalid_argument("traffic: memory capacity must be finite and >= 0");
  if (config_.memory_capacity > 0 &&
      (!(config_.mem_min > 0) || !(config_.mem_max >= config_.mem_min) ||
       !std::isfinite(config_.mem_max)))
    throw std::invalid_argument("traffic: memory range needs 0 < mem-min <= mem-max");
  total_weight_ = 0;
  for (ClassShare& share : config_.classes) {
    if (share.name == "default") share.name.clear();  // the unlabelled class
    if (share.name.find_first_of(" \t\r\n") != std::string::npos)
      throw std::invalid_argument("traffic: class name '" + share.name +
                                  "' must be a single token");
    if (!std::isfinite(share.weight) || share.weight < 0)
      throw std::invalid_argument("traffic: class weight must be finite and >= 0");
    total_weight_ += share.weight;
  }
  if (!(total_weight_ > 0))
    throw std::invalid_argument("traffic: class weights must sum to > 0");
}

namespace {

/// The generation core, shared by write() and generate(): calls `emit` with
/// each instance in arrival order. Everything below is a pure function of
/// the config — see the determinism contract in the header.
template <typename Emit>
std::size_t for_each_instance(const TrafficConfig& config, const RateCurve& curve,
                              double total_weight, const Emit& emit) {
  ArrivalProcess arrivals(curve, config.horizon,
                          jobs::derive_seed(config.seed, kArrivals));
  util::Prng assign(jobs::derive_seed(config.seed, kAssign));

  // The WHAT layer's generator knobs: the memory axis rides through to
  // every make_instance call (the fixed duplicate included).
  jobs::GeneratorConfig gen_cfg;
  gen_cfg.memory_capacity = config.memory_capacity;
  gen_cfg.mem_min = config.mem_min;
  gen_cfg.mem_max = config.mem_max;

  // The fixed duplicate record: the same bytes on every repeat (a constant
  // arrival stamp included — the serve-mode memo key covers the canonical
  // record text, so any varying byte would defeat the hit path).
  jobs::Instance duplicate = jobs::make_instance(
      config.families.front(), config.jobs_min, config.machines,
      jobs::derive_seed(config.seed, kDuplicate), gen_cfg);
  duplicate.set_sla_class(config.classes.front().name);

  std::size_t count = 0;
  double t = 0;
  while (arrivals.next(t)) {
    if (config.max_arrivals != 0 && count >= config.max_arrivals) break;
    const std::size_t i = count++;
    if (config.duplicate_every != 0 && i % config.duplicate_every == 0 && i != 0) {
      emit(duplicate);
      continue;
    }
    // WHO: weighted class pick.
    double u = assign.uniform01() * total_weight;
    std::string sla_class = config.classes.back().name;
    for (const ClassShare& share : config.classes) {
      if (u < share.weight) {
        sla_class = share.name;
        break;
      }
      u -= share.weight;
    }
    // WHAT: Pareto(alpha, jobs_min) job count, clamped to the cap; uniform
    // family pick; per-arrival generator seed from its own derived stream.
    const double pareto =
        static_cast<double>(config.jobs_min) *
        std::pow(1.0 - assign.uniform01(), -1.0 / config.pareto_alpha);
    // Clamp in double space first: the raw Pareto draw can exceed any
    // integer range (that is what a heavy tail means).
    const std::size_t n = std::max<std::size_t>(
        config.jobs_min,
        static_cast<std::size_t>(
            std::min(pareto, static_cast<double>(config.jobs_cap))));
    const jobs::Family family = config.families[static_cast<std::size_t>(
        assign.uniform_int(0, static_cast<std::int64_t>(config.families.size()) - 1))];
    jobs::Instance inst = jobs::make_instance(
        family, n, config.machines, jobs::derive_seed(config.seed, kInstance + i),
        gen_cfg);
    inst.set_arrival(t);
    inst.set_sla_class(sla_class);
    emit(inst);
  }
  return count;
}

}  // namespace

TrafficSummary TrafficGenerator::write(std::ostream& os) const {
  os << "# traffic-manifest v1\n";
  os << "# curve " << curve_->spec() << "\n";
  os << "# seed " << config_.seed << "\n";
  os << "# horizon " << fmt_num(config_.horizon) << "\n";
  os << "# classes ";
  for (std::size_t i = 0; i < config_.classes.size(); ++i) {
    if (i) os << ',';
    os << (config_.classes[i].name.empty() ? "default" : config_.classes[i].name) << '='
       << fmt_num(config_.classes[i].weight);
  }
  os << "\n# pareto alpha=" << fmt_num(config_.pareto_alpha)
     << " min=" << config_.jobs_min << " cap=" << config_.jobs_cap << "\n";
  os << "# machines " << config_.machines << "\n";
  os << "# families ";
  for (std::size_t i = 0; i < config_.families.size(); ++i) {
    if (i) os << ',';
    os << jobs::family_name(config_.families[i]);
  }
  os << "\n";
  if (config_.max_arrivals != 0) os << "# max-arrivals " << config_.max_arrivals << "\n";
  if (config_.duplicate_every != 0)
    os << "# duplicate-every " << config_.duplicate_every << "\n";
  if (config_.memory_capacity > 0)
    os << "# memory cap=" << fmt_num(config_.memory_capacity)
       << " min=" << fmt_num(config_.mem_min) << " max=" << fmt_num(config_.mem_max)
       << "\n";

  TrafficSummary summary;
  summary.stream_digest = engine::detail::kFnvOffsetBasis;
  for_each_instance(config_, *curve_, total_weight_, [&](const jobs::Instance& inst) {
    const std::string text = jobs::to_text(inst);
    engine::detail::fnv1a_mix(summary.stream_digest, text.data(), text.size());
    os << text;
    ++summary.arrivals;
  });

  // Trailer: the counts only a finished run knows, still as comments so the
  // whole file is a valid serve stream.
  os << "# traffic-manifest-end v1\n";
  os << "# arrivals " << summary.arrivals << "\n";
  os << "# stream-digest " << fmt_digest(summary.stream_digest) << "\n";
  return summary;
}

std::vector<jobs::Instance> TrafficGenerator::generate() const {
  std::vector<jobs::Instance> storm;
  for_each_instance(config_, *curve_, total_weight_,
                    [&](const jobs::Instance& inst) { storm.push_back(inst); });
  return storm;
}

}  // namespace moldable::traffic
