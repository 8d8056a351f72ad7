#include "src/traffic/rate_curve.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <stdexcept>

#include "src/util/cli.hpp"

namespace moldable::traffic {

namespace {

/// %.17g round-trips every double through the spec string.
std::string fmt_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void require_finite(double v, const char* what) {
  if (!std::isfinite(v))
    throw std::invalid_argument(std::string("rate curve: ") + what + " must be finite");
}

/// Integral of the linear function running from y0 at time a to y1 at time b,
/// restricted to the (possibly empty) overlap of [a, b] with [t0, t1].
double linear_overlap_integral(double a, double b, double y0, double y1, double t0,
                               double t1) {
  const double lo = std::max(a, t0), hi = std::min(b, t1);
  if (!(hi > lo)) return 0;
  const double slope = (y1 - y0) / (b - a);
  const double ylo = y0 + slope * (lo - a);
  const double yhi = y0 + slope * (hi - a);
  return 0.5 * (ylo + yhi) * (hi - lo);
}

void require_interval(double t0, double t1) {
  if (!(t0 >= 0) || !(t1 >= t0) || !std::isfinite(t0) || !std::isfinite(t1))
    throw std::invalid_argument("rate curve: mean_count needs 0 <= t0 <= t1, finite");
}

}  // namespace

// ------------------------------------------------------- piecewise constant --

PiecewiseConstantCurve::PiecewiseConstantCurve(std::vector<Step> steps)
    : steps_(std::move(steps)) {
  if (steps_.empty())
    throw std::invalid_argument("piecewise curve: need at least one step");
  if (steps_.front().start != 0)
    throw std::invalid_argument("piecewise curve: first step must start at 0");
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    require_finite(steps_[i].start, "step start");
    require_finite(steps_[i].rate, "step rate");
    if (steps_[i].rate < 0)
      throw std::invalid_argument("piecewise curve: step rate must be >= 0");
    if (i > 0 && !(steps_[i].start > steps_[i - 1].start))
      throw std::invalid_argument(
          "piecewise curve: step starts must be strictly increasing");
    max_rate_ = std::max(max_rate_, steps_[i].rate);
  }
  if (!(max_rate_ > 0))
    throw std::invalid_argument("piecewise curve: all rates are zero");
}

double PiecewiseConstantCurve::rate(double t) const {
  // Last step whose start <= t; t < 0 clamps to the first step.
  double r = steps_.front().rate;
  for (const Step& s : steps_) {
    if (s.start > t) break;
    r = s.rate;
  }
  return r;
}

double PiecewiseConstantCurve::mean_count(double t0, double t1) const {
  require_interval(t0, t1);
  double sum = 0;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const double lo = std::max(steps_[i].start, t0);
    const double hi = std::min(
        i + 1 < steps_.size() ? steps_[i + 1].start : t1, t1);
    if (hi > lo) sum += steps_[i].rate * (hi - lo);
  }
  return sum;
}

std::string PiecewiseConstantCurve::spec() const {
  std::string s = "steps:";
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (i) s += ',';
    s += fmt_num(steps_[i].start) + "=" + fmt_num(steps_[i].rate);
  }
  return s;
}

// ----------------------------------------------------------------- diurnal --

DiurnalCurve::DiurnalCurve(double base, double amplitude, double period, double phase)
    : base_(base), amplitude_(amplitude), period_(period), phase_(phase) {
  require_finite(base, "base");
  require_finite(amplitude, "amp");
  require_finite(period, "period");
  require_finite(phase, "phase");
  if (base < 0 || amplitude < 0)
    throw std::invalid_argument("diurnal curve: base and amp must be >= 0");
  if (!(period > 0)) throw std::invalid_argument("diurnal curve: period must be > 0");
  if (!(base + amplitude > 0))
    throw std::invalid_argument("diurnal curve: base + amp must be > 0");
}

double DiurnalCurve::rate(double t) const {
  const double w = 2 * std::numbers::pi / period_;
  return base_ + 0.5 * amplitude_ * (1 + std::sin(w * (t - phase_)));
}

double DiurnalCurve::mean_count(double t0, double t1) const {
  require_interval(t0, t1);
  // ∫ base + amp/2 (1 + sin w(t-phase)) dt
  //   = (base + amp/2)(t1-t0) + amp/(2w) (cos w(t0-phase) - cos w(t1-phase)).
  const double w = 2 * std::numbers::pi / period_;
  return (base_ + 0.5 * amplitude_) * (t1 - t0) +
         0.5 * amplitude_ / w *
             (std::cos(w * (t0 - phase_)) - std::cos(w * (t1 - phase_)));
}

std::string DiurnalCurve::spec() const {
  return "diurnal:base=" + fmt_num(base_) + ",amp=" + fmt_num(amplitude_) +
         ",period=" + fmt_num(period_) + ",phase=" + fmt_num(phase_);
}

// ------------------------------------------------------------- flash crowd --

FlashCrowdCurve::FlashCrowdCurve(double base, double peak, double t0, double ramp,
                                 double hold, double decay)
    : base_(base), peak_(peak), t0_(t0), ramp_(ramp), hold_(hold), decay_(decay) {
  require_finite(base, "base");
  require_finite(peak, "peak");
  require_finite(t0, "t0");
  require_finite(ramp, "ramp");
  require_finite(hold, "hold");
  require_finite(decay, "decay");
  if (base < 0) throw std::invalid_argument("flash curve: base must be >= 0");
  if (peak < base) throw std::invalid_argument("flash curve: peak must be >= base");
  if (t0 < 0 || ramp < 0 || hold < 0 || decay < 0)
    throw std::invalid_argument("flash curve: t0/ramp/hold/decay must be >= 0");
  if (!(max_rate() > 0)) throw std::invalid_argument("flash curve: rate is zero");
}

double FlashCrowdCurve::rate(double t) const {
  const double r0 = t0_, r1 = t0_ + ramp_, h1 = r1 + hold_, d1 = h1 + decay_;
  if (t <= r0 || t >= d1) return base_;
  if (t < r1) return base_ + (peak_ - base_) * (t - r0) / ramp_;
  if (t <= h1) return peak_;
  return base_ + (peak_ - base_) * (d1 - t) / decay_;
}

double FlashCrowdCurve::mean_count(double t0, double t1) const {
  require_interval(t0, t1);
  const double r0 = t0_, r1 = t0_ + ramp_, h1 = r1 + hold_, d1 = h1 + decay_;
  double sum = base_ * (t1 - t0);  // baseline everywhere; add the spike excess
  const double excess = peak_ - base_;
  if (excess > 0) {
    sum += linear_overlap_integral(r0, r1, 0, excess, t0, t1);  // ramp
    const double lo = std::max(r1, t0), hi = std::min(h1, t1);  // hold
    if (hi > lo) sum += excess * (hi - lo);
    sum += linear_overlap_integral(h1, d1, excess, 0, t0, t1);  // decay
  }
  return sum;
}

std::string FlashCrowdCurve::spec() const {
  return "flash:base=" + fmt_num(base_) + ",peak=" + fmt_num(peak_) +
         ",t0=" + fmt_num(t0_) + ",ramp=" + fmt_num(ramp_) +
         ",hold=" + fmt_num(hold_) + ",decay=" + fmt_num(decay_);
}

// ------------------------------------------------------------ spec parsing --

namespace {

double parse_num(const std::string& token, const std::string& spec) {
  try {
    return util::cli::parse_real(token);
  } catch (const util::cli::BadValue&) {
    throw std::invalid_argument("curve spec '" + spec + "': bad number '" + token + "'");
  }
}

/// Splits "k1=v1,k2=v2" into ordered pairs; empty string -> no pairs.
std::vector<std::pair<std::string, double>> parse_kv(const std::string& args,
                                                     const std::string& spec) {
  std::vector<std::pair<std::string, double>> kv;
  std::size_t pos = 0;
  while (pos < args.size()) {
    std::size_t comma = args.find(',', pos);
    if (comma == std::string::npos) comma = args.size();
    const std::string item = args.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == 0 || eq == std::string::npos)
      throw std::invalid_argument("curve spec '" + spec + "': expected key=value, got '" +
                                  item + "'");
    kv.emplace_back(item.substr(0, eq), parse_num(item.substr(eq + 1), spec));
    pos = comma + 1;
  }
  return kv;
}

/// Looks up the named keys (with defaults), rejecting any key outside the set.
std::vector<double> take_keys(const std::vector<std::pair<std::string, double>>& kv,
                              const std::vector<std::pair<std::string, double>>& wanted,
                              const std::string& spec) {
  std::vector<double> out;
  for (const auto& [key, def] : wanted) {
    double v = def;
    for (const auto& [k, x] : kv)
      if (k == key) v = x;
    out.push_back(v);
  }
  for (const auto& [k, x] : kv) {
    (void)x;
    bool known = false;
    for (const auto& [key, def] : wanted) {
      (void)def;
      if (k == key) known = true;
    }
    if (!known)
      throw std::invalid_argument("curve spec '" + spec + "': unknown key '" + k + "'");
  }
  return out;
}

}  // namespace

std::unique_ptr<RateCurve> parse_curve_spec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string preset = spec.substr(0, colon);
  const std::string args = colon == std::string::npos ? "" : spec.substr(colon + 1);
  const auto kv = parse_kv(args, spec);

  if (preset == "flash") {
    const auto v = take_keys(kv,
                             {{"base", 20}, {"peak", 400}, {"t0", 20}, {"ramp", 5},
                              {"hold", 15}, {"decay", 20}},
                             spec);
    return std::make_unique<FlashCrowdCurve>(v[0], v[1], v[2], v[3], v[4], v[5]);
  }
  if (preset == "diurnal") {
    const auto v =
        take_keys(kv, {{"base", 15}, {"amp", 25}, {"period", 40}, {"phase", 0}}, spec);
    return std::make_unique<DiurnalCurve>(v[0], v[1], v[2], v[3]);
  }
  if (preset == "const") {
    const auto v = take_keys(kv, {{"rate", 25}}, spec);
    return std::make_unique<PiecewiseConstantCurve>(
        std::vector<PiecewiseConstantCurve::Step>{{0, v[0]}});
  }
  if (preset == "steps") {
    // The key=value list IS the step list: start=rate, in order.
    std::vector<PiecewiseConstantCurve::Step> steps;
    for (const auto& [k, rate] : kv) steps.push_back({parse_num(k, spec), rate});
    return std::make_unique<PiecewiseConstantCurve>(std::move(steps));
  }
  throw std::invalid_argument("curve spec '" + spec + "': unknown preset '" + preset +
                              "' (want flash, diurnal, steps, or const)");
}

}  // namespace moldable::traffic
