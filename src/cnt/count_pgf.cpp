#include "cnt/count_pgf.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstddef>
#include <numbers>

#include "numeric/special.h"
#include "obs/metrics.h"
#include "util/contracts.h"

namespace cny::cnt {

namespace {

constexpr double kPi = std::numbers::pi;

/// A pole or cut term below this fraction of the leading pole is dropped.
constexpr double kDrop = 1e-17;
/// Error target of the cut integral, relative to the whole p_F.
constexpr double kCutTol = 1e-16;
/// A shape within this relative distance of an integer counts as one: the
/// cut vanishes and all k roots are poles.
constexpr double kIntegerShape = 1e-12;
/// Largest ratio of the residue terms' summed magnitude to their sum that
/// the residue form may return; past it the power series takes over.
constexpr double kMaxCancellation = 1e3;
/// Panel cap of the adaptive cut quadrature (reached only when a pole sits
/// within ~1e-12 of the cut).
constexpr std::size_t kMaxPanels = 512;

/// ln(expm1(x)/x). Near 0 the ratio rounds to within an ulp of 1, so its
/// Bernoulli series carries the value there.
double log_expm1_ratio(double x) {
  if (x == 0.0) return 0.0;
  if (std::fabs(x) < 0.1) {
    const double x2 = x * x;
    return x * (0.5 + x * (1.0 / 24.0 +
                           x2 * (-1.0 / 2880.0 +
                                 x2 * (1.0 / 181440.0 +
                                       x2 * (-1.0 / 9676800.0 +
                                             x2 / 479001600.0)))));
  }
  return std::log(std::expm1(x) / x);
}

/// h_a = E[(X − x)^+] for X ~ Gamma(a, 1): aτ + (a − x)·Q(a, x), with
/// τ = x^a e^{−x}/Γ(a+1); h_0 = 0.
double excess_mean(double a, double x) {
  if (a == 0.0) return 0.0;
  if (x == 0.0) return a;
  const double tau =
      std::exp(a * std::log(x) - x - numeric::log_gamma(a + 1.0));
  return a * tau + (a - x) * numeric::gamma_q_prefactored(a, x, tau, 0.0);
}

/// E[z^N(W)] as its power series Σ P{N=n} z^n, x = W/θ. In excess means,
/// P{N=0} = 1 − F_e(W) = h_k/k and P{N=n} = (h_{(n−1)k} − 2h_{nk} +
/// h_{(n+1)k})/k, whose linear parts cancel exactly, so a term loses no
/// digits where it matters (the lower tail of N). The remainder after
/// term n is at most z^{n+1}: few terms at small z, where the residues
/// cancel.
double pgf_series(double k, double x, double z) {
  constexpr long kMaxTerms = 4096;
  double h_prev = 0.0;
  double h_cur = excess_mean(k, x);
  double acc = h_cur / k;
  double zn = 1.0;
  for (long n = 1; n < kMaxTerms; ++n) {
    zn *= z;
    if (zn <= kDrop * acc) break;
    const double h_next = excess_mean(static_cast<double>(n + 1) * k, x);
    acc += zn * std::max(0.0, h_prev - 2.0 * h_cur + h_next) / k;
    h_prev = h_cur;
    h_cur = h_next;
  }
  return acc;
}

// 21-point Gauss–Kronrod rule on [-1, 1] (positive half; nodes at odd
// indices are the embedded 10-point Gauss rule's).
constexpr std::array<double, 11> kKronrodNodes = {
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0};
constexpr std::array<double, 11> kKronrodWeights = {
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077580632560710, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821};
constexpr std::array<double, 5> kGaussWeights = {
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338};

/// The cut integrand in w = ln r − ln ρ, where −(1+θs) = r on the cut
/// s < −1/θ and ρ = z^{1/k}:
///   h(w) = sin(πk) r^{1+k} e^{−r y} / ((1+r)² |r^k − z e^{iπk}|²).
/// Centring on ρ, where r^k crosses z, keeps full precision near a pole
/// close to the cut: there r^k − z cos(πk) = z (expm1(k w) + 1 − cos(πk)).
/// sin(πk) fixes the sign, so |∫h| = ∫|h|.
struct CutIntegrand {
  double k;
  double y;       ///< W/θ
  double rho;     ///< z^{1/k}
  double z;
  double vers;    ///< 1 − cos(πk)
  double sin_pk;  ///< sin(πk)

  double operator()(double w) const {
    const double r = rho * std::exp(w);
    const double kw = k * w;
    const double e = std::exp(kw);
    const double d = (std::fabs(kw) < 0.5 ? std::expm1(kw) : e - 1.0) + vers;
    // r^k/|r^k − c|², with 1/r^k once r^k dwarfs |c| = z (d² would
    // overflow).
    const double ratio =
        e > 1e100 ? 1.0 / (z * e) : e / (z * (d * d + sin_pk * sin_pk));
    const double opr = 1.0 + r;
    return sin_pk * r * ratio * std::exp(-r * y) / (opr * opr);
  }
};

struct Panel {
  double a = 0.0;
  double b = 0.0;
  double value = 0.0;
  double error = 0.0;
};

Panel kronrod(const CutIntegrand& f, double a, double b) {
  const double c = 0.5 * (a + b);
  const double h = 0.5 * (b - a);
  double kron = kKronrodWeights[10] * f(c);
  double gauss = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    const double dx = h * kKronrodNodes[i];
    const double pair = f(c - dx) + f(c + dx);
    kron += kKronrodWeights[i] * pair;
    if (i % 2 == 1) gauss += kGaussWeights[i / 2] * pair;
  }
  kron *= h;
  gauss *= h;
  // The Gauss error |K − G| overstates the Kronrod error, which converges
  // at ~1.5x the rate (the QUADPACK scaling, without its 200x margin).
  const double scale = std::fabs(kron);
  const double diff = std::fabs(kron - gauss);
  const double error =
      scale > 0.0 ? scale * std::min(1.0, std::pow(diff / scale, 1.5)) : diff;
  return {a, b, kron, error};
}

/// ∫h dw over the cut, to absolute error kCutTol · max(|∫h|, floor).
/// `delta` is the distance of the nearest singularity from the real axis
/// at w = 0, `w_one` is where r = 1 ((1+r)^{-2} has its pole at distance
/// π), and `w_e` where r y = 1 (e^{−r y} starts to bite).
double cut_integral(const CutIntegrand& f, double delta, double w_one,
                    double w_e, double floor) {
  const double tail = 38.0 / (1.0 + f.k);
  const double lo = std::min({0.0, w_e, w_one}) - tail;
  const double hi = std::min(w_e + std::log(45.0), std::max(0.0, w_one) + tail);

  // Breakpoints: graded x3 toward the near-singularity at 0, at r = 1, and
  // along the e^{−r y} decay at r y = 2 and 12.
  std::array<double, 96> cuts{};
  std::size_t n_cuts = 0;
  const auto add = [&](double w) {
    if (w > lo && w < hi && n_cuts < cuts.size()) cuts[n_cuts++] = w;
  };
  add(0.0);
  for (double step = delta; step < hi - lo; step *= 3.0) {
    add(-step);
    add(step);
  }
  add(w_one);
  for (const double t : {2.0, 12.0}) add(w_e + std::log(t));
  std::sort(cuts.begin(), cuts.begin() + static_cast<std::ptrdiff_t>(n_cuts));

  std::array<Panel, kMaxPanels> panels;
  std::size_t n = 0;
  double prev = lo;
  const auto push = [&](double a, double b) {
    // Smooth stretches still get panels no longer than 10.
    const int parts = static_cast<int>(std::ceil((b - a) / 10.0));
    for (int i = 0; i < parts && n < kMaxPanels; ++i) {
      const double pa = a + (b - a) * i / parts;
      const double pb = i + 1 == parts ? b : a + (b - a) * (i + 1) / parts;
      panels[n++] = kronrod(f, pa, pb);
    }
  };
  for (std::size_t i = 0; i < n_cuts; ++i) {
    if (cuts[i] - prev > 1e-12 * (1.0 + std::fabs(prev))) {
      push(prev, cuts[i]);
      prev = cuts[i];
    }
  }
  push(prev, hi);

  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += panels[i].value;
  const double tol = kCutTol * std::max(std::fabs(total), floor);
  // Bisect the worst panel until the summed error estimate meets tol.
  while (n < kMaxPanels) {
    double err = 0.0;
    std::size_t worst = 0;
    for (std::size_t i = 0; i < n; ++i) {
      err += panels[i].error;
      if (panels[i].error > panels[worst].error) worst = i;
    }
    if (err <= tol) break;
    const Panel p = panels[worst];
    const double mid = 0.5 * (p.a + p.b);
    panels[worst] = kronrod(f, p.a, mid);
    panels[n++] = kronrod(f, mid, p.b);
  }
  total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += panels[i].value;
  return total;
}

/// E[z^N(W)] = e^{lead_log} + rest: the real pole s_0's term in log form
/// (so 1 − E can go through expm1) plus every other pole and the cut.
/// `scale` sums the magnitudes of those parts: rounding error is ~1e-16
/// of it.
struct Inversion {
  double lead_log = 0.0;
  double rest = 0.0;
  double scale = 0.0;
};

/// The residue sum for z in (0, 1); `omz` = 1 − z, passed exactly. The cut
/// is resolved relative to E[z^N], or to 1 − E[z^N] for a `complement`.
Inversion invert(const PitchModel& pitch, double width, double z, double omz,
                 bool complement) {
  double k = pitch.shape();
  const double k_round = std::round(k);
  const bool integer =
      k_round >= 1.0 && std::fabs(k - k_round) <= kIntegerShape * k;
  if (integer) k = k_round;
  const double y = width / pitch.scale();
  const double a = omz < 0.5 ? std::log1p(-omz) : std::log(z);  // ln z
  const double u = a / k;                 // ln ρ, ρ = z^{1/k}
  const double rho = std::exp(u);
  const double gap = -std::expm1(u);      // 1 − ρ

  // s_0 = −(1−ρ)/θ. R_0 = [(1−z)/(k(1−ρ))]² ρ/z, whose log cancels to
  // O((ln z)²) as z → 1, so both factors go through ln(expm1(x)/x).
  Inversion out;
  out.lead_log = 2.0 * (log_expm1_ratio(a) - log_expm1_ratio(u)) + (u - a) -
                 gap * y;
  out.scale = complement ? -std::expm1(out.lead_log) : std::exp(out.lead_log);

  // The other poles, q_j = ρ e^{iφ_j}, φ_j = 2πj/k, paired with their
  // conjugates: R_j e^{s_j W} = A q_j/(1−q_j)² e^{(q_j − 1) y},
  // A = (1−z)²/(z k²). Their size falls with j, so the first one below
  // kDrop of the lead ends the sum.
  const double log_amp = 2.0 * std::log(omz) - a - 2.0 * std::log(k);
  const double log_drop = out.lead_log + std::log(kDrop);
  for (long j = 1; integer ? 2.0 * static_cast<double>(j) <= k
                             : 2.0 * static_cast<double>(j) < k;
       ++j) {
    const double phi = 2.0 * kPi * static_cast<double>(j) / k;
    const double half = std::sin(0.5 * phi);
    const double re_gap = gap + 2.0 * rho * half * half;  // Re(1 − q_j)
    const double im_q = rho * std::sin(phi);
    const double log_mag = log_amp - re_gap * y + u -
                           std::log(re_gap * re_gap + im_q * im_q);
    if (log_mag < log_drop) break;
    const std::complex<double> q(rho * std::cos(phi), im_q);
    const std::complex<double> one_minus_q(re_gap, -im_q);
    const std::complex<double> term =
        q / (one_minus_q * one_minus_q) *
        std::polar(std::exp(log_amp - re_gap * y), im_q * y);
    // An even integer shape has one unpaired real pole at φ = π.
    const bool unpaired = integer && 2.0 * static_cast<double>(j) == k;
    out.rest += (unpaired ? 1.0 : 2.0) * term.real();
    out.scale += (unpaired ? 1.0 : 2.0) * std::abs(term);
  }
  if (integer) return out;

  // The cut: (1−z)² e^{−y}/(πk) · ∫h dw. Skipped when the bound
  // |∫h| ≤ |cot(πk/2)|/(2z) · min(1, 1/y) puts it below kDrop of the sum.
  // sin(πk) and cos(πk) come from k's signed distance to the nearest even
  // integer, exact by Sterbenz, so a pole near the cut keeps its digits.
  const double k_even = k - 2.0 * std::round(0.5 * k);  // in [-1, 1]
  const double sin_pk = std::sin(kPi * k_even);
  const double log_outer = 2.0 * std::log(omz) - y - std::log(kPi * k);
  const double ref = std::fabs(complement ? -std::expm1(out.lead_log) - out.rest
                                          : std::exp(out.lead_log) + out.rest);
  const double log_bound =
      log_outer - a - std::log(2.0 * std::fabs(std::tan(0.5 * kPi * k_even))) -
      std::log(std::max(1.0, y));
  if (ref > 0.0 && log_bound < std::log(kDrop * ref)) return out;
  const double outer = std::exp(log_outer);
  if (outer == 0.0) return out;
  const double half_pk = std::sin(0.5 * kPi * k_even);
  const CutIntegrand f{k, y, rho, z, 2.0 * half_pk * half_pk, sin_pk};
  const double delta = kPi / k * std::fabs(k_even);
  const double cut =
      outer * cut_integral(f, delta, -u, -std::log(y) - u, ref / outer);
  out.rest += cut;
  out.scale += std::fabs(cut);
  return out;
}

obs::Counter& calls() {
  static obs::Counter& counter =
      obs::Registry::global().counter("cnt.pgf_calls");
  return counter;
}

}  // namespace

double count_pgf(const PitchModel& pitch, double width, double z) {
  CNY_EXPECT(width >= 0.0);
  CNY_EXPECT(z >= 0.0 && z <= 1.0);
  calls().add(1);
  if (width == 0.0 || z == 1.0) return 1.0;
  const double k = pitch.shape();
  const double x = width / pitch.scale();
  if (z == 0.0) return excess_mean(k, x) / k;
  const Inversion inv = invert(pitch, width, z, 1.0 - z, false);
  const double value = std::exp(inv.lead_log) + inv.rest;
  // At small z the residues grow like z^{1/k−1} while their sum does not:
  // past 3 lost digits the power series in z is the accurate form.
  if (inv.scale > kMaxCancellation * value) return pgf_series(k, x, z);
  return std::clamp(value, 0.0, 1.0);
}

double count_pgf_complement(const PitchModel& pitch, double width, double p) {
  CNY_EXPECT(width >= 0.0);
  CNY_EXPECT(p >= 0.0 && p <= 1.0);
  calls().add(1);
  if (width == 0.0 || p == 0.0) return 0.0;
  const double k = pitch.shape();
  const double x = width / pitch.scale();
  if (p == 1.0) return 1.0 - excess_mean(k, x) / k;
  const Inversion inv = invert(pitch, width, 1.0 - p, p, true);
  const double value = -std::expm1(inv.lead_log) - inv.rest;
  if (inv.scale > kMaxCancellation * value) {
    return 1.0 - pgf_series(k, x, 1.0 - p);
  }
  return std::clamp(value, 0.0, 1.0);
}

}  // namespace cny::cnt
