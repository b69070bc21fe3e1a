#include "cnt/pf_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "numeric/integrate.h"
#include "numeric/special.h"
#include "obs/metrics.h"
#include "util/contracts.h"

namespace cny::cnt {

using cny::numeric::gamma_cdf;
using cny::numeric::gamma_q;

namespace {

/// P(a,x)/τ = 1 + x/(a+1) + x²/((a+1)(a+2)) + …, with the reciprocals
/// 1/(a+i) supplied by the per-term table: the shape is shared by every
/// node of a PMF term, so the serial division chain of the classic series
/// (NR's gamma_p_series pays one divide per iteration, and the divide
/// gates the loop-carried dependency) becomes one multiply per iteration.
/// Used on the x < a+1 side like the textbook split — there q = 1 − τ·sum
/// stays ≥ ~0.27, so the subtraction costs no relative precision. Returns
/// the series sum; the caller forms q.
inline double p_series_sum(double x, double eps, const double* inv_shape,
                           std::size_t len) {
  double del = 1.0;
  double sum = 1.0;
  for (std::size_t i = 1; i < len; ++i) {
    del *= x * inv_shape[i];
    sum += del;
    if (del < sum * eps) break;
  }
  return sum;
}

/// Same tail floor as count_distribution.cpp — the two paths must truncate
/// the quadrature domain and the PMF support identically to agree to 1e-12.
constexpr double kTailEps = 1e-22;

/// The integer-shape ladder is seeded at τ(0) = e^{-x}; past x ≈ 650 the
/// seed risks flushing to zero before the recurrence can climb out of the
/// denormals, so wider windows fall back to the per-node gamma_q path.
constexpr double kLadderMaxX = 650.0;

/// Everything about one width that does not depend on z or rel_tol: the
/// node-major quadrature grid, the PMF truncation point, the normalising
/// mass, and the shape-ladder seeds.
struct PfGrid {
  double k = 0.0;          ///< pitch shape
  std::vector<double> xs;  ///< per node: x = (W - u)/θ
  std::vector<double> fw;  ///< per node: GL-weight · f_e(u)
  double p0 = 0.0;         ///< P{N = 0} quadrature value
  double mass_tail = 0.0;  ///< quadrature mass of Σ_{n=1}^{n_stop} pₙ
  double total = 0.0;      ///< p0 + mass_tail (the normaliser)
  long n_stop = 0;         ///< PMF support truncation point
  bool prefactored = false;  ///< width/θ < kLadderMaxX: τ ladder usable
  bool ladder = false;       ///< integer shape: exact Q(a+1)=Q(a)+τ ladder
  long k_int = 0;            ///< rounded shape (ladder path step count)
  std::vector<double> tau0;  ///< τ seeds e^{-x} per node (prefactored only)
  std::vector<double> xk;    ///< x^k per node (non-integer prefactored only)
  std::size_t inv_len = 0;   ///< reciprocal-table length (non-integer only)
};

/// Builds the grid for one width (> 0). Throws via CNY_ENSURE when the
/// quadrature mass deviates from 1.
PfGrid pf_setup(const PitchModel& pitch, double width) {
  PfGrid grid;
  const double k = grid.k = pitch.shape();
  const double theta = pitch.scale();
  const double mu = pitch.mean();

  grid.p0 = std::max(0.0, 1.0 - pitch.equilibrium_cdf(width));

  // Node-major quadrature grid: the panel layout (split point, panel
  // counts, 16-point GL rule) replicates CountDistribution's construction,
  // but f_e(u)·w and x = (W-u)/θ are computed once instead of per term.
  const double u_cap = std::min(width, pitch.upper_quantile(kTailEps));
  const double u_split = std::min(0.5 * u_cap, theta);
  const int panels_head = 24;
  const int panels_tail = std::max(16, static_cast<int>(u_cap / mu) * 4 + 16);

  std::vector<double>& xs = grid.xs;
  std::vector<double>& fw = grid.fw;
  xs.reserve(16 * static_cast<std::size_t>(panels_head + panels_tail));
  fw.reserve(xs.capacity());
  const auto add_panels = [&](double a, double b, int panels) {
    const auto& gn = numeric::gl16_nodes();
    const auto& gw = numeric::gl16_weights();
    const double h = (b - a) / panels;
    for (int p = 0; p < panels; ++p) {
      const double c = a + (p + 0.5) * h;
      const double r = 0.5 * h;
      for (std::size_t i = 0; i < gn.size(); ++i) {
        for (const double u : {c - r * gn[i], c + r * gn[i]}) {
          const double x = (width - u) / theta;
          if (x <= 0.0) continue;
          xs.push_back(x);
          fw.push_back(gw[i] * r * pitch.equilibrium_pdf(u));
        }
      }
    }
  };
  add_panels(0.0, u_split, panels_head);
  add_panels(u_split, u_cap, panels_tail);
  const std::size_t n_nodes = xs.size();

  // Where the full-PMF path stops: at n_floor, or earlier once the whole
  // remaining count tail P{N > n} ≤ F_{nk}(W) is below kTailEps. Replicated
  // (gamma_cdf is decreasing in the shape, so binary search) because the
  // normalising mass must cover exactly the same support.
  const double expected = width / mu;
  const long n_floor =
      static_cast<long>(expected + 12.0 * std::sqrt(expected) + 16.0);
  long n_stop = n_floor;
  {
    long lo = std::max<long>(1, static_cast<long>(std::floor(expected)) + 1);
    long hi = n_floor;
    if (gamma_cdf(width, static_cast<double>(hi) * k, theta) < kTailEps) {
      while (lo < hi) {
        const long mid = lo + (hi - lo) / 2;
        if (gamma_cdf(width, static_cast<double>(mid) * k, theta) < kTailEps) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      n_stop = lo;
    }
  }
  grid.n_stop = n_stop;

  // Quadrature mass of Σ_{n=1}^{n_stop} pₙ, via the telescoped form
  // ∫ f_e(u)·Q(n_stop·k, x) du — one gamma per node instead of n_stop.
  double mass_tail = 0.0;
  for (std::size_t j = 0; j < n_nodes; ++j) {
    mass_tail += fw[j] * gamma_q(static_cast<double>(n_stop) * k, xs[j]);
  }
  grid.mass_tail = mass_tail;
  grid.total = grid.p0 + mass_tail;
  CNY_ENSURE_MSG(std::fabs(grid.total - 1.0) < 1e-6,
                 "count PMF mass deviates from 1: quadrature failure");

  // Shape-stepping machinery (see pf_terms for how it is consumed).
  // Past x ≈ 650 the e^{-x} seed risks flushing to zero before the ladder
  // climbs out of the denormals, so wider windows fall back to plain
  // per-node gamma_q (still node-major + truncated).
  const long k_int = grid.k_int = std::lround(k);
  grid.prefactored = width / theta < kLadderMaxX;
  grid.ladder =
      std::fabs(k - static_cast<double>(k_int)) < 1e-9 && k_int >= 1 &&
      grid.prefactored;

  if (grid.prefactored) {
    grid.tau0.resize(n_nodes);
    for (std::size_t j = 0; j < n_nodes; ++j) grid.tau0[j] = std::exp(-xs[j]);
    if (!grid.ladder) {
      double x_max = 0.0;
      grid.xk.resize(n_nodes);
      for (std::size_t j = 0; j < n_nodes; ++j) {
        grid.xk[j] = std::pow(xs[j], k);
        x_max = std::max(x_max, xs[j]);
      }
      // Reciprocal table sized for the series' worst case, the slow decay
      // just below the x = a+1 split.
      grid.inv_len = static_cast<std::size_t>(16.0 * std::sqrt(x_max)) + 96;
    }
  }
  return grid;
}

/// The term loop over a prebuilt grid.
PfKernelResult pf_terms(const PfGrid& grid, double z, double rel_tol) {
  const std::size_t n_nodes = grid.xs.size();
  const std::vector<double>& xs = grid.xs;
  const std::vector<double>& fw = grid.fw;
  const double k = grid.k;
  const long n_stop = grid.n_stop;
  const double mass_tail = grid.mass_tail;

  // Both fast paths maintain the per-node ladder term
  // τ(a) = x^a e^{-x} / Γ(a+1), seeded at a = 0 (τ = e^{-x}):
  //  * integer k — the exact upward recurrence
  //      Q(a+1, x) = Q(a, x) + τ(a)
  //    stepped k times per PMF term; each per-n increment is an
  //    all-positive sum of ladder terms, so the PMF probabilities come out
  //    with no cancellation at all.
  //  * non-integer k — τ is stepped a → a+k in one multiply per node
  //    (τ ← τ · x^k · Γ(a+1)/Γ(a+k+1), the Γ-ratio shared across nodes)
  //    and seeds the series or gamma_q_prefactored's continued fraction,
  //    which skip the per-call exp/log/lgamma prefactor and run at a
  //    tolerance matched to the term's certified contribution budget.
  std::vector<double> q_prev(grid.ladder ? 0 : n_nodes, 0.0);  // Q(0,·) := 0
  std::vector<double> tau = grid.tau0;  // empty on the gamma_q path
  std::vector<double> inv_shape(grid.inv_len);
  double shape = 0.0;  // ladder: (n-1)·k

  double acc = grid.p0;   // Σ_{m<n} pₘ z^m, raw quadrature values
  double cum_mass = 0.0;  // Σ_{1≤m<n} pₘ
  double zn = 1.0;        // z^(n-1)
  double lg_prev = 0.0;   // lnΓ((n-1)·k + 1)
  long terms = 0;
  double rem_bound = 0.0;

  for (long n = 1; n <= n_stop; ++n) {
    zn *= z;
    // Certified truncation: everything not yet accumulated is bounded by
    // z^n · Σ_{m≥n} pₘ, and the count tail is the unconsumed quadrature
    // mass. Checked before paying for term n.
    rem_bound = zn * std::max(0.0, mass_tail - cum_mass);
    if (rem_bound <= rel_tol * acc) break;

    // In node order. A masked increment is +0.0, which cannot move this
    // sum of non-negative products.
    double term = 0.0;
    if (grid.ladder) {
      for (std::size_t j = 0; j < n_nodes; ++j) {
        const double x = xs[j];
        double t = tau[j];
        double dq = 0.0;
        for (long s = 0; s < grid.k_int; ++s) {
          dq += t;
          t *= x / (shape + static_cast<double>(s) + 1.0);
        }
        tau[j] = t;
        term += fw[j] * dq;
      }
      shape += static_cast<double>(grid.k_int);
    } else {
      const double a_hi = static_cast<double>(n) * k;
      double eps = 0.0;
      double rho = 0.0;
      if (grid.prefactored) {
        // The iteration tolerance may relax as the term's certified
        // contribution budget z^n·tail shrinks relative to the
        // accumulated sum; an eps error on term n moves the result by
        // ≤ eps · rem_bound. Clamped: the floor is the fp resolution,
        // the cap keeps relaxed terms honest.
        eps = std::clamp(acc > 0.0 ? rel_tol * acc / rem_bound : 1e-15,
                         1e-15, 1e-6);
        const double lg_cur = numeric::log_gamma(a_hi + 1.0);
        rho = std::exp(lg_prev - lg_cur);
        lg_prev = lg_cur;
        // This term's series denominators, shared by every node.
        for (std::size_t i = 1; i < inv_shape.size(); ++i) {
          inv_shape[i] = 1.0 / (a_hi + static_cast<double>(i));
        }
      }
      for (std::size_t j = 0; j < n_nodes; ++j) {
        const double x = xs[j];
        double q_hi;
        if (grid.prefactored) {
          tau[j] *= grid.xk[j] * rho;
          // x < a+1 runs the table-backed series; past the split,
          // gamma_q_prefactored takes its continued-fraction branch.
          q_hi = x < a_hi + 1.0
                     ? 1.0 - tau[j] * p_series_sum(x, eps, inv_shape.data(),
                                                   inv_shape.size())
                     : numeric::gamma_q_prefactored(a_hi, x, tau[j], eps);
        } else {
          q_hi = gamma_q(a_hi, x);
        }
        const double diff = q_hi - q_prev[j];
        q_prev[j] = q_hi;
        term += fw[j] * (diff > 0.0 ? diff : 0.0);
      }
    }

    term = std::max(0.0, term);
    cum_mass += term;
    acc += term * zn;
    ++terms;
  }
  if (terms == n_stop) {
    // Ran the full support (z near 1): the certified remainder is whatever
    // quadrature mass the telescoped sum left behind, at the next z power.
    rem_bound = zn * z * std::max(0.0, mass_tail - cum_mass);
  }

  return {acc / grid.total, terms, rem_bound / grid.total};
}

}  // namespace

PfKernelResult pf_truncated(const PitchModel& pitch, double width, double z,
                            double rel_tol) {
  CNY_EXPECT(width >= 0.0);
  CNY_EXPECT(z >= 0.0 && z <= 1.0);
  CNY_EXPECT(rel_tol > 0.0);
  static obs::Counter& calls =
      obs::Registry::global().counter("cnt.pf_scalar_calls");
  calls.add(1);
  if (width == 0.0) return {1.0, 0, 0.0};  // N ≡ 0, G ≡ 1
  if (z == 1.0) return {1.0, 0, 0.0};      // G(1) = total mass / total mass
  return pf_terms(pf_setup(pitch, width), z, rel_tol);
}

}  // namespace cny::cnt
