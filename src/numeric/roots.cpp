#include "numeric/roots.h"

#include <cmath>

#include "util/contracts.h"

namespace cny::numeric {

RootResult brent(const std::function<double(double)>& f, double lo, double hi,
                 double x_tol, int max_iter) {
  CNY_EXPECT(lo < hi);
  CNY_EXPECT(x_tol > 0.0);
  double a = lo, b = hi;
  double fa = f(a), fb = f(b);
  RootResult res;
  if (fa == 0.0) return {a, 0.0, 0, true};
  if (fb == 0.0) return {b, 0.0, 0, true};
  CNY_EXPECT_MSG(fa * fb < 0.0, "brent: endpoints do not bracket a root");

  double c = a, fc = fa;
  double d = b - a, e = d;
  for (int iter = 1; iter <= max_iter; ++iter) {
    if (std::fabs(fc) < std::fabs(fb)) {
      a = b; b = c; c = a;
      fa = fb; fb = fc; fc = fa;
    }
    const double tol1 = 2.0 * 2.22e-16 * std::fabs(b) + 0.5 * x_tol;
    const double xm = 0.5 * (c - b);
    if (std::fabs(xm) <= tol1 || fb == 0.0) {
      return {b, fb, iter, true};
    }
    if (std::fabs(e) >= tol1 && std::fabs(fa) > std::fabs(fb)) {
      // Attempt inverse quadratic interpolation / secant.
      const double s = fb / fa;
      double p, q;
      if (a == c) {
        p = 2.0 * xm * s;
        q = 1.0 - s;
      } else {
        const double qq = fa / fc;
        const double r = fb / fc;
        p = s * (2.0 * xm * qq * (qq - r) - (b - a) * (r - 1.0));
        q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) q = -q;
      p = std::fabs(p);
      const double min1 = 3.0 * xm * q - std::fabs(tol1 * q);
      const double min2 = std::fabs(e * q);
      if (2.0 * p < std::min(min1, min2)) {
        e = d;
        d = p / q;
      } else {
        d = xm;
        e = d;
      }
    } else {
      d = xm;
      e = d;
    }
    a = b;
    fa = fb;
    b += (std::fabs(d) > tol1) ? d : (xm > 0.0 ? tol1 : -tol1);
    fb = f(b);
    if (fb * fc > 0.0) {
      c = a;
      fc = fa;
      e = d = b - a;
    }
  }
  return {b, fb, max_iter, false};
}

}  // namespace cny::numeric
