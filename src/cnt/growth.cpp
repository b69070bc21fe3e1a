#include "cnt/growth.h"

#include <cmath>
#include <numbers>

#include "rng/distributions.h"
#include "util/contracts.h"

namespace cny::cnt {

double DiameterModel::sample(cny::rng::Xoshiro256& rng) const {
  return cny::rng::sample_lognormal_mean_sd(rng, mean, mean * cv);
}

DirectionalGrowth::DirectionalGrowth(PitchModel pitch, ProcessParams process,
                                     double cnt_length)
    : pitch_(pitch), process_(process), cnt_length_(cnt_length) {
  process_.validate();
  CNY_EXPECT(cnt_length > 0.0);
}

std::vector<Cnt> DirectionalGrowth::generate_band(cny::rng::Xoshiro256& rng,
                                                  double y_lo, double y_hi,
                                                  double x_extent) const {
  CNY_EXPECT(y_hi > y_lo);
  CNY_EXPECT(x_extent > 0.0);
  std::vector<Cnt> tubes;
  tubes.reserve(static_cast<std::size_t>((y_hi - y_lo) * pitch_.density()) + 8);
  double y = y_lo + pitch_.sample_equilibrium(rng);
  while (y < y_hi) {
    Cnt tube;
    tube.y = y;
    tube.length = cnt_length_;
    tube.x0 = rng.uniform(-cnt_length_, x_extent);
    tube.angle = 0.0;
    tube.diameter = diameter_.sample(rng);
    tube.metallic = cny::rng::sample_bernoulli(rng, process_.p_metallic);
    tube.removed = cny::rng::sample_bernoulli(
        rng, tube.metallic ? process_.p_remove_m : process_.p_remove_s);
    tubes.push_back(tube);
    y += pitch_.sample(rng);
  }
  return tubes;
}

std::vector<double> DirectionalGrowth::functional_positions(
    cny::rng::Xoshiro256& rng, double y_lo, double y_hi) const {
  CNY_EXPECT(y_hi > y_lo);  // before reserve(): its size math assumes it
  std::vector<double> ys;
  ys.reserve(static_cast<std::size_t>((y_hi - y_lo) * pitch_.density() *
                                      (1.0 - process_.p_fail())) +
             8);
  functional_positions(rng, y_lo, y_hi, ys);
  return ys;
}

void DirectionalGrowth::functional_positions(cny::rng::Xoshiro256& rng,
                                             double y_lo, double y_hi,
                                             std::vector<double>& out) const {
  CNY_EXPECT(y_hi > y_lo);
  const double pf = process_.p_fail();
  out.clear();
  double y = y_lo + pitch_.sample_equilibrium(rng);
  while (y < y_hi) {
    if (!cny::rng::sample_bernoulli(rng, pf)) out.push_back(y);
    y += pitch_.sample(rng);
  }
}

UncorrelatedGrowth::UncorrelatedGrowth(double tubes_per_um2,
                                       double tube_length,
                                       ProcessParams process)
    : density_per_nm2_(tubes_per_um2 * 1e-6),
      tube_length_(tube_length),
      process_(process) {
  CNY_EXPECT(tubes_per_um2 > 0.0);
  CNY_EXPECT(tube_length > 0.0);
  process_.validate();
}

std::vector<Cnt> UncorrelatedGrowth::generate_field(
    cny::rng::Xoshiro256& rng, const geom::Rect& area) const {
  CNY_EXPECT(!area.empty());
  // Expand the sampled region so tubes originating outside still cross it.
  const geom::Rect grown{area.x - tube_length_, area.y - tube_length_,
                         area.w + 2.0 * tube_length_,
                         area.h + 2.0 * tube_length_};
  const double lambda = density_per_nm2_ * grown.area();
  const long n = cny::rng::sample_poisson(rng, lambda);
  std::vector<Cnt> tubes;
  tubes.reserve(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    Cnt tube;
    tube.x0 = rng.uniform(grown.left(), grown.right());
    tube.y = rng.uniform(grown.bottom(), grown.top());
    tube.length = tube_length_;
    tube.angle = rng.uniform(0.0, std::numbers::pi);
    tube.diameter = diameter_.sample(rng);
    tube.metallic = cny::rng::sample_bernoulli(rng, process_.p_metallic);
    tube.removed = cny::rng::sample_bernoulli(
        rng, tube.metallic ? process_.p_remove_m : process_.p_remove_s);
    tubes.push_back(tube);
  }
  return tubes;
}

}  // namespace cny::cnt
