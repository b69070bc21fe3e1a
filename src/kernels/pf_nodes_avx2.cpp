// AVX2 node pass of the p_F term loop: adjacent quadrature nodes of one
// PMF term, four per register, cnt::detail::pf_nodes_scalar replayed
// lane-parallel. The nodes of a term share the shape, the Γ-ratio, the
// reciprocal table, eps and the series/CF split point, so only the series
// and continued-fraction trip counts differ between lanes.
//
// Bit-identity is the design constraint everything here serves:
//
//  * Only IEEE-exact elementwise ops (+, −, ×, ÷, compares, blends) are
//    vectorized. Each lane's value sequence is then *identical* to the
//    scalar update's — vmulpd lane arithmetic is the same operation as
//    mulsd, bit for bit. Nothing here calls a transcendental.
//  * This translation unit is compiled -mavx2 -mno-fma -ffp-contract=off:
//    the compiler cannot contract a·b+c into an FMA the scalar update
//    (baseline x86-64, no FMA) would not have used.
//  * Divergent trip counts — the series/CF split and each lane's
//    convergence break — are handled by freezing: a lane that exits a
//    scalar loop has its value captured at that iteration, and whatever
//    the still-running lanes compute afterwards is discarded for it.
//  * Nodes go in blocks of two registers, whose independent convergence
//    chains fill each other's latency. A range ending in a part block
//    (1–7 nodes) runs one block on padded copies and writes back only
//    the live lanes.
//
// Consequence worth stating: this file must mirror pf_nodes_scalar (and
// gamma_q_prefactored's continued fraction) operation by operation. When
// either changes, change this file in lockstep — the bit-identity tests in
// tests/test_pf_kernel.cpp fail loudly if they drift.
#include "cnt/pf_kernel_internal.h"

#include <immintrin.h>

namespace cny::kernels::detail {

namespace {

using cny::cnt::detail::PfNodes;
using cny::cnt::detail::PfTermStep;

constexpr unsigned kLanes = 4;
constexpr int kRegs = 2;
constexpr unsigned kBlock = kLanes * kRegs;  ///< nodes per block

/// Lane l of register r is bit 4r+l of a block mask.
inline unsigned movemask(__m256d v, int r) {
  return static_cast<unsigned>(_mm256_movemask_pd(v)) << (kLanes * r);
}

/// Copies the lanes of register r selected by block mask `bits` out of `v`
/// into `out[4r + lane]`.
inline void save_lanes(__m256d v, int r, unsigned bits, double* out) {
  bits = (bits >> (kLanes * r)) & ((1u << kLanes) - 1u);
  if (bits == 0) return;
  alignas(32) double buf[kLanes];
  _mm256_store_pd(buf, v);
  for (unsigned l = 0; l < kLanes; ++l) {
    if (bits & (1u << l)) out[kLanes * r + l] = buf[l];
  }
}

/// Lane-parallel p_series_sum (cnt/pf_kernel.cpp): per lane the series
///   sum = 1 + Σ_i x·inv[1] ··· x·inv[i],  i < len,
/// frozen at the lane's scalar exit — the eps break (after the update,
/// like the scalar loop) or the end of the reciprocal table. Lanes outside
/// block mask `act0` read 0.
inline void series_sums(const __m256d (&x)[kRegs], __m256d eps, unsigned act0,
                        std::size_t len, const double* inv,
                        __m256d (&out)[kRegs]) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d del[kRegs] = {one, one};
  __m256d sum[kRegs] = {one, one};
  alignas(32) double frozen[kBlock] = {};
  unsigned act = act0;
  std::size_t i = 1;
  // Four iterations per trip while they fit the table: the del→sum chain
  // is latency-bound (each step multiplies the previous del), so a
  // per-iteration movemask+branch would ride the critical path. Compute
  // four steps back to back, check all break predicates with one movemask
  // per register, and only when some lane broke resolve *which step* it
  // broke at, in order — a lane that breaks at step s keeps sum_s, exactly
  // the value the scalar loop exits with.
  for (; act != 0 && i + 3 < len; i += 4) {
    __m256d s[4][kRegs];
    __m256d b[4][kRegs];
    unsigned any = 0;
    for (int r = 0; r < kRegs; ++r) {
      for (int k = 0; k < 4; ++k) {
        del[r] = _mm256_mul_pd(
            del[r], _mm256_mul_pd(x[r], _mm256_set1_pd(inv[i + k])));
        s[k][r] = sum[r] = _mm256_add_pd(sum[r], del[r]);
        b[k][r] = _mm256_cmp_pd(del[r], _mm256_mul_pd(sum[r], eps),
                                _CMP_LT_OQ);
      }
      any |= movemask(_mm256_or_pd(_mm256_or_pd(b[0][r], b[1][r]),
                                   _mm256_or_pd(b[2][r], b[3][r])),
                      r);
    }
    for (int k = 0; k < 4 && (any & act) != 0; ++k) {
      for (int r = 0; r < kRegs; ++r) {
        const unsigned brk = movemask(b[k][r], r) & act;
        save_lanes(s[k][r], r, brk, frozen);
        act &= ~brk;
      }
    }
  }
  // The table's last few entries, one iteration at a time.
  for (; act != 0 && i < len; ++i) {
    for (int r = 0; r < kRegs; ++r) {
      del[r] = _mm256_mul_pd(del[r],
                             _mm256_mul_pd(x[r], _mm256_set1_pd(inv[i])));
      sum[r] = _mm256_add_pd(sum[r], del[r]);
      const unsigned brk =
          movemask(_mm256_cmp_pd(del[r], _mm256_mul_pd(sum[r], eps),
                                 _CMP_LT_OQ),
                   r) &
          act;
      save_lanes(sum[r], r, brk, frozen);
      act &= ~brk;
    }
  }
  // A lane that runs out of table exits with its latest sum — the scalar
  // loop's fall-through.
  for (int r = 0; r < kRegs; ++r) {
    save_lanes(sum[r], r, act, frozen);
    out[r] = _mm256_load_pd(frozen + kLanes * r);
  }
}

/// Lane-parallel continued-fraction branch of numeric::gamma_q_prefactored:
/// modified Lentz with the scalar code's exact clamp and break sequence,
/// per-lane frozen h at each lane's break (or the 500-iteration cap).
/// Writes q = τ·a·h per lane; lanes outside block mask `act0` read 0.
inline void cf_q(double a, const __m256d (&x)[kRegs],
                 const __m256d (&tau)[kRegs], __m256d eps, unsigned act0,
                 __m256d (&out)[kRegs]) {
  constexpr double kCfTiny = 1e-300;
  constexpr int kIterCap = 500;
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d tiny = _mm256_set1_pd(kCfTiny);
  const __m256d ntiny = _mm256_set1_pd(-kCfTiny);
  const __m256d neps = _mm256_sub_pd(_mm256_setzero_pd(), eps);
  const __m256d va = _mm256_set1_pd(a);

  // b = x + 1 − a; c = 1/tiny; d = 1/b; h = d — the scalar seeds.
  __m256d b[kRegs];
  __m256d c[kRegs];
  __m256d d[kRegs];
  __m256d h[kRegs];
  alignas(32) double frozen[kBlock] = {};
  for (int r = 0; r < kRegs; ++r) {
    b[r] = _mm256_sub_pd(_mm256_add_pd(x[r], one), va);
    c[r] = _mm256_set1_pd(1.0 / kCfTiny);
    d[r] = h[r] = _mm256_div_pd(one, b[r]);
  }
  unsigned act = act0;
  for (int i = 1; i <= kIterCap && act != 0; ++i) {
    const double an = -i * (i - a);
    const __m256d van = _mm256_set1_pd(an);
    for (int r = 0; r < kRegs; ++r) {
      b[r] = _mm256_add_pd(b[r], two);
      d[r] = _mm256_add_pd(_mm256_mul_pd(van, d[r]), b[r]);
      __m256d clamp =
          _mm256_and_pd(_mm256_cmp_pd(d[r], ntiny, _CMP_GT_OQ),
                        _mm256_cmp_pd(d[r], tiny, _CMP_LT_OQ));
      d[r] = _mm256_blendv_pd(d[r], tiny, clamp);
      c[r] = _mm256_add_pd(b[r], _mm256_div_pd(van, c[r]));
      clamp = _mm256_and_pd(_mm256_cmp_pd(c[r], ntiny, _CMP_GT_OQ),
                            _mm256_cmp_pd(c[r], tiny, _CMP_LT_OQ));
      c[r] = _mm256_blendv_pd(c[r], tiny, clamp);
      d[r] = _mm256_div_pd(one, d[r]);
      const __m256d del = _mm256_mul_pd(d[r], c[r]);
      h[r] = _mm256_mul_pd(h[r], del);
      const __m256d dev = _mm256_sub_pd(del, one);
      const unsigned brk =
          movemask(_mm256_and_pd(_mm256_cmp_pd(dev, neps, _CMP_GT_OQ),
                                 _mm256_cmp_pd(dev, eps, _CMP_LT_OQ)),
                   r) &
          act;
      save_lanes(h[r], r, brk, frozen);
      act &= ~brk;
    }
  }
  // A lane that exhausts the iteration cap exits with its latest h — the
  // scalar loop's fall-through.
  for (int r = 0; r < kRegs; ++r) {
    save_lanes(h[r], r, act, frozen);
    out[r] = _mm256_mul_pd(_mm256_mul_pd(tau[r], va),
                           _mm256_load_pd(frozen + kLanes * r));
  }
}

/// One block of the integer-shape ladder: dq += τ; τ *= x/(shape+s+1),
/// k steps.
inline void ladder_block(const double* x, double* tau, double* d,
                         const PfTermStep& step) {
  for (int r = 0; r < kRegs; ++r) {
    const __m256d vx = _mm256_loadu_pd(x + kLanes * r);
    __m256d t = _mm256_loadu_pd(tau + kLanes * r);
    __m256d dq = _mm256_setzero_pd();
    for (long s = 0; s < step.ladder_steps; ++s) {
      dq = _mm256_add_pd(dq, t);
      const double denom = step.shape + static_cast<double>(s) + 1.0;
      t = _mm256_mul_pd(t, _mm256_div_pd(vx, _mm256_set1_pd(denom)));
    }
    _mm256_storeu_pd(tau + kLanes * r, t);
    _mm256_storeu_pd(d + kLanes * r, dq);
  }
}

/// One block of the non-integer prefactored path over the lanes in block
/// mask `live`: step τ, split at x < a+1 into the table-backed series and
/// the continued fraction (each run only when some live lane takes it),
/// blend, and emit the masked increment diff > 0 ? diff : +0.0.
inline void series_cf_block(const double* x, const double* xk, double* tau,
                            double* q_prev, double* d, const PfTermStep& step,
                            unsigned live) {
  const __m256d rho = _mm256_set1_pd(step.rho);
  const __m256d split = _mm256_set1_pd(step.a_hi + 1.0);
  const __m256d eps = _mm256_set1_pd(step.eps);
  __m256d vx[kRegs];
  __m256d t[kRegs];
  __m256d below[kRegs];
  __m256d q[kRegs];
  unsigned series = 0;
  for (int r = 0; r < kRegs; ++r) {
    vx[r] = _mm256_loadu_pd(x + kLanes * r);
    t[r] = _mm256_mul_pd(_mm256_loadu_pd(tau + kLanes * r),
                         _mm256_mul_pd(_mm256_loadu_pd(xk + kLanes * r), rho));
    _mm256_storeu_pd(tau + kLanes * r, t[r]);
    below[r] = _mm256_cmp_pd(vx[r], split, _CMP_LT_OQ);
    series |= movemask(below[r], r);
    q[r] = _mm256_setzero_pd();
  }
  const unsigned cf = ~series & live;
  series &= live;
  if (series != 0) {
    __m256d sums[kRegs];
    series_sums(vx, eps, series, step.inv_len, step.inv, sums);
    for (int r = 0; r < kRegs; ++r) {
      q[r] = _mm256_sub_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(t[r], sums[r]));
    }
  }
  if (cf != 0) {
    __m256d qcf[kRegs];
    cf_q(step.a_hi, vx, t, eps, cf, qcf);
    for (int r = 0; r < kRegs; ++r) {
      q[r] = _mm256_blendv_pd(qcf[r], q[r], below[r]);
    }
  }
  for (int r = 0; r < kRegs; ++r) {
    const __m256d diff =
        _mm256_sub_pd(q[r], _mm256_loadu_pd(q_prev + kLanes * r));
    _mm256_storeu_pd(q_prev + kLanes * r, q[r]);
    _mm256_storeu_pd(
        d + kLanes * r,
        _mm256_and_pd(_mm256_cmp_pd(diff, _mm256_setzero_pd(), _CMP_GT_OQ),
                      diff));
  }
}

}  // namespace

void pf_nodes_avx2(const PfNodes& nodes, const PfTermStep& step,
                   std::size_t begin, std::size_t end) {
  const bool ladder = step.ladder_steps > 0;
  std::size_t j = begin;
  for (; j + kBlock <= end; j += kBlock) {
    if (ladder) {
      ladder_block(nodes.x + j, nodes.tau + j, nodes.d + j, step);
    } else {
      series_cf_block(nodes.x + j, nodes.xk + j, nodes.tau + j,
                      nodes.q_prev + j, nodes.d + j, step, (1u << kBlock) - 1u);
    }
  }
  if (j == end) return;
  // Part block: pad with x = τ = 0 and keep only the live lanes' writes.
  const std::size_t m = end - j;
  alignas(32) double x[kBlock] = {}, xk[kBlock] = {}, tau[kBlock] = {},
                     q_prev[kBlock] = {}, d[kBlock] = {};
  for (std::size_t l = 0; l < m; ++l) {
    x[l] = nodes.x[j + l];
    tau[l] = nodes.tau[j + l];
    if (!ladder) {
      xk[l] = nodes.xk[j + l];
      q_prev[l] = nodes.q_prev[j + l];
    }
  }
  if (ladder) {
    ladder_block(x, tau, d, step);
  } else {
    series_cf_block(x, xk, tau, q_prev, d, step, (1u << m) - 1u);
  }
  for (std::size_t l = 0; l < m; ++l) {
    nodes.tau[j + l] = tau[l];
    nodes.d[j + l] = d[l];
    if (!ladder) nodes.q_prev[j + l] = q_prev[l];
  }
}

}  // namespace cny::kernels::detail
