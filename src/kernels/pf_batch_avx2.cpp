// AVX2 backend of the batched p_F kernel: one width per 64-bit lane, the
// scalar term loop of cnt/pf_kernel.cpp replayed lane-parallel.
//
// Bit-identity is the design constraint everything here serves:
//
//  * Only IEEE-exact elementwise ops (+, −, ×, ÷, compares, blends) are
//    vectorized. Each lane's value sequence is then *identical* to the
//    scalar kernel's — vmulpd lane arithmetic is the same operation as
//    mulsd, bit for bit.
//  * Transcendentals (lgamma, exp) are scalar libm calls on lane-shared
//    per-term quantities, exactly as in the scalar kernel. Nothing ever
//    calls a vector math library.
//  * This translation unit is compiled -mavx2 -mno-fma -ffp-contract=off:
//    the compiler cannot contract a·b+c into an FMA the scalar kernel
//    (baseline x86-64, no FMA) would not have used.
//  * Divergent trip counts — per-lane truncation points, series/continued-
//    fraction branch splits, per-lane convergence breaks — are handled by
//    freezing: a lane that exits a scalar loop has its state captured at
//    that iteration, and whatever the still-running lanes compute
//    afterwards is discarded. The captured value is the scalar value.
//  * Lanes beyond the batch (m < 4) and nodes beyond a lane's grid are
//    padded with x = 0, τ = 0, fw = 0. The prefactored path never queues
//    a padded slot (its q stays 0, weighted by fw = 0 — an exact +0.0 in
//    the accumulation, same as before); the ladder path lets them ride
//    with τ = 0, contributing zero weight. Either way a padded slot can
//    never generate a NaN/Inf that matters nor extend any loop.
//
// Consequence worth stating: this file must mirror pf_terms_scalar (and
// gamma_q_prefactored's continued fraction) operation by operation. When
// either changes, change this file in lockstep — the bit-identity suite in
// tests/test_kernels.cpp fails loudly if they drift.
#include "kernels/pf_batch_impl.h"

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <vector>

#include "numeric/special.h"

namespace cny::kernels::detail {

namespace {

using cny::cnt::detail::PfGrid;

constexpr int kLanes = 4;

inline unsigned movemask(__m256d v) {
  return static_cast<unsigned>(_mm256_movemask_pd(v));
}

/// Copies the lanes selected by `bits` out of `v` into `out[lane]`.
inline void save_lanes(__m256d v, unsigned bits, double out[kLanes]) {
  alignas(32) double buf[kLanes];
  _mm256_store_pd(buf, v);
  for (int l = 0; l < kLanes; ++l) {
    if (bits & (1u << l)) out[l] = buf[l];
  }
}

/// Lane-parallel p_series_sum (cnt/pf_kernel.cpp): per-lane series
///   sum = 1 + Σ_i x·inv[1] ··· x·inv[i]
/// frozen at each lane's scalar exit — the eps break (after the update,
/// like the scalar loop) or the lane's own reciprocal-table length.
/// Returns the per-lane frozen sums; lanes outside `act0` hold garbage.
inline __m256d series_sums(__m256d x, __m256d eps, unsigned act0,
                           const long len[kLanes], const double* inv) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d del = one;
  __m256d sum = one;
  alignas(32) double frozen[kLanes] = {1.0, 1.0, 1.0, 1.0};
  unsigned act = act0;
  long min_len = 0;
  for (int l = 0; l < kLanes; ++l) {
    if (act0 & (1u << l)) {
      min_len = min_len == 0 ? len[l] : std::min(min_len, len[l]);
    }
  }
  long i = 1;
  while (act != 0) {
    if (i + 3 < min_len) {
      // Fast region, 4 iterations per trip: the del→sum chain is
      // latency-bound (each step multiplies the previous del), so the
      // per-iteration movemask+branch would otherwise ride the critical
      // path. Compute four steps back to back, check all four break
      // predicates with ONE movemask, and only when some lane broke
      // resolve *which step* it broke at, in order — a lane that breaks
      // at step s keeps sum_s, exactly the value the scalar loop exits
      // with, and whatever steps s+1.. computed for it is discarded.
      const __m256d d1 =
          _mm256_mul_pd(del, _mm256_mul_pd(x, _mm256_set1_pd(inv[i])));
      const __m256d s1 = _mm256_add_pd(sum, d1);
      const __m256d d2 =
          _mm256_mul_pd(d1, _mm256_mul_pd(x, _mm256_set1_pd(inv[i + 1])));
      const __m256d s2 = _mm256_add_pd(s1, d2);
      const __m256d d3 =
          _mm256_mul_pd(d2, _mm256_mul_pd(x, _mm256_set1_pd(inv[i + 2])));
      const __m256d s3 = _mm256_add_pd(s2, d3);
      const __m256d d4 =
          _mm256_mul_pd(d3, _mm256_mul_pd(x, _mm256_set1_pd(inv[i + 3])));
      const __m256d s4 = _mm256_add_pd(s3, d4);
      const __m256d b1 =
          _mm256_cmp_pd(d1, _mm256_mul_pd(s1, eps), _CMP_LT_OQ);
      const __m256d b2 =
          _mm256_cmp_pd(d2, _mm256_mul_pd(s2, eps), _CMP_LT_OQ);
      const __m256d b3 =
          _mm256_cmp_pd(d3, _mm256_mul_pd(s3, eps), _CMP_LT_OQ);
      const __m256d b4 =
          _mm256_cmp_pd(d4, _mm256_mul_pd(s4, eps), _CMP_LT_OQ);
      const unsigned any =
          movemask(_mm256_or_pd(_mm256_or_pd(b1, b2), _mm256_or_pd(b3, b4))) &
          act;
      if (any != 0) {
        const __m256d steps[4] = {b1, b2, b3, b4};
        const __m256d sums[4] = {s1, s2, s3, s4};
        for (int s = 0; s < 4 && act != 0; ++s) {
          const unsigned brk = movemask(steps[s]) & act;
          if (brk != 0) {
            save_lanes(sums[s], brk, frozen);
            act &= ~brk;
          }
        }
      }
      del = d4;
      sum = s4;
      i += 4;
      continue;
    }
    // Expiry region (or short table), one iteration at a time — the
    // scalar loop's shape, `i < len` checked before the body.
    unsigned expired = 0;
    for (int l = 0; l < kLanes; ++l) {
      if ((act & (1u << l)) && i >= len[l]) expired |= 1u << l;
    }
    if (expired != 0) {
      save_lanes(sum, expired, frozen);
      act &= ~expired;
      if (act == 0) break;
    }
    // Broken lanes keep computing harmlessly — their result is already
    // frozen; skipping blends keeps the loop at scalar op parity.
    del = _mm256_mul_pd(del, _mm256_mul_pd(x, _mm256_set1_pd(inv[i])));
    sum = _mm256_add_pd(sum, del);
    const unsigned brk =
        movemask(_mm256_cmp_pd(del, _mm256_mul_pd(sum, eps), _CMP_LT_OQ)) &
        act;
    if (brk != 0) {
      save_lanes(sum, brk, frozen);
      act &= ~brk;
    }
    ++i;
  }
  return _mm256_load_pd(frozen);
}

/// Lane-parallel continued-fraction branch of numeric::gamma_q_prefactored:
/// modified Lentz with the scalar kernel's exact clamp and break sequence,
/// per-lane frozen h at each lane's break (or the 500-iteration cap).
/// Returns q = τ·a·h per lane; lanes outside `act0` hold garbage.
inline __m256d cf_q(double a, __m256d x, __m256d tau, __m256d eps,
                    unsigned act0) {
  constexpr double kCfTiny = 1e-300;
  constexpr int kIterCap = 500;
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d tiny = _mm256_set1_pd(kCfTiny);
  const __m256d ntiny = _mm256_set1_pd(-kCfTiny);
  const __m256d neps = _mm256_sub_pd(_mm256_setzero_pd(), eps);
  const __m256d va = _mm256_set1_pd(a);

  // b = x + 1 − a; c = 1/tiny; d = 1/b; h = d — the scalar seeds.
  __m256d b = _mm256_sub_pd(_mm256_add_pd(x, one), va);
  __m256d c = _mm256_set1_pd(1.0 / kCfTiny);
  __m256d d = _mm256_div_pd(one, b);
  __m256d h = d;
  alignas(32) double frozen[kLanes] = {};
  unsigned act = act0;
  for (int i = 1; i <= kIterCap && act != 0; ++i) {
    const double an = -i * (i - a);
    const __m256d van = _mm256_set1_pd(an);
    b = _mm256_add_pd(b, two);
    d = _mm256_add_pd(_mm256_mul_pd(van, d), b);
    __m256d clamp = _mm256_and_pd(_mm256_cmp_pd(d, ntiny, _CMP_GT_OQ),
                                  _mm256_cmp_pd(d, tiny, _CMP_LT_OQ));
    d = _mm256_blendv_pd(d, tiny, clamp);
    c = _mm256_add_pd(b, _mm256_div_pd(van, c));
    clamp = _mm256_and_pd(_mm256_cmp_pd(c, ntiny, _CMP_GT_OQ),
                          _mm256_cmp_pd(c, tiny, _CMP_LT_OQ));
    c = _mm256_blendv_pd(c, tiny, clamp);
    d = _mm256_div_pd(one, d);
    const __m256d del = _mm256_mul_pd(d, c);
    h = _mm256_mul_pd(h, del);
    const __m256d dev = _mm256_sub_pd(del, one);
    const unsigned brk =
        movemask(_mm256_and_pd(_mm256_cmp_pd(dev, neps, _CMP_GT_OQ),
                               _mm256_cmp_pd(dev, eps, _CMP_LT_OQ))) &
        act;
    if (brk != 0) {
      save_lanes(h, brk, frozen);
      act &= ~brk;
    }
  }
  // A lane that exhausts the iteration cap exits with its latest h — the
  // scalar loop's fall-through.
  if (act != 0) save_lanes(h, act, frozen);
  return _mm256_mul_pd(_mm256_mul_pd(tau, va), _mm256_load_pd(frozen));
}

}  // namespace

void pf_terms_avx2(const PfGrid* const* grids, int m, double z,
                   double rel_tol, cnt::PfKernelResult* out) {
  // Lane-shared invariants guaranteed by the dispatcher: one pitch model,
  // so shape/ladder agree; every grid is on a prefactored path.
  const PfGrid& g0 = *grids[0];
  const double k = g0.k;
  const bool ladder = g0.ladder;
  const long k_int = g0.k_int;

  std::size_t n_max = 0;
  std::size_t inv_max = 0;
  for (int l = 0; l < m; ++l) {
    n_max = std::max(n_max, grids[l]->xs.size());
    inv_max = std::max(inv_max, grids[l]->inv_len);
  }

  // SoA [node][lane] with benign padding (see file header).
  std::vector<double> soa(n_max * kLanes * 6);
  double* X = soa.data();
  double* FW = X + n_max * kLanes;
  double* TAU = FW + n_max * kLanes;
  double* XK = TAU + n_max * kLanes;
  double* QPREV = XK + n_max * kLanes;
  double* Q = QPREV + n_max * kLanes;
  for (std::size_t j = 0; j < n_max * kLanes; ++j) {
    X[j] = 0.0;
    FW[j] = 0.0;
    TAU[j] = 0.0;
    XK[j] = 0.0;
    QPREV[j] = 0.0;
    Q[j] = 0.0;
  }
  long inv_len[kLanes] = {};
  std::size_t n_nodes[kLanes] = {};
  for (int l = 0; l < m; ++l) {
    const PfGrid& g = *grids[l];
    inv_len[l] = static_cast<long>(g.inv_len);
    n_nodes[l] = g.xs.size();
    for (std::size_t j = 0; j < g.xs.size(); ++j) {
      X[j * kLanes + l] = g.xs[j];
      FW[j * kLanes + l] = g.fw[j];
      TAU[j * kLanes + l] = g.tau0[j];
      if (!ladder) XK[j * kLanes + l] = g.xk[j];
    }
  }

  // Per-lane scalar loop state — the exact variables of pf_terms_scalar.
  double acc[kLanes] = {};
  double cum[kLanes] = {};
  double zn[kLanes] = {};
  double rem[kLanes] = {};
  long terms[kLanes] = {};
  bool done[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    done[l] = l >= m;
    if (l < m) {
      acc[l] = grids[l]->p0;
      zn[l] = 1.0;
    }
  }
  // Zeroing a finished lane's τ/weights keeps the dead lane's arithmetic
  // on exact zeros (no denormal crawl) without touching live lanes.
  const auto retire_lane = [&](int l) {
    done[l] = true;
    for (std::size_t j = 0; j < n_max; ++j) {
      TAU[j * kLanes + l] = 0.0;
      XK[j * kLanes + l] = 0.0;
      FW[j * kLanes + l] = 0.0;
    }
  };

  std::vector<double> inv(inv_max);  // per-term reciprocal table, shared
  double shape = 0.0;                // ladder shape counter (n-1)·k
  double lg_prev = 0.0;              // lnΓ((n-1)·k + 1)

  for (long n = 1;; ++n) {
    // Loop head, per lane: the scalar kernel's zn/rem/truncation sequence.
    unsigned pay = 0;
    alignas(32) double eps_l[kLanes] = {};
    for (int l = 0; l < m; ++l) {
      if (done[l]) continue;
      const PfGrid& g = *grids[l];
      if (n > g.n_stop) {
        // Ran the full support (z near 1): the certified remainder is
        // whatever mass the telescoped sum left behind, at the next power.
        rem[l] = zn[l] * z * std::max(0.0, g.mass_tail - cum[l]);
        retire_lane(l);
        continue;
      }
      zn[l] *= z;
      rem[l] = zn[l] * std::max(0.0, g.mass_tail - cum[l]);
      if (rem[l] <= rel_tol * acc[l]) {
        retire_lane(l);
        continue;
      }
      if (!ladder) {
        double eps = acc[l] > 0.0 ? rel_tol * acc[l] / rem[l] : 1e-15;
        eps_l[l] = std::clamp(eps, 1e-15, 1e-6);
      }
      pay |= 1u << l;
    }
    if (pay == 0) break;

    __m256d term_acc = _mm256_setzero_pd();
    if (ladder) {
      for (std::size_t j = 0; j < n_max; ++j) {
        const __m256d x = _mm256_loadu_pd(&X[j * kLanes]);
        __m256d t = _mm256_loadu_pd(&TAU[j * kLanes]);
        __m256d dq = _mm256_setzero_pd();
        for (long s = 0; s < k_int; ++s) {
          dq = _mm256_add_pd(dq, t);
          const double denom = shape + static_cast<double>(s) + 1.0;
          t = _mm256_mul_pd(t, _mm256_div_pd(x, _mm256_set1_pd(denom)));
        }
        _mm256_storeu_pd(&TAU[j * kLanes], t);
        term_acc = _mm256_add_pd(
            term_acc, _mm256_mul_pd(_mm256_loadu_pd(&FW[j * kLanes]), dq));
      }
      shape += static_cast<double>(k_int);
    } else {
      const double a_hi = static_cast<double>(n) * k;
      const double lg_cur = numeric::log_gamma(a_hi + 1.0);
      const double rho = std::exp(lg_prev - lg_cur);
      lg_prev = lg_cur;
      // This term's series denominators, shared by every lane and node.
      // Four divides per vdivpd: IEEE division is elementwise exact, so
      // each entry is the same bits the scalar fill produces — this is the
      // dominating per-term scalar cost, worth the only vectorized table.
      {
        const __m256d vone = _mm256_set1_pd(1.0);
        const __m256d base = _mm256_set1_pd(a_hi);
        const __m256d steps = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
        std::size_t i = 1;
        for (; i + kLanes <= inv.size(); i += kLanes) {
          const __m256d idx = _mm256_add_pd(
              _mm256_set1_pd(static_cast<double>(i)), steps);
          _mm256_storeu_pd(&inv[i],
                           _mm256_div_pd(vone, _mm256_add_pd(base, idx)));
        }
        for (; i < inv.size(); ++i) {
          inv[i] = 1.0 / (a_hi + static_cast<double>(i));
        }
      }
      const __m256d vrho = _mm256_set1_pd(rho);
      const double split = a_hi + 1.0;
      const __m256d vsplit = _mm256_set1_pd(split);
      const __m256d one = _mm256_set1_pd(1.0);
      const __m256d eps = _mm256_load_pd(eps_l);
      const __m256d vpay = _mm256_castsi256_pd(_mm256_set_epi64x(
          (pay & 8u) ? -1LL : 0, (pay & 4u) ? -1LL : 0,
          (pay & 2u) ? -1LL : 0, (pay & 1u) ? -1LL : 0));

      // Pooled convergence pass. The per-node q values of one term are
      // independent of each other — only the pass-2 accumulation order
      // matters — so a branch that lands on a node with poor lane
      // occupancy (1–2 live lanes, the norm once widths spread or a lane
      // retires) does not run the convergence loop then and there:
      // (node, lane) pairs are queued and the loop runs chunks of four
      // pooled across nodes at full occupancy. A branch that already has
      // 3–4 live lanes on a node runs in place, exactly the pre-pooling
      // shape — coherent packets keep their zero-overhead path. Each
      // pair's lane arithmetic is elementwise, so which pairs share a
      // vector cannot change any pair's bits; adjacent nodes have similar
      // x, which keeps chunk iteration counts coherent. Padding slots
      // (j beyond a lane's grid) are never queued — their q stays 0 and
      // contributes the same exact +0.0 through the fw = 0 weight that
      // an in-place evaluation produces.
      alignas(32) double sx[kLanes], stau[kLanes], seps[kLanes];
      long slen[kLanes];
      std::size_t sslot[kLanes];
      int sn = 0;
      const auto flush_series = [&] {
        if (sn == 0) return;
        for (int i = sn; i < kLanes; ++i) {
          sx[i] = 0.0;  // pad: breaks at the first iteration, then idles
          seps[i] = 1.0;
          slen[i] = 2;
        }
        const unsigned mask = (1u << sn) - 1u;
        alignas(32) double sums[kLanes];
        _mm256_store_pd(sums,
                        series_sums(_mm256_load_pd(sx), _mm256_load_pd(seps),
                                    mask, slen, inv.data()));
        for (int i = 0; i < sn; ++i) Q[sslot[i]] = 1.0 - stau[i] * sums[i];
        sn = 0;
      };
      alignas(32) double cx[kLanes], ctau[kLanes], ceps[kLanes];
      std::size_t cslot[kLanes];
      int cn = 0;
      const auto flush_cf = [&] {
        if (cn == 0) return;
        for (int i = cn; i < kLanes; ++i) {
          cx[i] = cx[0];  // pad: duplicate a live pair, result discarded
          ctau[i] = ctau[0];
          ceps[i] = ceps[0];
        }
        const unsigned mask = (1u << cn) - 1u;
        alignas(32) double qs[kLanes];
        _mm256_store_pd(qs, cf_q(a_hi, _mm256_load_pd(cx),
                                 _mm256_load_pd(ctau), _mm256_load_pd(ceps),
                                 mask));
        for (int i = 0; i < cn; ++i) Q[cslot[i]] = qs[i];
        cn = 0;
      };

      // Pass 1: advance τ (vector, all lanes), branch-split each node —
      // x < a+1 → table-backed series, otherwise the CF branch, per lane
      // like the scalar kernel's split — then evaluate in place (3–4 live
      // lanes) or queue (1–2).
      for (std::size_t j = 0; j < n_max; ++j) {
        const __m256d x = _mm256_loadu_pd(&X[j * kLanes]);
        __m256d tau = _mm256_loadu_pd(&TAU[j * kLanes]);
        tau = _mm256_mul_pd(
            tau, _mm256_mul_pd(_mm256_loadu_pd(&XK[j * kLanes]), vrho));
        _mm256_storeu_pd(&TAU[j * kLanes], tau);
        const __m256d smask = _mm256_cmp_pd(x, vsplit, _CMP_LT_OQ);
        unsigned sbits = movemask(smask) & pay;
        unsigned cbits = ~movemask(smask) & pay;
        if (std::popcount(sbits) >= 3) {
          const __m256d sums = series_sums(x, eps, sbits, inv_len, inv.data());
          const __m256d q_hi = _mm256_sub_pd(one, _mm256_mul_pd(tau, sums));
          _mm256_maskstore_pd(&Q[j * kLanes],
                              _mm256_castpd_si256(_mm256_and_pd(smask, vpay)),
                              q_hi);
          sbits = 0;
        }
        if (std::popcount(cbits) >= 3) {
          const __m256d qcf = cf_q(a_hi, x, tau, eps, cbits);
          _mm256_maskstore_pd(
              &Q[j * kLanes],
              _mm256_castpd_si256(_mm256_andnot_pd(smask, vpay)), qcf);
          cbits = 0;
        }
        unsigned rest = sbits | cbits;
        while (rest != 0) {
          const int l = std::countr_zero(rest);
          rest &= rest - 1;
          if (j >= n_nodes[l]) continue;
          const std::size_t slot = j * kLanes + l;
          if (sbits & (1u << l)) {
            sx[sn] = X[slot];
            stau[sn] = TAU[slot];
            seps[sn] = eps_l[l];
            slen[sn] = inv_len[l];
            sslot[sn] = slot;
            if (++sn == kLanes) flush_series();
          } else {
            cx[cn] = X[slot];
            ctau[cn] = TAU[slot];
            ceps[cn] = eps_l[l];
            cslot[cn] = slot;
            if (++cn == kLanes) flush_cf();
          }
        }
      }
      flush_series();
      flush_cf();

      // Pass 2: the scalar kernel's accumulation, in node order.
      for (std::size_t j = 0; j < n_max; ++j) {
        const __m256d q_hi = _mm256_loadu_pd(&Q[j * kLanes]);
        const __m256d qprev = _mm256_loadu_pd(&QPREV[j * kLanes]);
        const __m256d diff = _mm256_sub_pd(q_hi, qprev);
        _mm256_storeu_pd(&QPREV[j * kLanes], q_hi);
        // if (diff > 0) term += fw·diff — the masked add contributes an
        // exact +0.0 elsewhere, which cannot move the accumulator.
        const __m256d pos = _mm256_cmp_pd(diff, _mm256_setzero_pd(),
                                          _CMP_GT_OQ);
        term_acc = _mm256_add_pd(
            term_acc,
            _mm256_and_pd(
                pos, _mm256_mul_pd(_mm256_loadu_pd(&FW[j * kLanes]), diff)));
      }
    }

    alignas(32) double term[kLanes];
    _mm256_store_pd(term, term_acc);
    for (int l = 0; l < m; ++l) {
      if ((pay & (1u << l)) == 0) continue;
      const double t = std::max(0.0, term[l]);
      cum[l] += t;
      acc[l] += t * zn[l];
      ++terms[l];
    }
  }

  for (int l = 0; l < m; ++l) {
    out[l] = {acc[l] / grids[l]->total, terms[l], rem[l] / grids[l]->total};
  }
}

}  // namespace cny::kernels::detail
