// Deterministic parallel Monte-Carlo reduction.
//
// The contract that makes every MC loop in this library parallel *and*
// reproducible: work is sharded into RNG streams, not threads.
//
//   * `n_streams` decides WHAT is computed — shard i draws all of its
//     variates from stream i of the caller's engine, so the result is a
//     pure function of (engine state, n_streams).
//   * `n_threads` decides only HOW FAST — shards are claimed from an atomic
//     counter and partial results are merged in stream order after all
//     shards finish, so any thread count (including 1) produces
//     bit-identical output.
//   * Stream 0 is the caller's engine itself (legacy serial order); stream
//     i >= 1 is `engine.make_stream(i-1)`, i.e. jumped i x 2^128 steps.
//     With n_streams == 1 the reduction is exactly the pre-subsystem
//     serial loop, including how it advances the caller's engine.
//
// Kernel signature: Partial kernel(unsigned stream, std::uint64_t n, rng&)
// Reduce signature: void reduce(Partial& into, Partial&& from)
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "exec/mc_policy.h"
#include "exec/thread_pool.h"
#include "rng/engine.h"
#include "util/contracts.h"

namespace cny::exec {

template <class Partial, class Kernel, class Reduce>
Partial parallel_mc_reduce(std::uint64_t n_samples, unsigned n_threads,
                           std::vector<rng::Xoshiro256> seed_streams,
                           Kernel&& kernel, Reduce&& reduce,
                           ThreadPool* pool = nullptr) {
  CNY_EXPECT(!seed_streams.empty());
  const unsigned n = static_cast<unsigned>(seed_streams.size());
  const auto counts = shard_counts(n_samples, n);
  std::vector<Partial> partials(n);

  // Shards land in stream-indexed slots regardless of which thread ran
  // them, and the merge below walks the slots in stream order — so the
  // result is a pure function of (seed_streams, n_samples), not scheduling.
  // Each shard draws from a private copy of its stream: two 32-byte states
  // share a cache line in `seed_streams`, and shards on different cores
  // would otherwise write that line on every draw. The streams are
  // discarded afterwards, so the copy changes no result bit.
  parallel_for(
      n, n_threads,
      [&](std::size_t i) {
        rng::Xoshiro256 stream = seed_streams[i];
        partials[i] = kernel(static_cast<unsigned>(i), counts[i], stream);
      },
      pool);

  Partial total = std::move(partials[0]);
  for (unsigned i = 1; i < n; ++i) reduce(total, std::move(partials[i]));
  return total;
}

/// The one entry point MC kernels should port onto: dispatches `policy`
/// and owns the two invariants every call site must honour —
///   * one stream ⇒ run the kernel directly on the caller's engine, in
///     legacy serial order (bit-identical to the pre-subsystem loop);
///   * several streams ⇒ parallel_mc_reduce over make_streams(rng), then
///     advance the caller's engine by one long_jump (2^192 steps, past
///     every stream used) so consecutive calls never overlap streams.
template <class Partial, class Kernel, class Reduce>
Partial run_mc(std::uint64_t n_samples, rng::Xoshiro256& rng,
               const McPolicy& policy, Kernel&& kernel, Reduce&& reduce) {
  if (policy.serial_streams()) {
    return kernel(0u, n_samples, rng);
  }
  Partial total = parallel_mc_reduce<Partial>(
      n_samples, policy.n_threads, make_streams(rng, policy.n_streams),
      std::forward<Kernel>(kernel), std::forward<Reduce>(reduce));
  rng.long_jump();
  return total;
}

}  // namespace cny::exec
