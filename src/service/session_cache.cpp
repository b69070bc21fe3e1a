#include "service/session_cache.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "celllib/generator.h"
#include "exec/thread_pool.h"
#include "netlist/design_generator.h"
#include "scenario/engine.h"
#include "util/contracts.h"
#include "yield/flow.h"
#include "yield/wmin_solver.h"

namespace cny::service {

namespace {

/// Distinct design sizes kept warm per session. Beyond this the least
/// recently used is dropped (and regenerated on demand) — generation is
/// deterministic, so eviction is a pure speed/memory trade.
constexpr std::size_t kMaxCachedDesigns = 8;

celllib::Library make_library(const std::string& name) {
  if (name == "commercial65") return celllib::make_commercial65_like();
  CNY_EXPECT_MSG(name == "nangate45", "unknown library '" + name + "'");
  return celllib::make_nangate45_like();
}

std::uint64_t us_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

device::FailureModel make_model(const ProcessSpec& spec) {
  cnt::ProcessParams process;
  process.p_metallic = spec.p_metallic;
  process.p_remove_s = spec.p_remove_s;
  return device::FailureModel(
      cnt::PitchModel(spec.pitch_mean_nm, spec.pitch_cv), process);
}

}  // namespace

std::string SessionKey::canonical() const {
  // to_json renders doubles shortest-round-trip, so the text key is
  // injective over process corners.
  Json v = Json::object();
  v.set("library", Json::string(library));
  v.set("process", to_json(process));
  return v.dump();
}

SessionKey session_key(const FlowRequest& request) {
  // The key is the *derived* corner: a RemovalFrontier scenario earns its
  // p_Rs from the frontier before the model is built, so scenario sweeps at
  // one corner — and plain requests that state the same corner explicitly —
  // all share one warm FailureModel. The derivation goes through the same
  // scenario::derived_process the flow itself applies, so the session model
  // always passes run_flow's corner check untouched.
  ProcessSpec spec = request.process;
  cnt::ProcessParams base;
  base.p_metallic = spec.p_metallic;
  base.p_remove_s = spec.p_remove_s;
  spec.p_remove_s =
      scenario::derived_process(base, request.params.scenario).p_remove_s;
  return {request.library, spec};
}

Session::Session(SessionKey key, std::size_t interpolant_knots,
                 unsigned n_threads, obs::TraceSink* trace,
                 obs::Histogram* build_histogram)
    : key_(std::move(key)),
      canonical_(key_.canonical()),
      lib_(make_library(key_.library)),
      model_(make_model(key_.process)) {
  // Warm the model over the whole solver bracket: every p_F query any
  // strategy of any request makes lands inside it, so after this one build
  // the hot read path is the interpolant snapshot.
  const yield::WminRequest bracket;
  obs::Span span(trace, "interpolant_build", "session");
  span.arg("session", canonical_);
  const auto t0 = std::chrono::steady_clock::now();
  model_.enable_interpolation(bracket.w_lo, bracket.w_hi, interpolant_knots,
                              n_threads);
  if (build_histogram != nullptr) build_histogram->observe(us_since(t0));
}

std::shared_ptr<const netlist::Design> Session::design(
    std::uint64_t instances) const {
  const std::lock_guard<std::mutex> lock(designs_mutex_);
  const auto it = std::find_if(
      designs_.begin(), designs_.end(),
      [&](const auto& entry) { return entry.first == instances; });
  if (it != designs_.end()) {
    auto found = it->second;
    designs_.erase(it);
    designs_.insert(designs_.begin(), {instances, found});  // MRU front
    return found;
  }
  auto built = std::make_shared<const netlist::Design>(
      instances == 0
          ? netlist::make_openrisc_like(lib_)
          : netlist::generate_design("synthetic_" + std::to_string(instances),
                                     lib_, instances, {}));
  designs_.insert(designs_.begin(), {instances, built});
  if (designs_.size() > kMaxCachedDesigns) designs_.pop_back();
  return built;
}

SessionCache::SessionCache(std::size_t capacity,
                           std::size_t interpolant_knots, unsigned n_threads)
    : capacity_(capacity),
      interpolant_knots_(interpolant_knots),
      n_threads_(n_threads) {
  CNY_EXPECT(capacity_ >= 1);
  CNY_EXPECT(interpolant_knots_ >= 4);
}

void SessionCache::attach_observability(obs::Registry* registry,
                                        obs::TraceSink* sink, obs::Log* log) {
  trace_ = sink;
  log_ = log;
  if (registry != nullptr) {
    built_counter_ = &registry->counter("sessions_built");
    occupancy_gauge_ = &registry->gauge("sessions_cached");
    warm_histogram_ = &registry->histogram("session_warm_us");
    build_histogram_ = &registry->histogram("interpolant_build_us");
  }
}

std::shared_ptr<const Session> SessionCache::acquire(const SessionKey& key) {
  const std::string canonical = key.canonical();
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find_if(
      sessions_.begin(), sessions_.end(), [&](const auto& session) {
        return session->canonical() == canonical;
      });
  if (it != sessions_.end()) {
    auto session = *it;
    sessions_.erase(it);
    sessions_.insert(sessions_.begin(), session);  // MRU to the front
    return session;
  }
  // A miss is the expensive path worth a span: session_warm covers the
  // whole build (library generation + model + interpolant), with the
  // interpolant_build span nested inside by the Session ctor.
  obs::Span span(trace_, "session_warm", "session");
  span.arg("session", canonical);
  const auto t0 = std::chrono::steady_clock::now();
  auto session = std::make_shared<const Session>(
      key, interpolant_knots_, n_threads_, trace_, build_histogram_);
  if (warm_histogram_ != nullptr) warm_histogram_->observe(us_since(t0));
  if (built_counter_ != nullptr) built_counter_->add(1);
  obs::LogEvent(log_, obs::LogLevel::Info, "session.built")
      .str("session", canonical)
      .num("cached", static_cast<std::int64_t>(sessions_.size() + 1));
  sessions_.insert(sessions_.begin(), session);
  if (sessions_.size() > capacity_) {
    obs::LogEvent(log_, obs::LogLevel::Info, "session.evicted")
        .str("session", sessions_.back()->canonical())
        .num("capacity", static_cast<std::int64_t>(capacity_));
    sessions_.pop_back();
  }
  if (occupancy_gauge_ != nullptr) {
    occupancy_gauge_->set(static_cast<std::int64_t>(sessions_.size()));
  }
  ++built_;
  return session;
}

std::size_t SessionCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

std::uint64_t SessionCache::sessions_built() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return built_;
}

std::vector<std::vector<std::size_t>> group_by_session(
    std::span<const FlowRequest* const> requests) {
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    groups[session_key(*requests[i]).canonical()].push_back(i);
  }
  std::vector<std::vector<std::size_t>> out;
  out.reserve(groups.size());
  for (auto& [canonical, indices] : groups) out.push_back(std::move(indices));
  return out;
}

std::vector<Outcome> evaluate(SessionCache& cache,
                              std::span<const FlowRequest* const> requests,
                              unsigned n_threads, const EvaluateHooks& hooks) {
  CNY_EXPECT(!requests.empty());
  std::vector<Outcome> outcomes(requests.size());
  std::shared_ptr<const Session> session;
  try {
    session = cache.acquire(session_key(*requests.front()));
  } catch (const std::exception& e) {
    for (Outcome& outcome : outcomes) {
      outcome = {"", "internal_error", e.what()};
    }
    return outcomes;
  }
  // Shared design handles pin every request's design for the whole group,
  // across the session's own design-cache eviction.
  std::vector<std::shared_ptr<const netlist::Design>> designs(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    try {
      designs[i] = session->design(requests[i]->design_instances);
    } catch (const std::exception& e) {
      outcomes[i] = {"", "internal_error", e.what()};
    }
  }
  // Request-indexed slots and per-request determinism: scheduling cannot
  // change any outcome. Every request reads the session's one warm table,
  // so an outcome is also invariant under how requests were grouped.
  exec::parallel_for(requests.size(), n_threads, [&](std::size_t i) {
    if (designs[i] == nullptr) return;
    const FlowRequest& request = *requests[i];
    yield::FlowParams params = request.params;
    params.n_threads = n_threads;
    try {
      yield::FlowResult result;
      {
        obs::Span span(hooks.trace, "evaluate", "server");
        if (!request.trace_id.empty()) span.arg("trace_id", request.trace_id);
        const auto t0 = std::chrono::steady_clock::now();
        result = yield::run_flow(session->library(), *designs[i],
                                 session->model(), params);
        if (hooks.evaluate_us != nullptr) {
          hooks.evaluate_us->observe(us_since(t0));
        }
      }
      obs::Span span(hooks.trace, "serialize", "server");
      if (!request.trace_id.empty()) span.arg("trace_id", request.trace_id);
      const auto s0 = std::chrono::steady_clock::now();
      outcomes[i].result_json = to_json(result).dump();
      if (hooks.serialize_us != nullptr) {
        hooks.serialize_us->observe(us_since(s0));
      }
    } catch (const std::exception& e) {
      outcomes[i] = {"", "evaluation_failed", e.what()};
    }
  });
  return outcomes;
}

std::vector<Outcome> evaluate_grouped(
    SessionCache& cache, std::span<const FlowRequest* const> requests,
    unsigned n_threads) {
  std::vector<Outcome> outcomes(requests.size());
  for (const auto& indices : group_by_session(requests)) {
    std::vector<const FlowRequest*> group;
    group.reserve(indices.size());
    for (const std::size_t i : indices) group.push_back(requests[i]);
    std::vector<Outcome> results = evaluate(cache, group, n_threads);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      outcomes[indices[k]] = std::move(results[k]);
    }
  }
  return outcomes;
}

}  // namespace cny::service
