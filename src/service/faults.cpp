#include "service/faults.h"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "rng/engine.h"
#include "service/protocol.h"
#include "util/strings.h"

namespace cny::service {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::DropBeforeResponse: return "drop";
    case FaultKind::DropAfterResponse: return "drop-after";
    case FaultKind::Delay: return "delay";
    case FaultKind::TruncateResponse: return "truncate";
    case FaultKind::CorruptPayloadByte: return "corrupt";
    case FaultKind::TransientReject: return "reject";
    case FaultKind::SlowLorisResponse: return "slowloris";
  }
  return "unknown";
}

std::vector<FaultSpec> fault_specs_from_names(const std::string& names) {
  // Parameters are harsh enough to break a naive client (framing lost,
  // ms-scale stalls) but fast enough for CI loops.
  std::vector<FaultSpec> out;
  for (const auto& token : util::split(names, ',')) {
    if (token.empty()) continue;
    FaultSpec spec;
    if (token == "drop") {
      spec.kind = FaultKind::DropBeforeResponse;
    } else if (token == "drop-after") {
      spec.kind = FaultKind::DropAfterResponse;
    } else if (token == "delay") {
      spec.kind = FaultKind::Delay;
      spec.delay_ms = 5;
    } else if (token == "truncate") {
      spec.kind = FaultKind::TruncateResponse;
      spec.at_byte = kHeaderBytes + 4;  // header plus a sliver of payload
    } else if (token == "corrupt") {
      spec.kind = FaultKind::CorruptPayloadByte;
      spec.at_byte = 1;
    } else if (token == "reject") {
      spec.kind = FaultKind::TransientReject;
      spec.error_code = "try_later";
    } else if (token == "slowloris") {
      spec.kind = FaultKind::SlowLorisResponse;
      spec.at_byte = 8;  // half a header
      spec.delay_ms = 5;
    } else {
      throw std::invalid_argument(
          "unknown fault '" + token +
          "' (known: drop, drop-after, delay, truncate, corrupt, reject, "
          "slowloris)");
    }
    out.push_back(std::move(spec));
  }
  return out;
}

FaultPlan::FaultPlan(FaultPlanOptions options) : options_(std::move(options)) {
  if (options_.period > 0) {
    std::uint64_t state = options_.seed;
    phase_ = rng::splitmix64(state) % options_.period;
  }
}

std::optional<FaultSpec> FaultPlan::next() {
  if (!enabled()) return std::nullopt;
  const std::uint64_t n = ordinal_.fetch_add(1, std::memory_order_relaxed);
  if ((n % options_.period) != phase_) return std::nullopt;
  if (options_.max_faults > 0) {
    // Claim an injection slot without ever publishing a count above the
    // cap: injected() readers must never observe an overshoot.
    std::uint64_t current = injected_.load(std::memory_order_relaxed);
    do {
      if (current >= options_.max_faults) return std::nullopt;
    } while (!injected_.compare_exchange_weak(current, current + 1,
                                              std::memory_order_relaxed));
  } else {
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  return options_.faults[(n / options_.period) % options_.faults.size()];
}

void apply_response_fault(const FaultSpec& spec, std::string& response) {
  switch (spec.kind) {
    case FaultKind::Delay:
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.delay_ms));
      break;
    case FaultKind::TruncateResponse:
      response.resize(std::min(spec.at_byte, response.size()));
      break;
    case FaultKind::CorruptPayloadByte:
      if (response.size() > kHeaderBytes) {
        // Flip a payload byte; the header still parses, the JSON does not.
        const std::size_t payload = response.size() - kHeaderBytes;
        response[kHeaderBytes + spec.at_byte % payload] ^= 0x20;
      } else if (!response.empty()) {
        response.back() ^= 0x20;
      }
      break;
    case FaultKind::SlowLorisResponse:
      // A partial header that then stalls: what a wedged peer looks like.
      response.resize(std::min(spec.at_byte, kHeaderBytes - 1));
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.delay_ms));
      break;
    case FaultKind::DropAfterResponse:
      // The response was computed, then lost with the connection.
      response.clear();
      break;
    case FaultKind::DropBeforeResponse:
    case FaultKind::TransientReject:
      // Handled before a response string exists (drop / reject paths).
      break;
  }
}

}  // namespace cny::service
