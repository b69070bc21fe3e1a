// Wire protocol for the yield service (server.h / client.h).
//
// Every message is one length-framed JSON payload:
//
//   bytes  0-3   magic "CNYS"
//   bytes  4-7   protocol version, uint32 little-endian (kProtocolVersion)
//   bytes  8-11  frame type,       uint32 little-endian (FrameType)
//   bytes 12-15  payload length,   uint32 little-endian (<= kMaxPayloadBytes)
//   bytes 16-    payload: UTF-8 JSON
//
// Malformed input never crashes the peer: a frame that fails any header
// check or whose payload fails to parse/validate is answered with an Error
// frame ({"error":{"code":...,"message":...}}) and, on a socket, the
// connection is closed (framing cannot be trusted past a bad header).
//
// Serialization is canonical — fixed key order, shortest round-trip number
// tokens (see json.h) — so serialize→parse→serialize is byte-stable and a
// FlowResult crosses the wire bit-exactly. The request deliberately carries
// only the determinism-relevant FlowParams subset (yield target, chip M,
// process geometry, MC budget, seed, streams): scheduling knobs like
// n_threads and the interpolant opt-in belong to the server, so one request
// cannot make two servers disagree.
//
// Protocol v2 adds the scenario engine's fields: a FlowRequest may carry an
// optional "scenario" object ({"shorts":{...},"length":{...},
// "removal":{...}}, members present iff enabled) and a scenario-bearing
// FlowResult echoes the spec plus per-mechanism columns. Both sides omit
// every scenario key when the spec is empty, so an open-only exchange is
// byte-identical to a v1 payload — only the header version differs.
//
// Protocol v3 (0.3.0) adds failure semantics: a FlowRequest may carry an
// optional "deadline_ms" field (a relative deadline from server receipt;
// work already past it is shed with a `deadline_exceeded` error frame
// before evaluation), and error codes are partitioned into *transient*
// (safe to retry: the request was not evaluated, or the condition is
// load-dependent — see is_transient_error) and *terminal* (retrying cannot
// help; deterministic outcomes). The field is omitted when absent, so a
// deadline-less request payload is byte-identical to its 0.2.0 form —
// only the header version differs (pinned in tests).
//
// Protocol v4 (0.4.0) adds observability: a FlowRequest may carry an
// optional "trace_id" field (an opaque client-chosen token <= 64 chars of
// [0-9A-Za-z._-]; the server attaches it to every span the request
// produces, see obs/trace.h), and a Stats frame is answered with a
// StatsReply carrying the server's canonical-JSON metrics snapshot. Pong
// stays the constant {"version","protocol"} body, so a liveness probe
// costs no metrics work. trace_id is omitted when empty, so an untraced
// request payload is byte-identical to its 0.3.0 form (pinned in tests)
// and campaign FNV request keys never see trace ids. Responses carry no
// trace fields at all: tracing cannot perturb a single response byte.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "service/json.h"
#include "yield/flow.h"

namespace cny::service {

/// The single version constant for the whole front end: the wire header
/// carries kProtocolVersion and `cntyield_cli --version` prints both.
/// v2: scenario fields (ShortFailure / FiniteLength / RemovalFrontier).
/// v3: optional per-request deadline + transient/terminal error taxonomy.
/// v4: optional per-request trace id + Stats/StatsReply frames.
inline constexpr std::uint32_t kProtocolVersion = 4;
/// Human-readable release string the protocol version ships in.
inline constexpr const char kVersionString[] = "0.4.0";

/// A frame violating the wire format (bad magic/version/type, oversized or
/// truncated payload, payload that is not valid JSON of the right shape, or
/// request parameters outside their documented ranges).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FrameType : std::uint32_t {
  FlowRequest = 1,   ///< client -> server: one FlowRequest
  FlowResponse = 2,  ///< server -> client: the FlowResult
  Error = 3,         ///< server -> client: {"error":{code,message}}
  Ping = 4,          ///< client -> server: liveness / version probe
  Pong = 5,          ///< server -> client: {"version","protocol"}
  Shutdown = 6,      ///< client -> server: clean shutdown (acked with Pong)
  Stats = 7,         ///< client -> server: metrics snapshot request
  StatsReply = 8,    ///< server -> client: canonical-JSON metrics snapshot
};

inline constexpr std::size_t kHeaderBytes = 16;
/// No legitimate message is within orders of magnitude of this; anything
/// larger is a framing error or abuse and is rejected before allocation.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

struct FrameHeader {
  FrameType type = FrameType::Error;
  std::uint32_t payload_size = 0;
};

struct Frame {
  FrameType type = FrameType::Error;
  std::string payload;
};

/// One header + payload, ready to write to a socket.
[[nodiscard]] std::string encode_frame(FrameType type,
                                       std::string_view payload);
/// Parses and checks exactly kHeaderBytes of header.
[[nodiscard]] FrameHeader decode_header(std::string_view header);
/// Whole-buffer convenience (the loopback path): header plus exactly the
/// announced payload.
[[nodiscard]] Frame decode_frame(std::string_view bytes);

/// The process corner a request runs under — also the session-cache key
/// (session_cache.h): requests sharing a ProcessSpec + library share one
/// warm FailureModel.
struct ProcessSpec {
  double pitch_mean_nm = 4.0;  ///< μ_S
  double pitch_cv = 0.9;       ///< σ_S/μ_S
  double p_metallic = 0.33;    ///< p_m
  double p_remove_s = 0.30;    ///< p_Rs
};

struct FlowRequest {
  /// Generated library to serve against: "nangate45" | "commercial65".
  std::string library = "nangate45";
  /// Synthetic design size; 0 = the OpenRISC-like default design.
  std::uint64_t design_instances = 0;
  ProcessSpec process;
  /// Only the determinism-relevant subset crosses the wire (see file
  /// comment); the rest keeps its FlowParams default.
  yield::FlowParams params;
  /// Relative deadline in ms from server receipt; work already past it is
  /// shed with `deadline_exceeded` before evaluation. 0 = no deadline —
  /// the field is omitted from the wire, keeping the payload byte-
  /// identical to its 0.2.0 form.
  std::uint64_t deadline_ms = 0;
  /// Opaque trace token the server stamps onto this request's spans
  /// (obs/trace.h). Purely observational: it never influences evaluation
  /// or the response. Empty = untraced — the field is omitted from the
  /// wire, keeping the payload byte-identical to its 0.3.0 form (and the
  /// campaign FNV request keys stable across the bump).
  std::string trace_id;
};

struct ServiceErrorInfo {
  std::string code;
  std::string message;
};

// JSON codecs. to_json output is canonical; *_from_json throws
// ProtocolError naming the offending field.
[[nodiscard]] Json to_json(const ProcessSpec& spec);
[[nodiscard]] Json to_json(const scenario::ScenarioSpec& spec);
[[nodiscard]] scenario::ScenarioSpec scenario_from_json(const Json& v);
[[nodiscard]] Json to_json(const yield::FlowParams& params);
[[nodiscard]] Json to_json(const FlowRequest& request);
[[nodiscard]] Json to_json(const yield::FlowResult& result);
[[nodiscard]] ProcessSpec process_from_json(const Json& v);
[[nodiscard]] yield::FlowParams flow_params_from_json(const Json& v);
[[nodiscard]] FlowRequest flow_request_from_json(const Json& v);
[[nodiscard]] yield::FlowResult flow_result_from_json(const Json& v);

// Frame-level conveniences.
[[nodiscard]] std::string encode_flow_request(const FlowRequest& request);
[[nodiscard]] std::string encode_flow_response(
    const yield::FlowResult& result);
[[nodiscard]] std::string encode_error(std::string_view code,
                                       std::string_view message);
[[nodiscard]] ServiceErrorInfo error_from_payload(std::string_view payload);

/// Range-checks a parsed request (yield in (0,1), MC budget within bounds,
/// known library, ...) so one bad request fails alone with a useful message
/// instead of poisoning the coalesced batch it would have joined.
void validate(const FlowRequest& request);

/// The error-code taxonomy (docs/architecture.md "Failure semantics").
/// Transient codes mean the request was *not* evaluated (or the condition
/// is load-dependent) and retrying the identical request is safe and may
/// succeed: "transport" (the client-side catch-all for connection refused /
/// reset / timeout / unparseable response), "server_overloaded" (admission
/// queue full), "try_later" (injected transient reject), "shutting_down"
/// (drain/stop refused the frame), "deadline_exceeded" (shed unevaluated).
/// Every other code — bad_frame, bad_request, unexpected_frame,
/// evaluation_failed, internal_error, malformed_error — is terminal: a
/// deterministic outcome a retry would only repeat. Retry policies
/// (client.h, campaign/runner.h) must consult this one predicate so the
/// store's "error records are terminal" invariant has a single definition.
[[nodiscard]] bool is_transient_error(std::string_view code);

}  // namespace cny::service
