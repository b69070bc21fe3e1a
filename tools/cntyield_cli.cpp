// cntyield_cli — the command-line front end a downstream user drives the
// library with. Subcommands map 1:1 onto the analyses in the paper:
//
//   cntyield_cli pf      [--w=155] [--pm=0.33] [--prs=0.30] [--cv=0.9]
//   cntyield_cli wmin    [--lib=FILE] [--design=FILE] [--yield=0.90]
//                        [--relaxation=1] [--chip-m=1e8]
//   cntyield_cli flow    [--lib=FILE] [--design=FILE] [--yield=0.90]
//                        [--mc-samples=20000] [--streams=16] [--seed=1]
//                        [--scenario=shorts,length,removal + mechanism flags]
//   cntyield_cli scenarios [--points=6] [--selectivity=4.24]
//                        [--prm-lo=0.99] [--prm-hi=0.9999999] [--with-shorts]
//                        [--via-service] (removal-frontier sweep end-to-end;
//                        a thin wrapper over the campaign runner)
//   cntyield_cli campaign --spec=FILE | --axes="path=expr;..."
//                        [--derived="path=expr;..."] [--set="path=v;..."]
//                        [--name=N] [--store=FILE] [--chunk=16]
//                        [--via-service] [--dry-run] [--print-spec]
//                        [--table] [--cache-size=8] [--knots=65]
//                        (general parameter sweeps; resumable store; exit 3
//                        on SIGTERM/SIGINT after checkpointing)
//   cntyield_cli scaling [--relaxation=350] (Fig 2.2b / 3.3 series)
//   cntyield_cli table1  / table2            (paper tables)
//   cntyield_cli align   [--lib=FILE] [--wmin=103] [--rows=1] [--out=FILE]
//   cntyield_cli gen-lib [--which=nangate45|commercial65] --out=FILE
//   cntyield_cli gen-design --lib=FILE --out=FILE [--instances=50000]
//   cntyield_cli serve   [--port=7421] [--threads=N] [--cache-size=4]
//                        [--knots=65] [--max-queue=1024] [--metrics-port=N]
//                        (a lone request is dispatched at once; those
//                        queued while a batch runs form the next batch.
//                        SIGTERM/SIGINT or a Shutdown frame drain
//                        gracefully: queued work finishes, new requests
//                        get `shutting_down`; --metrics-port serves
//                        OpenMetrics `GET /metrics`)
//   cntyield_cli request [--host=127.0.0.1] [--port=7421] [--ping]
//                        [--shutdown] [--library=nangate45|commercial65]
//                        [--instances=0] [--yield=0.90] [--seed=1]
//                        [--retries=0] [--retry-base-ms=10]
//                        [--deadline-ms=0] ...
//                        (--ping prints the constant version Pong)
//   cntyield_cli stats   [--host=127.0.0.1] [--port=7421]
//                        (metrics snapshot of a running server as canonical
//                        JSON: counters, queue gauges, per-stage latency
//                        histograms, and the process-wide thread-pool,
//                        kernel and resource metrics)
//   cntyield_cli top     [--host=127.0.0.1] [--port=7421]
//                        [--interval-ms=1000] [--count=0]
//                        (the same snapshot as tables: polls Stats frames
//                        and renders counter rates, latency quantiles,
//                        session-cache occupancy and the process metrics;
//                        --count=N bounds the run, --count=1 is one table
//                        view for scripts/CI)
//   cntyield_cli --version
//
// Failure semantics (docs/architecture.md): a service failure exits 4
// (transport — could not reach/keep a connection or parse the response)
// or 5 (the server answered with an error frame), each with a one-line
// stderr diagnostic. --retries=N retries *transient* failures up to N
// times with exponential backoff; terminal errors (bad_request, ...) are
// never retried. campaign --via-service takes the same --retries/
// --retry-base-ms, plus a deterministic chaos harness for drills:
// --chaos=drop,delay,reject [--chaos-period=3] [--chaos-seed=1]
// [--chaos-max=0] injects wire faults into the loopback server; transient
// outcomes are retried and never reach the store.
//
// `flow` honours --threads=N (0 = hardware concurrency, the default);
// thread count only changes wall-clock, never the numbers (those depend on
// --seed and --streams only). The table/scaling subcommands keep
// their serial legacy MC loops unchanged.
// --trace=FILE (any subcommand) writes a Chrome-trace-event JSONL of
// observability spans — server stages, session warms, client retry
// attempts, campaign chunks — loadable in Perfetto / chrome://tracing and
// summarised by tools/trace_summary.py. Observational only: every output
// and store byte is identical with or without it (docs/architecture.md,
// "Observability").
// --log-file=FILE [--log-level=debug|info|warn|error] (any subcommand)
// writes a structured JSONL event log — server lifecycle, session
// builds/evictions, overload rejects, deadline sheds, campaign
// checkpoints — one self-contained JSON object per line. Same
// zero-perturbation contract as --trace.
// campaign --progress renders a live progress line on stderr;
// --progress-file=PATH additionally appends one JSON line per checkpoint
// (done/pending, retry rounds, sessions built, ETA) for dashboards.
// Without --lib/--design the built-in synthetic nangate45_like library and
// OpenRISC-like design are used, so every subcommand runs out of the box.
// `serve` starts the batching yield service of src/service/ on 127.0.0.1;
// `request` is its TCP client. Unknown subcommands or flags exit 2 with
// usage — a typo never silently runs with defaults.
//
// Scenario flags (flow / request / scenarios; see scenario/spec.h):
//   --scenario=shorts,length,removal   enable mechanisms (defaults apply)
//   --prm=P --noise-fails=P            ShortFailure parameters
//   --length-mean-um=200 --length-cv=0 --length-devices=16   FiniteLength
//   --selectivity=4.24 --prm-target=0.9999                   RemovalFrontier
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/runner.h"
#include "celllib/generator.h"
#include "celllib/liberty_lite.h"
#include "cnt/removal_tradeoff.h"
#include "exec/thread_pool.h"
#include "experiments/fig2_1.h"
#include "experiments/fig2_2.h"
#include "experiments/table1.h"
#include "experiments/table2.h"
#include "layout/aligned_active.h"
#include "netlist/design_generator.h"
#include "netlist/design_io.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "scenario/engine.h"
#include "service/client.h"
#include "service/server.h"
#include "util/cli.h"
#include "util/contracts.h"
#include "util/strings.h"
#include "util/table.h"
#include "yield/flow.h"

namespace {

using namespace cny;

/// Global trace sink (--trace=FILE), created in main before the subcommand
/// dispatch; null when tracing is off. Commands that host traceable work
/// hand it to their server/client/runner — observational only, so every
/// command's output is invariant under it.
std::shared_ptr<obs::TraceSink> g_trace_sink;

/// Global structured log (--log-file=PATH [--log-level=info]), same
/// lifecycle and contract as the trace sink: observational only, null when
/// logging is off.
std::shared_ptr<obs::Log> g_log;

celllib::Library resolve_library(const util::Cli& cli) {
  if (cli.has("lib")) {
    return celllib::load_liberty_lite(cli.get("lib", ""));
  }
  return celllib::make_nangate45_like();
}

netlist::Design resolve_design(const util::Cli& cli,
                               const celllib::Library& lib) {
  if (cli.has("design")) {
    return netlist::load_design(cli.get("design", ""), lib);
  }
  return netlist::make_openrisc_like(lib);
}

device::FailureModel resolve_model(const util::Cli& cli) {
  cnt::ProcessParams process;
  process.p_metallic = cli.get_double("pm", 0.33);
  process.p_remove_s = cli.get_double("prs", 0.30);
  return device::FailureModel(
      cnt::PitchModel(cli.get_double("pitch-mean", 4.0),
                      cli.get_double("cv", 0.9)),
      process);
}

int cmd_pf(const util::Cli& cli) {
  const auto model = resolve_model(cli);
  const double w = cli.get_double("w", 155.0);
  std::printf("p_f per CNT = %.4f\np_F(%.1f nm) = %.4e\n",
              model.p_fail_per_cnt(), w, model.p_f(w));
  return 0;
}

int cmd_wmin(const util::Cli& cli) {
  const auto lib = resolve_library(cli);
  const auto design = resolve_design(cli, lib);
  const auto model = resolve_model(cli);

  auto spectrum = design.width_spectrum();
  const double chip_m = cli.get_double("chip-m", 1e8);
  spectrum = yield::scale_spectrum(
      spectrum, 1.0, chip_m / double(design.n_transistors()));

  yield::WminRequest req;
  req.yield_desired = cli.get_double("yield", 0.90);
  req.relaxation = cli.get_double("relaxation", 1.0);
  const auto res = yield::solve_w_min(spectrum, model, req);
  std::printf("design %s on %s (scaled to M = %.3g)\n", design.name().c_str(),
              lib.name().c_str(), chip_m);
  std::printf("W_min = %.2f nm  (p_F* = %.3e, M_min = %llu, %d iterations, "
              "%d p_F queries)\n",
              res.w_min, res.p_f_target,
              static_cast<unsigned long long>(res.m_min), res.iterations,
              res.p_f_queries);
  std::printf("verification: chip yield at W_min = %.4f\n",
              yield::circuit_yield(spectrum, model, res.w_min).yield_exact);
  return 0;
}

unsigned resolve_threads(const util::Cli& cli) {
  const long t = cli.get_long("threads", 0);
  return t <= 0 ? 0u : static_cast<unsigned>(t);
}

/// Range-checked numeric flag: out-of-range values must fail loudly (same
/// policy as unknown flags), not truncate — --port=74310 silently binding
/// port 8774 would be a debugging trap.
long require_long_in(const util::Cli& cli, const std::string& name,
                     long fallback, long lo, long hi) {
  const long v = cli.get_long(name, fallback);
  CNY_EXPECT_MSG(v >= lo && v <= hi,
                 "--" + name + " must be in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
  return v;
}

yield::FlowParams resolve_flow_params(const util::Cli& cli) {
  yield::FlowParams params;
  params.yield_desired = cli.get_double("yield", params.yield_desired);
  params.chip_transistors =
      cli.get_double("chip-m", params.chip_transistors);
  params.mc_samples = static_cast<std::size_t>(
      cli.get_long("mc-samples", static_cast<long>(params.mc_samples)));
  params.seed = static_cast<std::uint64_t>(cli.get_long("seed", 1));
  params.n_threads = resolve_threads(cli);
  const long streams =
      cli.get_long("streams", static_cast<long>(params.mc_streams));
  params.mc_streams = streams < 1 ? 1u : static_cast<unsigned>(streams);
  // Scenario selection + per-mechanism overrides. Validation (shared with
  // run_flow and the service decoder) happens when the flow runs.
  if (cli.has("scenario")) {
    params.scenario = scenario::spec_from_names(cli.get("scenario", ""));
  }
  if (params.scenario.shorts) {
    auto& shorts = *params.scenario.shorts;
    shorts.p_rm = cli.get_double("prm", shorts.p_rm);
    shorts.p_noise_fails = cli.get_double("noise-fails", shorts.p_noise_fails);
  }
  if (params.scenario.length) {
    auto& length = *params.scenario.length;
    length.mean = cli.get_double("length-mean-um", length.mean / 1000.0) * 1000.0;
    length.cv = cli.get_double("length-cv", length.cv);
    // Range-checked here (not just in scenario::validate) so a value that
    // would wrap through the int cast fails instead of truncating.
    length.sample_devices = static_cast<int>(
        require_long_in(cli, "length-devices", length.sample_devices, 2, 22));
  }
  if (params.scenario.removal) {
    auto& removal = *params.scenario.removal;
    removal.selectivity = cli.get_double("selectivity", removal.selectivity);
    removal.p_rm_target = cli.get_double("prm-target", removal.p_rm_target);
  }
  return params;
}

int cmd_flow(const util::Cli& cli) {
  const auto lib = resolve_library(cli);
  const auto design = resolve_design(cli, lib);
  const auto model = resolve_model(cli);
  const auto params = resolve_flow_params(cli);
  const auto t0 = std::chrono::steady_clock::now();
  obs::Span span(g_trace_sink.get(), "flow", "cli");
  const auto res = yield::run_flow(lib, design, model, params);
  span.finish();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  std::cout << res.summary_table().to_text();
  std::printf(
      "%lld ms on %u thread(s), %u MC stream(s), seed %llu "
      "(numbers depend on seed+streams only)\n",
      static_cast<long long>(ms),
      params.n_threads == 0 ? exec::hardware_threads() : params.n_threads,
      params.mc_streams, static_cast<unsigned long long>(params.seed));
  return 0;
}

/// The FlowRequest `request` sends and the sweep subcommands start from:
/// library, design size, process corner and FlowParams resolved from the
/// familiar flags.
service::FlowRequest resolve_flow_request(const util::Cli& cli) {
  service::FlowRequest request;
  request.library = cli.get("library", request.library);
  // Same policy as unknown flags: a typo'd library must fail loudly on
  // both evaluation paths, not silently sweep the default; the instance
  // count gets the same bound the server enforces, so a negative value
  // cannot wrap into an absurd design generation on the direct path.
  CNY_EXPECT_MSG(
      request.library == "nangate45" || request.library == "commercial65",
      "--library must be \"nangate45\" or \"commercial65\"");
  request.design_instances = static_cast<std::uint64_t>(
      require_long_in(cli, "instances", 0, 0, 2'000'000));
  request.process.pitch_mean_nm =
      cli.get_double("pitch-mean", request.process.pitch_mean_nm);
  request.process.pitch_cv = cli.get_double("cv", request.process.pitch_cv);
  request.process.p_metallic =
      cli.get_double("pm", request.process.p_metallic);
  request.process.p_remove_s =
      cli.get_double("prs", request.process.p_remove_s);
  request.params = resolve_flow_params(cli);
  return request;
}

/// Removal-frontier sweep end-to-end: every point targets one p_Rm on the
/// probit frontier, earns its p_Rs (and, with --with-shorts, pays the
/// short-mode tax at that same p_Rm), and runs the whole strategy flow.
/// Since PR 6 this is a thin wrapper over the campaign runner — the
/// hardcoded sweep is the campaign spec
///
///   {"name":"removal-frontier",
///    "base":{...flags..., "scenario.removal.selectivity":S},
///    "axes":[{"name":"prm","param":"scenario.removal.p_rm_target",
///             "values":"probit:LO:HI:N"}]}
///
/// compiled and executed in memory (the probit sweep form is bit-identical
/// to cnt::RemovalTradeoff::frontier, asserted below). --via-service
/// routes the campaign through an in-process YieldServer's loopback path —
/// the full protocol (decode, validate, session cache on the derived
/// corner, coalesce, encode) with no socket; infeasible points come back
/// as error records and render as "infeasible" rows instead of aborting
/// the sweep.
int cmd_scenarios(const util::Cli& cli) {
  const double selectivity = cli.get_double("selectivity", 4.24);
  const int points = static_cast<int>(require_long_in(cli, "points", 6, 2, 200));
  const double prm_lo = cli.get_double("prm-lo", 0.99);
  const double prm_hi = cli.get_double("prm-hi", 0.9999999);
  CNY_EXPECT_MSG(prm_lo > 0.0 && prm_lo < prm_hi && prm_hi < 1.0,
                 "--prm-lo/--prm-hi must satisfy 0 < lo < hi < 1");
  const cnt::RemovalTradeoff tradeoff(selectivity);
  const auto frontier = tradeoff.frontier(prm_lo, prm_hi, points);

  campaign::CampaignSpec spec;
  spec.name = "removal-frontier";
  spec.base = resolve_flow_request(cli);
  if (cli.has("with-shorts") && !spec.base.params.scenario.shorts) {
    spec.base.params.scenario.shorts.emplace();
    spec.base.params.scenario.shorts->p_noise_fails = cli.get_double(
        "noise-fails", spec.base.params.scenario.shorts->p_noise_fails);
  }
  const bool with_shorts = spec.base.params.scenario.shorts.has_value();
  spec.base.params.scenario.removal =
      scenario::RemovalFrontier{selectivity, prm_lo};
  spec.axes.push_back(
      {"prm", "scenario.removal.p_rm_target",
       "probit:" + service::Json::number(prm_lo).dump() + ":" +
           service::Json::number(prm_hi).dump() + ":" +
           std::to_string(points)});

  const double p_metallic = spec.base.process.p_metallic;
  const auto compiled = campaign::compile(spec);
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    // The campaign probit axis must reproduce the frontier ladder bit for
    // bit — the "one sweep path, not two" guarantee.
    CNY_EXPECT_MSG(compiled[i].axis_values[0] == frontier[i].p_rm,
                   "campaign probit axis diverged from the removal frontier");
  }

  campaign::ResultStore store;  // in-memory: scenarios renders, never resumes
  campaign::RunnerOptions options;
  options.n_threads = resolve_threads(cli);
  options.checkpoint_every = 0;
  options.via_service = cli.has("via-service");
  options.cache_capacity = compiled.size();
  options.trace_sink = g_trace_sink;
  options.log = g_log;
  const auto t0 = std::chrono::steady_clock::now();
  const auto stats = campaign::run_campaign(compiled, store, options);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

  std::vector<std::optional<yield::FlowResult>> results(compiled.size());
  std::vector<std::string> errors(compiled.size());
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    const campaign::StoreRecord* record = store.find(compiled[i].key);
    CNY_EXPECT_MSG(record != nullptr, "campaign left a point unevaluated");
    if (record->error_code.empty()) {
      results[i] = service::flow_result_from_json(
          service::Json::parse(record->result_json));
    } else {
      errors[i] = record->error_message;
    }
  }

  util::Table t(std::string("Removal-frontier sweep, aligned-active 1 row "
                            "(selectivity ") +
                util::format_sig(selectivity, 3) + " sigma" +
                (with_shorts ? ", short mode at the swept p_Rm)" : ")"));
  std::vector<std::string> header = {"p_Rm", "p_Rs (earned)", "p_f per CNT",
                                     "W_min (nm)", "power penalty"};
  if (with_shorts) {
    header.push_back("Y_short");
    header.push_back("req p_Rm");
  }
  header.push_back("status");
  t.header(std::move(header));
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    const double p_fail =
        p_metallic + (1.0 - p_metallic) * frontier[i].p_rs;
    t.begin_row()
        .cell(util::format_sig(frontier[i].p_rm, 8))
        .cell(util::format_pct(frontier[i].p_rs))
        .num(p_fail, 3);
    if (results[i]) {
      const auto& r = results[i]->get(yield::Strategy::AlignedOneRow);
      t.num(r.w_min, 4).cell(util::format_pct(r.power_penalty));
      if (with_shorts) {
        t.cell(util::format_sig(r.short_mode_yield, 6))
            .cell(util::format_sig(r.required_p_rm, 8));
      }
      t.cell("ok");
    } else {
      t.cell("-").cell("-");
      if (with_shorts) t.cell("-").cell("-");
      t.cell("infeasible");
    }
  }
  std::cout << t.to_text();
  std::printf("%zu frontier points in %lld ms (%s, %llu derived-corner "
              "sessions warmed)\n",
              compiled.size(), static_cast<long long>(ms),
              options.via_service ? "campaign runner, service loopback"
                                  : "campaign runner, direct",
              static_cast<unsigned long long>(stats.sessions_built));
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (!errors[i].empty()) {
      std::printf("  point %zu (p_Rm = %s): %s\n", i + 1,
                  util::format_sig(frontier[i].p_rm, 8).c_str(),
                  errors[i].c_str());
    }
  }
  return 0;
}

/// Campaign interrupt flag — SIGTERM/SIGINT checkpoint the store and exit 3
/// (async-signal-safe: the handler only sets the flag; the runner polls it
/// between chunks).
volatile std::sig_atomic_t g_campaign_interrupted = 0;

/// Serve interrupt flag — SIGTERM/SIGINT trigger a graceful drain (finish
/// queued work, refuse new frames) instead of killing in-flight batches.
volatile std::sig_atomic_t g_serve_interrupted = 0;

/// Shared retry flags (request / campaign --via-service): --retries=N adds
/// N transient-failure retries on top of the first attempt.
service::RetryPolicy resolve_retry_policy(const util::Cli& cli) {
  service::RetryPolicy retry;
  retry.max_attempts = 1 + static_cast<unsigned>(
                               require_long_in(cli, "retries", 0, 0, 1000));
  retry.backoff_base_ms = static_cast<unsigned>(
      require_long_in(cli, "retry-base-ms", 10, 1, 60'000));
  // A base above the default cap would otherwise be silently clamped.
  retry.backoff_max_ms = std::max(retry.backoff_max_ms, retry.backoff_base_ms);
  retry.jitter_seed = static_cast<std::uint64_t>(
      cli.get_long("seed", 1));
  return retry;
}

/// "key=value;key=value" pairs (';'-separated so sweep expressions keep
/// their commas), split at the FIRST '=' so values may contain '='.
std::vector<std::pair<std::string, std::string>> parse_pairs(
    const std::string& text, const std::string& flag) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& entry : util::split(text, ';')) {
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    CNY_EXPECT_MSG(eq != std::string::npos && eq > 0,
                   "--" + flag + ": entry '" + entry +
                       "' is not of the form key=value");
    out.emplace_back(entry.substr(0, eq), entry.substr(eq + 1));
  }
  return out;
}

/// General parameter-sweep campaigns over the flow (docs/architecture.md
/// "Campaign runner"): a spec (JSON file via --spec, or built inline from
/// --axes/--derived/--set plus the familiar base flags) compiles into a
/// deterministic stream of FlowRequests; finished points land in a
/// resumable JSONL store (--store) keyed by the canonical-request hash, so
/// a killed campaign resumes where it stopped and re-running a finished
/// one evaluates nothing.
int cmd_campaign(const util::Cli& cli) {
  campaign::CampaignSpec spec;
  if (cli.has("spec")) {
    CNY_EXPECT_MSG(
        !cli.has("axes") && !cli.has("derived") && !cli.has("name"),
        "--spec is authoritative: use --set for base overrides, not "
        "--axes/--derived/--name");
    spec = campaign::load_campaign(cli.get("spec", ""));
  } else {
    spec.name = cli.get("name", "campaign");
    spec.base = resolve_flow_request(cli);
    for (const auto& [param, expr] : parse_pairs(cli.get("axes", ""), "axes")) {
      spec.axes.push_back({"", param, expr});
    }
    for (const auto& [param, expr] :
         parse_pairs(cli.get("derived", ""), "derived")) {
      spec.derived.push_back({"", param, expr});
    }
  }
  for (const auto& [path, value] : parse_pairs(cli.get("set", ""), "set")) {
    campaign::set_param(spec.base, path, util::parse_double(value));
  }

  const auto compiled = campaign::compile(spec);
  if (cli.has("print-spec")) {
    std::printf("%s\n", campaign::to_json(spec).dump().c_str());
    return 0;
  }

  // Distinct derived corners = sessions an uninterrupted run warms.
  std::vector<std::string> corners;
  for (const auto& point : compiled) {
    const std::string corner = service::session_key(point.request).canonical();
    if (std::find(corners.begin(), corners.end(), corner) == corners.end()) {
      corners.push_back(corner);
    }
  }

  const std::string store_path = cli.get("store", "");
  campaign::ResultStore store =
      store_path.empty() ? campaign::ResultStore()
                         : campaign::ResultStore(store_path);
  std::size_t stored = 0;
  for (const auto& point : compiled) {
    if (store.contains(point.key)) stored += 1;
  }
  std::printf("campaign '%s': %zu points over %zu axes, %zu derived "
              "corner(s), %zu already stored\n",
              spec.name.c_str(), compiled.size(), spec.axes.size(),
              corners.size(), stored);
  if (cli.has("dry-run")) return 0;

  campaign::RunnerOptions options;
  options.n_threads = resolve_threads(cli);
  options.checkpoint_every = static_cast<std::size_t>(
      require_long_in(cli, "chunk", 16, 0, 1'000'000));
  options.via_service = cli.has("via-service");
  options.cache_capacity = static_cast<std::size_t>(
      require_long_in(cli, "cache-size", 8, 1, 1024));
  options.interpolant_knots = static_cast<std::size_t>(require_long_in(
      cli, "knots", 65, 4, 100000));
  options.retry = resolve_retry_policy(cli);
  if (cli.has("chaos")) {
    // Deterministic fault drill: the loopback server breaks the wire on a
    // seeded schedule while the runner retries through it. Only meaningful
    // where there is a wire to break.
    CNY_EXPECT_MSG(options.via_service,
                   "--chaos requires --via-service (faults are injected "
                   "into the loopback server)");
    service::FaultPlanOptions fault_options;
    fault_options.faults =
        service::fault_specs_from_names(cli.get("chaos", ""));
    fault_options.period = static_cast<unsigned>(
        require_long_in(cli, "chaos-period", 3, 2, 1'000'000));
    fault_options.seed =
        static_cast<std::uint64_t>(cli.get_long("chaos-seed", 1));
    fault_options.max_faults = static_cast<std::uint64_t>(
        require_long_in(cli, "chaos-max", 0, 0, 1'000'000'000));
    options.fault_plan =
        std::make_shared<service::FaultPlan>(fault_options);
  }
  options.trace_sink = g_trace_sink;
  options.log = g_log;
  options.progress_path = cli.get("progress-file", "");
  g_campaign_interrupted = 0;
  std::signal(SIGTERM, [](int) { g_campaign_interrupted = 1; });
  std::signal(SIGINT, [](int) { g_campaign_interrupted = 1; });
  options.interrupted = [] { return g_campaign_interrupted != 0; };
  const auto t0 = std::chrono::steady_clock::now();
  if (cli.has("progress")) {
    // Live single-line progress: percentage + rate-extrapolated ETA,
    // redrawn in place on stderr at every checkpoint.
    options.progress = [t0](std::size_t done, std::size_t pending) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - t0)
              .count();
      const long long eta =
          done == 0 ? 0
                    : static_cast<long long>(
                          static_cast<double>(elapsed) *
                          static_cast<double>(pending - done) /
                          static_cast<double>(done));
      std::fprintf(stderr, "\r  %zu/%zu points (%.0f%%), eta %lld.%01llds ",
                   done, pending,
                   100.0 * static_cast<double>(done) /
                       static_cast<double>(pending == 0 ? 1 : pending),
                   eta / 1000, static_cast<unsigned long long>(eta % 1000 / 100));
      if (done == pending) std::fputc('\n', stderr);
      std::fflush(stderr);
    };
  } else {
    options.progress = [](std::size_t done, std::size_t pending) {
      std::fprintf(stderr, "  checkpoint %zu/%zu\n", done, pending);
    };
  }

  const auto stats = campaign::run_campaign(compiled, store, options);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);

  if (cli.has("table")) {
    util::Table t("Campaign '" + spec.name + "' (aligned-active, 1 row)");
    std::vector<std::string> header = {"#"};
    for (const auto& axis : spec.axes) {
      header.push_back(axis.name.empty() ? axis.param : axis.name);
    }
    header.insert(header.end(), {"W_min (nm)", "power penalty", "status"});
    t.header(std::move(header));
    for (const auto& point : compiled) {
      const campaign::StoreRecord* record = store.find(point.key);
      auto& row = t.begin_row().cell(std::to_string(point.index));
      for (const double v : point.axis_values) {
        row.cell(service::Json::number(v).dump());
      }
      if (record == nullptr) {
        row.cell("-").cell("-").cell("pending");
      } else if (record->error_code.empty()) {
        const auto result = service::flow_result_from_json(
            service::Json::parse(record->result_json));
        const auto& r = result.get(yield::Strategy::AlignedOneRow);
        row.num(r.w_min, 4)
            .cell(util::format_pct(r.power_penalty))
            .cell("ok");
      } else {
        row.cell("-").cell("-").cell(record->error_code);
      }
    }
    std::cout << t.to_text();
  }

  std::printf("%zu evaluated + %zu failed + %zu skipped of %zu points in "
              "%lld ms (%s, %llu sessions warmed%s)\n",
              stats.evaluated, stats.failed, stats.skipped, stats.total,
              static_cast<long long>(ms),
              options.via_service ? "service loopback" : "direct",
              static_cast<unsigned long long>(stats.sessions_built),
              store_path.empty() ? ", in-memory store" : "");
  if (stats.interrupted) {
    std::printf("interrupted: %zu points still pending in '%s' — re-run "
                "the same command to resume\n",
                stats.total - store.size(),
                store_path.empty() ? "<memory>" : store_path.c_str());
    return 3;
  }
  return 0;
}

int cmd_align(const util::Cli& cli) {
  const auto lib = resolve_library(cli);
  layout::AlignOptions options;
  options.w_min = cli.get_double("wmin", 103.0);
  options.rows_per_polarity =
      static_cast<int>(require_long_in(cli, "rows", 1, 1, 2));
  const double spacing =
      cli.get_double("spacing", lib.node_nm() >= 60.0 ? 200.0 : 140.0);
  const auto res = layout::align_active(lib, options, spacing);
  std::printf("%zu of %zu cells widened (%.1f%% - %.1f%%), area +%.2f%%\n",
              res.cells_with_penalty(), lib.size(),
              100.0 * res.min_penalty(), 100.0 * res.max_penalty(),
              100.0 * res.area_increase());
  if (cli.has("out")) {
    celllib::save_liberty_lite(res.library, cli.get("out", ""));
    std::printf("wrote %s\n", cli.get("out", "").c_str());
  }
  return 0;
}

int cmd_gen_lib(const util::Cli& cli) {
  const std::string which = cli.get("which", "nangate45");
  const auto lib = which == "commercial65" ? celllib::make_commercial65_like()
                                           : celllib::make_nangate45_like();
  const std::string out = cli.get("out", lib.name() + ".lib");
  celllib::save_liberty_lite(lib, out);
  std::printf("wrote %s (%zu cells)\n", out.c_str(), lib.size());
  return 0;
}

int cmd_gen_design(const util::Cli& cli) {
  const auto lib = resolve_library(cli);
  const auto design = netlist::generate_design(
      "generated", lib,
      static_cast<std::uint64_t>(
          require_long_in(cli, "instances", 50000, 1, 2'000'000'000)),
      {});
  const std::string out = cli.get("out", "design.txt");
  netlist::save_design(design, out);
  std::printf("wrote %s (%llu instances, %llu transistors)\n", out.c_str(),
              static_cast<unsigned long long>(design.n_instances()),
              static_cast<unsigned long long>(design.n_transistors()));
  return 0;
}

int cmd_serve(const util::Cli& cli) {
  service::ServerOptions options;
  options.listen = true;
  options.port = static_cast<std::uint16_t>(
      require_long_in(cli, "port", 7421, 1, 65535));
  // Continuous telemetry (off by default; docs/architecture.md,
  // "Continuous telemetry"): --metrics-port=N serves `GET /metrics`
  // (OpenMetrics text) on 127.0.0.1:N.
  if (cli.has("metrics-port")) {
    options.metrics_listen = true;
    options.metrics_port = static_cast<std::uint16_t>(
        require_long_in(cli, "metrics-port", 0, 0, 65535));
  }
  options.log = g_log;
  options.n_threads = resolve_threads(cli);
  options.cache_capacity = static_cast<std::size_t>(require_long_in(
      cli, "cache-size", static_cast<long>(options.cache_capacity), 1, 1024));
  options.interpolant_knots = static_cast<std::size_t>(require_long_in(
      cli, "knots", static_cast<long>(options.interpolant_knots), 4, 100000));
  options.max_queue = static_cast<std::size_t>(require_long_in(
      cli, "max-queue", static_cast<long>(options.max_queue), 1, 1'000'000));
  options.trace_sink = g_trace_sink;
  service::YieldServer server(options);
  server.start();
  std::printf(
      "cntyield_cli %s serving on 127.0.0.1:%u (protocol v%u, %zu warm "
      "sessions cached, %zu-deep admission queue)\n",
      service::kVersionString, server.port(), service::kProtocolVersion,
      options.cache_capacity, options.max_queue);
  if (options.metrics_listen) {
    std::printf("metrics: GET http://127.0.0.1:%u/metrics (OpenMetrics)\n",
                server.metrics_port());
  }
  std::fflush(stdout);
  // SIGTERM/SIGINT and a Shutdown frame share the same exit: a graceful
  // drain. The handler only sets a flag; the bounded wait below polls it,
  // because a signal handler cannot safely poke a condition variable.
  g_serve_interrupted = 0;
  std::signal(SIGTERM, [](int) { g_serve_interrupted = 1; });
  std::signal(SIGINT, [](int) { g_serve_interrupted = 1; });
  while (!server.wait_shutdown_for(200)) {
    if (g_serve_interrupted != 0) {
      std::printf("signal received: draining (queued work finishes, new "
                  "requests get shutting_down)\n");
      std::fflush(stdout);
      break;
    }
  }
  server.drain();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  // The same canonical JSON a Stats frame / `cntyield_cli stats` returns,
  // so the last log line of every server is machine-readable.
  std::printf("shutting down: %s\n", server.stats_json().c_str());
  return 0;
}

/// `stats` — one Stats frame to a running server, printed as canonical
/// JSON: the same payload the server logs at shutdown.
int cmd_stats(const util::Cli& cli) {
  service::YieldClient client(
      cli.get("host", "127.0.0.1"),
      static_cast<std::uint16_t>(require_long_in(cli, "port", 7421, 1, 65535)));
  client.set_retry_policy(resolve_retry_policy(cli));
  client.set_trace_sink(g_trace_sink.get());
  std::printf("%s\n", client.stats().c_str());
  return 0;
}

/// `top` — the table view of the stats payload: polls Stats frames every
/// --interval-ms and renders counters with per-second rates (computed
/// client-side between refreshes), queue/session gauges, per-stage
/// latency, and the process-wide counters and gauges (thread pool,
/// kernels, RSS, CPU, threads). On a TTY each frame redraws in place
/// (ANSI home+clear); piped output emits sequential frames, so a bounded
/// run (--count=N) is scriptable in CI.
int cmd_top(const util::Cli& cli) {
  service::YieldClient client(
      cli.get("host", "127.0.0.1"),
      static_cast<std::uint16_t>(require_long_in(cli, "port", 7421, 1, 65535)));
  client.set_retry_policy(resolve_retry_policy(cli));
  client.set_trace_sink(g_trace_sink.get());
  const unsigned interval_ms = static_cast<unsigned>(
      require_long_in(cli, "interval-ms", 1000, 50, 600'000));
  const long count = require_long_in(cli, "count", 0, 0, 1'000'000);
  const bool redraw = ::isatty(STDOUT_FILENO) != 0;
  std::map<std::string, double> prev_counters;
  auto prev_time = std::chrono::steady_clock::now();
  bool have_prev = false;
  for (long frame = 0; count == 0 || frame < count; ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    const std::string payload = client.stats();
    const auto now = std::chrono::steady_clock::now();
    const double dt_s =
        static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
            now - prev_time)
                                .count()) /
        1e6;
    const service::Json v = service::Json::parse(payload);
    if (redraw) std::printf("\033[H\033[2J");
    std::printf("cntyield top — %s:%ld, cntyield %s protocol v%s  (refresh "
                "%u ms, frame %ld%s)\n",
                cli.get("host", "127.0.0.1").c_str(),
                cli.get_long("port", 7421), v.at("version").as_string().c_str(),
                v.at("protocol").dump().c_str(), interval_ms, frame + 1,
                have_prev ? "" : ", rates warm up next frame");
    std::map<std::string, double> counters;
    {
      util::Table t("Counters");
      t.header({"counter", "value", "rate/s"});
      for (const auto& [name, value] : v.at("stats").members()) {
        const double val = value.as_double();
        counters[name] = val;
        double rate = 0.0;
        if (have_prev && dt_s > 0) {
          const auto it = prev_counters.find(name);
          // A counter that appeared or went backwards (server restart)
          // rates as 0, never negative.
          if (it != prev_counters.end() && val >= it->second) {
            rate = (val - it->second) / dt_s;
          }
        }
        t.begin_row().cell(name).cell(value.dump()).num(rate, 2);
      }
      for (const auto& [name, value] : v.at("gauges").members()) {
        t.begin_row().cell(name + " (gauge)").cell(value.dump()).cell("-");
      }
      std::cout << t.to_text();
    }
    if (!v.at("histograms").members().empty()) {
      util::Table t("Latency");
      t.header({"stage", "count", "mean (us)", "p50 (us)", "p95 (us)",
                "max (us)"});
      for (const auto& [name, h] : v.at("histograms").members()) {
        t.begin_row()
            .cell(name)
            .cell(h.at("count").dump())
            .num(h.at("mean_us").as_double(), 4)
            .num(h.at("p50_us").as_double(), 4)
            .num(h.at("p95_us").as_double(), 4)
            .cell(h.at("max_us").dump());
      }
      std::cout << t.to_text();
    }
    {
      util::Table t("Process");
      t.header({"metric", "value"});
      const service::Json& process = v.at("process");
      for (const auto& [name, value] : process.at("counters").members()) {
        t.begin_row().cell(name).cell(value.dump());
      }
      for (const auto& [name, value] : process.at("gauges").members()) {
        t.begin_row().cell(name + " (gauge)").cell(value.dump());
      }
      std::cout << t.to_text();
    }
    std::fflush(stdout);
    prev_counters = std::move(counters);
    prev_time = now;
    have_prev = true;
  }
  return 0;
}

int cmd_request(const util::Cli& cli) {
  service::YieldClient client(
      cli.get("host", "127.0.0.1"),
      static_cast<std::uint16_t>(require_long_in(cli, "port", 7421, 1, 65535)));
  client.set_retry_policy(resolve_retry_policy(cli));
  client.set_trace_sink(g_trace_sink.get());
  if (cli.has("ping")) {
    std::printf("pong: %s\n", client.ping().c_str());
    return 0;
  }
  if (cli.has("shutdown")) {
    client.shutdown_server();
    std::puts("server acknowledged shutdown");
    return 0;
  }
  service::FlowRequest request = resolve_flow_request(cli);
  request.deadline_ms = static_cast<std::uint64_t>(
      require_long_in(cli, "deadline-ms", 0, 0, 86'400'000));
  // Client-side preflight with the same validator the server runs: a bad
  // value fails here with the identical message, without a round trip.
  service::validate(request);
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = client.call(request);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  std::cout << result.summary_table().to_text();
  std::printf(
      "served in %lld ms (seed %llu, %u MC stream(s); response depends on "
      "the request only, never on batching)\n",
      static_cast<long long>(ms),
      static_cast<unsigned long long>(request.params.seed),
      request.params.mc_streams);
  return 0;
}

int print_version() {
  std::printf("cntyield_cli %s (protocol v%u)\n", service::kVersionString,
              service::kProtocolVersion);
  return 0;
}

int usage() {
  std::puts(
      "usage: cntyield_cli <pf|wmin|flow|scenarios|campaign|scaling|"
      "table1|table2|align|gen-lib|gen-design|serve|request|stats|top> "
      "[flags]\n"
      "       cntyield_cli --version\n"
      "  any command: --trace=FILE writes a Perfetto-loadable span JSONL\n"
      "  any command: --log-file=FILE [--log-level=debug|info|warn|error] "
      "writes a structured JSONL event log\n"
      "  stats: metrics snapshot of a running server as canonical JSON\n"
      "  top: the same snapshot as live tables (--interval-ms=1000, "
      "--count=N for a bounded run)\n"
      "  serve: --metrics-port=N serves GET /metrics (OpenMetrics)\n"
      "  flow/serve: --threads=N (0 = hardware concurrency)\n"
      "  flow/request: --scenario=shorts,length,removal (+ mechanism "
      "flags)\n"
      "  scenarios: removal-frontier sweep end-to-end (--with-shorts, "
      "--via-service)\n"
      "  campaign: general sweeps with a resumable store (--spec/--axes, "
      "--store, --via-service)\n"
      "  serve/request: the batching yield service on 127.0.0.1 (see "
      "docs/architecture.md)\n"
      "  see the header of tools/cntyield_cli.cpp for per-command flags");
  return 2;
}

/// Per-command flag allow-list: an unknown flag is an error, not a silently
/// applied default.
const std::map<std::string, std::vector<std::string>> kCommandFlags = {
    {"pf", {"w", "pm", "prs", "cv", "pitch-mean"}},
    {"wmin",
     {"lib", "design", "yield", "relaxation", "chip-m", "pm", "prs", "cv",
      "pitch-mean"}},
    {"flow",
     {"lib", "design", "yield", "chip-m", "mc-samples", "streams", "seed",
      "threads", "pm", "prs", "cv", "pitch-mean", "scenario", "prm",
      "noise-fails", "length-mean-um", "length-cv", "length-devices",
      "selectivity", "prm-target"}},
    {"scenarios",
     {"points", "selectivity", "prm-lo", "prm-hi", "with-shorts",
      "via-service", "library", "instances", "yield", "chip-m", "mc-samples",
      "streams", "seed", "threads", "pm", "prs", "cv", "pitch-mean",
      "scenario", "prm", "noise-fails", "length-mean-um", "length-cv",
      "length-devices"}},
    {"campaign",
     {"spec", "axes", "derived", "set", "name", "store", "chunk",
      "via-service", "dry-run", "print-spec", "table", "cache-size", "knots",
      "threads", "library", "instances", "yield", "chip-m", "mc-samples",
      "streams", "seed", "pm", "prs", "cv", "pitch-mean", "scenario", "prm",
      "noise-fails", "length-mean-um", "length-cv", "length-devices",
      "selectivity", "prm-target", "retries", "retry-base-ms", "chaos",
      "chaos-period", "chaos-seed", "chaos-max", "progress",
      "progress-file"}},
    {"scaling", {"relaxation"}},
    {"table1", {}},
    {"table2", {}},
    {"align", {"lib", "wmin", "rows", "spacing", "out"}},
    {"gen-lib", {"which", "out"}},
    {"gen-design", {"lib", "out", "instances"}},
    {"serve",
     {"port", "threads", "cache-size", "knots", "max-queue", "metrics-port"}},
    {"top",
     {"host", "port", "interval-ms", "count", "retries", "retry-base-ms",
      "seed"}},
    {"request",
     {"host", "port", "ping", "shutdown", "library", "instances", "yield",
      "chip-m", "mc-samples", "seed", "streams", "pm", "prs", "cv",
      "pitch-mean", "scenario", "prm", "noise-fails", "length-mean-um",
      "length-cv", "length-devices", "selectivity", "prm-target", "retries",
      "retry-base-ms", "deadline-ms"}},
    {"stats", {"host", "port", "retries", "retry-base-ms", "seed"}},
};

/// 0 when `cmd` exists and every flag is known; the exit code otherwise.
int reject_unknown_flags(const util::Cli& cli, const std::string& cmd) {
  const auto it = kCommandFlags.find(cmd);
  if (it == kCommandFlags.end()) {
    std::fprintf(stderr, "error: unknown subcommand '%s'\n", cmd.c_str());
    return usage();
  }
  for (const auto& name : cli.flag_names()) {
    // Global flags, valid for every command.
    if (name == "trace" || name == "log-file" || name == "log-level") {
      continue;
    }
    if (std::find(it->second.begin(), it->second.end(), name) ==
        it->second.end()) {
      std::fprintf(stderr, "error: unknown flag --%s for '%s'\n",
                   name.c_str(), cmd.c_str());
      return usage();
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.positional().empty()) {
    if (cli.has("version")) return print_version();
    return usage();
  }
  const std::string cmd = cli.positional().front();
  if (const int rc = reject_unknown_flags(cli, cmd); rc != 0) return rc;
  // Global tracing switch: --trace=FILE opens the span sink every command
  // hands to its server/client/runner. Observational only — outputs and
  // stores are byte-identical with or without it.
  if (cli.has("trace")) {
    try {
      g_trace_sink =
          std::make_shared<cny::obs::TraceSink>(cli.get("trace", ""));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  // Global structured-log switch, mirroring --trace: --log-file=FILE opens
  // the JSONL event log every command hands to its server/runner/cache;
  // --log-level filters below the given severity. Observational only.
  if (cli.has("log-file")) {
    cny::obs::LogLevel level = cny::obs::LogLevel::Info;
    if (!cny::obs::log_level_from_name(cli.get("log-level", "info"), level)) {
      std::fprintf(stderr,
                   "error: --log-level must be debug, info, warn or error "
                   "(got '%s')\n",
                   cli.get("log-level", "info").c_str());
      return 2;
    }
    try {
      g_log = std::make_shared<cny::obs::Log>(cli.get("log-file", ""), level);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  } else if (cli.has("log-level")) {
    std::fprintf(stderr, "error: --log-level requires --log-file\n");
    return 2;
  }
  const experiments::PaperParams params;
  try {
    if (cmd == "pf") return cmd_pf(cli);
    if (cmd == "wmin") return cmd_wmin(cli);
    if (cmd == "flow") return cmd_flow(cli);
    if (cmd == "scenarios") return cmd_scenarios(cli);
    if (cmd == "campaign") return cmd_campaign(cli);
    if (cmd == "align") return cmd_align(cli);
    if (cmd == "gen-lib") return cmd_gen_lib(cli);
    if (cmd == "gen-design") return cmd_gen_design(cli);
    if (cmd == "serve") return cmd_serve(cli);
    if (cmd == "request") return cmd_request(cli);
    if (cmd == "stats") return cmd_stats(cli);
    if (cmd == "top") return cmd_top(cli);
    if (cmd == "scaling") {
      std::cout << experiments::report_fig3_3(
                       params, cli.get_double("relaxation", 350.0))
                       .render_text();
      return 0;
    }
    if (cmd == "table1") {
      std::cout << experiments::report_table1(params).render_text();
      return 0;
    }
    if (cmd == "table2") {
      std::cout << experiments::report_table2(params).render_text();
      return 0;
    }
  } catch (const service::ServiceError& e) {
    // One line, one taxonomy: exit 4 = the transport failed (nothing
    // definitive was heard from the server), exit 5 = the server answered
    // with an error frame. Scripts can branch on it.
    std::fprintf(stderr, "service error [%s]: %s\n", e.code().c_str(),
                 e.message().c_str());
    return e.code() == "transport" ? 4 : 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
