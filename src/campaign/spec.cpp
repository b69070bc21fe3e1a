#include "campaign/spec.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>

#include "campaign/sweep.h"
#include "scenario/engine.h"
#include "util/strings.h"

namespace cny::campaign {

namespace {

using service::FlowRequest;
using service::Json;
using util::excerpt;

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument(what);
}

/// "a, b, c": the known-names list an error message echoes.
std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) out += (out.empty() ? "" : ", ") + n;
  return out;
}

/// Integral field guard: a derived expression landing on 2.5 seeds must
/// fail, not truncate.
std::uint64_t integral(double v, std::string_view path) {
  if (!(v >= 0.0) || v != std::floor(v) || v > 9.007199254740992e15) {
    fail("parameter '" + std::string(path) +
         "' requires a non-negative integer value, got " +
         Json::number(v).dump());
  }
  return static_cast<std::uint64_t>(v);
}

struct ParamEntry {
  const char* path;
  void (*set)(FlowRequest&, double);
  double (*get)(const FlowRequest&);
};

// One table defines the sweepable namespace: path order here is the
// canonical emission order of to_json(CampaignSpec).
const ParamEntry kParams[] = {
    {"instances",
     [](FlowRequest& r, double v) {
       r.design_instances = integral(v, "instances");
     },
     [](const FlowRequest& r) { return double(r.design_instances); }},
    {"process.pitch_mean_nm",
     [](FlowRequest& r, double v) { r.process.pitch_mean_nm = v; },
     [](const FlowRequest& r) { return r.process.pitch_mean_nm; }},
    {"process.pitch_cv",
     [](FlowRequest& r, double v) { r.process.pitch_cv = v; },
     [](const FlowRequest& r) { return r.process.pitch_cv; }},
    {"process.p_metallic",
     [](FlowRequest& r, double v) { r.process.p_metallic = v; },
     [](const FlowRequest& r) { return r.process.p_metallic; }},
    {"process.p_remove_s",
     [](FlowRequest& r, double v) { r.process.p_remove_s = v; },
     [](const FlowRequest& r) { return r.process.p_remove_s; }},
    {"yield",
     [](FlowRequest& r, double v) { r.params.yield_desired = v; },
     [](const FlowRequest& r) { return r.params.yield_desired; }},
    {"chip_m",
     [](FlowRequest& r, double v) { r.params.chip_transistors = v; },
     [](const FlowRequest& r) { return r.params.chip_transistors; }},
    {"mc_samples",
     [](FlowRequest& r, double v) {
       r.params.mc_samples =
           static_cast<std::size_t>(integral(v, "mc_samples"));
     },
     [](const FlowRequest& r) { return double(r.params.mc_samples); }},
    {"seed",
     [](FlowRequest& r, double v) { r.params.seed = integral(v, "seed"); },
     [](const FlowRequest& r) { return double(r.params.seed); }},
    {"streams",
     [](FlowRequest& r, double v) {
       const auto streams = integral(v, "streams");
       if (streams < 1 || streams > 0xFFFFFFFFull) {
         fail("parameter 'streams' must be in [1, 2^32)");
       }
       r.params.mc_streams = static_cast<unsigned>(streams);
     },
     [](const FlowRequest& r) { return double(r.params.mc_streams); }},
    {"scenario.shorts.p_rm",
     [](FlowRequest& r, double v) {
       if (!r.params.scenario.shorts) r.params.scenario.shorts.emplace();
       r.params.scenario.shorts->p_rm = v;
     },
     [](const FlowRequest& r) {
       return r.params.scenario.shorts.value_or(scenario::ShortFailure{})
           .p_rm;
     }},
    {"scenario.shorts.p_noise_fails",
     [](FlowRequest& r, double v) {
       if (!r.params.scenario.shorts) r.params.scenario.shorts.emplace();
       r.params.scenario.shorts->p_noise_fails = v;
     },
     [](const FlowRequest& r) {
       return r.params.scenario.shorts.value_or(scenario::ShortFailure{})
           .p_noise_fails;
     }},
    {"scenario.length.mean",
     [](FlowRequest& r, double v) {
       if (!r.params.scenario.length) r.params.scenario.length.emplace();
       r.params.scenario.length->mean = v;
     },
     [](const FlowRequest& r) {
       return r.params.scenario.length.value_or(scenario::FiniteLength{})
           .mean;
     }},
    {"scenario.length.cv",
     [](FlowRequest& r, double v) {
       if (!r.params.scenario.length) r.params.scenario.length.emplace();
       r.params.scenario.length->cv = v;
     },
     [](const FlowRequest& r) {
       return r.params.scenario.length.value_or(scenario::FiniteLength{}).cv;
     }},
    {"scenario.length.devices",
     [](FlowRequest& r, double v) {
       if (!r.params.scenario.length) r.params.scenario.length.emplace();
       r.params.scenario.length->sample_devices =
           static_cast<int>(integral(v, "scenario.length.devices"));
     },
     [](const FlowRequest& r) {
       return double(r.params.scenario.length.value_or(
           scenario::FiniteLength{}).sample_devices);
     }},
    {"scenario.removal.selectivity",
     [](FlowRequest& r, double v) {
       if (!r.params.scenario.removal) r.params.scenario.removal.emplace();
       r.params.scenario.removal->selectivity = v;
     },
     [](const FlowRequest& r) {
       return r.params.scenario.removal.value_or(scenario::RemovalFrontier{})
           .selectivity;
     }},
    {"scenario.removal.p_rm_target",
     [](FlowRequest& r, double v) {
       if (!r.params.scenario.removal) r.params.scenario.removal.emplace();
       r.params.scenario.removal->p_rm_target = v;
     },
     [](const FlowRequest& r) {
       return r.params.scenario.removal.value_or(scenario::RemovalFrontier{})
           .p_rm_target;
     }},
};

const ParamEntry* find_param(std::string_view path) {
  for (const ParamEntry& entry : kParams) {
    if (path == entry.path) return &entry;
  }
  return nullptr;
}

const ParamEntry& require_param(std::string_view path) {
  const ParamEntry* entry = find_param(path);
  if (entry == nullptr) {
    fail("unknown parameter path '" + excerpt(path) +
         "' (known paths: " + join(param_paths()) + ")");
  }
  return *entry;
}

/// The default $name of an axis/derived entry: the last '.'-segment of its
/// parameter path ("scenario.removal.p_rm_target" -> "p_rm_target").
std::string default_name(std::string_view path) {
  const auto dot = path.rfind('.');
  return std::string(dot == std::string_view::npos ? path
                                                   : path.substr(dot + 1));
}

std::string fmt(double v) { return Json::number(v).dump(); }

}  // namespace

const std::vector<std::string>& param_paths() {
  static const std::vector<std::string> paths = [] {
    std::vector<std::string> out;
    for (const ParamEntry& entry : kParams) out.emplace_back(entry.path);
    return out;
  }();
  return paths;
}

void set_param(service::FlowRequest& request, std::string_view path,
               double value) {
  require_param(path).set(request, value);
}

double get_param(const service::FlowRequest& request, std::string_view path) {
  return require_param(path).get(request);
}

std::string canonical_request(const service::FlowRequest& request) {
  return service::to_json(request).dump();
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string request_key(const service::FlowRequest& request) {
  std::uint64_t h = fnv1a64(canonical_request(request));
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = "0123456789abcdef"[h & 0xF];
    h >>= 4;
  }
  return out;
}

service::Json to_json(const CampaignSpec& spec) {
  Json v = Json::object();
  v.set("name", Json::string(spec.name));
  // Base: the library, the enabled-mechanism list, then every numeric
  // parameter that differs from its (mechanism-default-aware) default —
  // so dump(parse(dump)) is byte-stable and a default base is just
  // {"library":"nangate45"}.
  Json base = Json::object();
  base.set("library", Json::string(spec.base.library));
  const std::string mechanisms = scenario::names(spec.base.params.scenario);
  if (!mechanisms.empty()) base.set("scenario", Json::string(mechanisms));
  service::FlowRequest defaults;
  defaults.library = spec.base.library;
  defaults.params.scenario = scenario::spec_from_names(mechanisms);
  for (const std::string& path : param_paths()) {
    const double value = get_param(spec.base, path);
    if (value != get_param(defaults, path)) {
      base.set(path, Json::number(value));
    }
  }
  v.set("base", std::move(base));
  Json axes = Json::array();
  for (const Axis& axis : spec.axes) {
    Json a = Json::object();
    a.set("name", Json::string(axis.name.empty() ? default_name(axis.param)
                                                 : axis.name));
    a.set("param", Json::string(axis.param));
    a.set("values", Json::string(axis.values));
    axes.push_back(std::move(a));
  }
  v.set("axes", std::move(axes));
  if (!spec.derived.empty()) {
    Json derived = Json::array();
    for (const DerivedParam& d : spec.derived) {
      Json e = Json::object();
      e.set("name",
            Json::string(d.name.empty() ? default_name(d.param) : d.name));
      e.set("param", Json::string(d.param));
      e.set("expr", Json::string(d.expr));
      derived.push_back(std::move(e));
    }
    v.set("derived", std::move(derived));
  }
  return v;
}

CampaignSpec campaign_from_json(const service::Json& v) {
  try {
    CampaignSpec spec;
    spec.name = v.at("name").as_string();
    if (const Json* base = v.find("base")) {
      // Two passes: "library"/"scenario" first so a numeric scenario.*
      // override lands on an already-enabled mechanism block regardless of
      // member order.
      for (const auto& [key, value] : base->members()) {
        if (key == "library") {
          spec.base.library = value.as_string();
        } else if (key == "scenario") {
          spec.base.params.scenario =
              scenario::spec_from_names(value.as_string());
        }
      }
      for (const auto& [key, value] : base->members()) {
        if (key == "library" || key == "scenario") continue;
        set_param(spec.base, key, value.as_double());
      }
    }
    for (const Json& a : v.at("axes").items()) {
      Axis axis;
      axis.param = a.at("param").as_string();
      axis.values = a.at("values").as_string();
      if (const Json* name = a.find("name")) axis.name = name->as_string();
      spec.axes.push_back(std::move(axis));
    }
    if (const Json* derived = v.find("derived")) {
      for (const Json& d : derived->items()) {
        DerivedParam entry;
        entry.param = d.at("param").as_string();
        entry.expr = d.at("expr").as_string();
        if (const Json* name = d.find("name")) entry.name = name->as_string();
        spec.derived.push_back(std::move(entry));
      }
    }
    return spec;
  } catch (const service::JsonError& e) {
    fail(std::string("campaign spec: ") + e.what());
  }
}

CampaignSpec load_campaign(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot read campaign spec '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return campaign_from_json(Json::parse(text.str()));
  } catch (const std::exception& e) {
    fail("campaign spec '" + path + "': " + e.what());
  }
}

std::vector<CompiledPoint> compile(const CampaignSpec& spec) {
  // Names resolve axes and derived parameters; both share one namespace.
  std::vector<std::string> axis_names;
  std::vector<std::vector<double>> axis_values;
  std::map<std::string, std::size_t> name_index;  // into axes then derived
  for (const Axis& axis : spec.axes) {
    require_param(axis.param);
    const std::string name =
        axis.name.empty() ? default_name(axis.param) : axis.name;
    if (!name_index.emplace(name, axis_names.size()).second) {
      fail("axis name '" + excerpt(name) +
           "' is not unique — give one axis an explicit \"name\"");
    }
    try {
      axis_values.push_back(expand_sweep(axis.values));
    } catch (const std::exception& e) {
      fail("axis '" + excerpt(name) + "': " + e.what());
    }
    axis_names.push_back(name);
  }
  if (axis_names.empty()) fail("campaign has no axes");

  // Derived parameters: parse, then order by $reference dependencies.
  std::vector<std::string> derived_names;
  std::vector<Expr> derived_exprs;
  for (const DerivedParam& d : spec.derived) {
    require_param(d.param);
    const std::string name = d.name.empty() ? default_name(d.param) : d.name;
    if (name_index.count(name) > 0 ||
        std::count(derived_names.begin(), derived_names.end(), name) > 0) {
      fail("derived parameter name '" + excerpt(name) +
           "' collides with an axis or another derived parameter");
    }
    try {
      derived_exprs.push_back(Expr::parse(d.expr));
    } catch (const std::exception& e) {
      fail("derived parameter '" + excerpt(name) + "': " + e.what());
    }
    derived_names.push_back(name);
  }
  // Reference check + dependency edges among derived parameters.
  std::vector<std::vector<std::size_t>> deps(derived_names.size());
  for (std::size_t i = 0; i < derived_names.size(); ++i) {
    for (const std::string& ref : derived_exprs[i].refs()) {
      if (name_index.count(ref) > 0) continue;  // axis reference
      const auto it =
          std::find(derived_names.begin(), derived_names.end(), ref);
      if (it == derived_names.end()) {
        // Both lists are non-empty: axis_names[0] and derived_names[i].
        fail("derived parameter '" + excerpt(derived_names[i]) +
             "' references unknown name '$" + excerpt(ref) +
             "' (known names: " +
             excerpt(join(axis_names) + ", " + join(derived_names)) + ")");
      }
      deps[i].push_back(
          static_cast<std::size_t>(it - derived_names.begin()));
    }
  }
  // Topological order by depth-first search; a back edge is a cycle, and
  // the DFS stack is exactly the cycle path to report.
  std::vector<std::size_t> topo;
  std::vector<int> state(derived_names.size(), 0);  // 0 new, 1 open, 2 done
  std::vector<std::size_t> stack;
  const std::function<void(std::size_t)> visit = [&](std::size_t i) {
    if (state[i] == 2) return;
    if (state[i] == 1) {
      std::string path;
      for (std::size_t j = std::find(stack.begin(), stack.end(), i) -
                           stack.begin();
           j < stack.size(); ++j) {
        path += derived_names[stack[j]] + " -> ";
      }
      fail("derived parameter cycle: " + excerpt(path + derived_names[i]));
    }
    state[i] = 1;
    stack.push_back(i);
    for (const std::size_t dep : deps[i]) visit(dep);
    stack.pop_back();
    state[i] = 2;
    topo.push_back(i);
  };
  for (std::size_t i = 0; i < derived_names.size(); ++i) visit(i);

  std::size_t total = 1;
  for (const auto& values : axis_values) {
    if (total > kMaxSweepValues / values.size()) {
      fail("campaign expands past " + std::to_string(kMaxSweepValues) +
           " points");
    }
    total *= values.size();
  }

  std::vector<CompiledPoint> out;
  out.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    CompiledPoint point;
    point.index = index;
    point.request = spec.base;
    // Row-major decomposition: the LAST axis varies fastest.
    point.axis_values.resize(axis_names.size());
    std::size_t rem = index;
    for (std::size_t a = axis_names.size(); a-- > 0;) {
      const auto& values = axis_values[a];
      point.axis_values[a] = values[rem % values.size()];
      rem /= values.size();
    }
    // Names the point by its first few axes; a spec may have thousands.
    const auto describe = [&] {
      constexpr std::size_t kAxesEchoed = 3;
      const std::size_t shown = std::min(axis_names.size(), kAxesEchoed);
      std::string what;
      for (std::size_t a = 0; a < shown; ++a) {
        what += (a == 0 ? "" : ", ") + excerpt(axis_names[a]) + "=" +
                fmt(point.axis_values[a]);
      }
      if (shown < axis_names.size()) {
        what += ", … (+" + std::to_string(axis_names.size() - shown) +
                " more)";
      }
      return what;
    };
    std::map<std::string, double> values;
    for (std::size_t a = 0; a < axis_names.size(); ++a) {
      values[axis_names[a]] = point.axis_values[a];
      set_param(point.request, spec.axes[a].param, point.axis_values[a]);
    }
    for (const std::size_t d : topo) {
      double value = 0.0;
      try {
        value = derived_exprs[d].eval(
            [&](const std::string& name) { return values.at(name); });
      } catch (const std::exception& e) {
        fail("point #" + std::to_string(index) + " (" + describe() +
             "): derived parameter '" + excerpt(derived_names[d]) +
             "': " + e.what());
      }
      values[derived_names[d]] = value;
      try {
        set_param(point.request, spec.derived[d].param, value);
      } catch (const std::exception& e) {
        fail("point #" + std::to_string(index) + " (" + describe() + "): " +
             e.what());
      }
    }
    try {
      service::validate(point.request);
    } catch (const std::exception& e) {
      fail("point #" + std::to_string(index) + " (" + describe() + "): " +
           e.what());
    }
    point.key = request_key(point.request);
    out.push_back(std::move(point));
  }
  return out;
}

}  // namespace cny::campaign
