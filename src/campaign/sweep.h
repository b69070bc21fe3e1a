// Sweep expression language — the axis/derived-parameter vocabulary of the
// campaign runner (campaign/spec.h). Modelled on OMNeT++'s ini-based study
// machinery: a one-line expression expands to the values one named axis
// takes, and a tiny arithmetic language derives parameters from other axes.
//
// Axis value expressions (expand_sweep):
//
//   list       1,2,5.5                explicit values, in order
//   range      0.80:0.05:0.95         start:step:stop — index-based
//                                     stepping (v_i = start + i*step, never
//                                     repeated addition), stop inclusive
//                                     within a half-step tolerance; step may
//                                     be negative when stop < start
//   linspace   lin:0:1:5              n points, endpoints inclusive
//   logspace   log:1e-4:1e-1:4        n points, geometric spacing
//   probit     probit:0.99:0.9999:6   n probabilities uniform in probit
//                                     space — bit-identical to
//                                     cnt::RemovalTradeoff::frontier's p_Rm
//                                     ladder, so frontier sweeps are
//                                     expressible as campaign axes
//
// Derived-parameter expressions (Expr): floating-point arithmetic
// (+ - * /, parentheses, unary minus), axis references ($name), and the
// function set sqrt, exp, log, log10, abs, floor, round, pow, min, max,
// phi (standard normal CDF), probit (its inverse). Nesting (unary signs,
// parentheses, function calls) is capped at 256 levels; a flat chain such
// as a+b-c… may be any length. Everything is
// deterministic — same expression, same inputs, same bits — which is what
// lets the campaign runner promise stable point streams and request hashes.
//
// All parse/eval failures throw std::invalid_argument with a message that
// names the offending token, never a silent default.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cny::campaign {

/// Expands one axis value expression into its ordered value list. Throws
/// std::invalid_argument on grammar violations: empty/garbage tokens, a zero
/// step, a step moving away from stop (reversed bounds), a point count < 2
/// for the lin/log/probit forms, non-positive logspace bounds, probit bounds
/// outside (0, 1), or an expansion past kMaxSweepValues.
[[nodiscard]] std::vector<double> expand_sweep(std::string_view expr);

/// Expansion guard: one axis longer than this is a typo (e.g. a range with
/// step 1e-9), not a campaign.
inline constexpr std::size_t kMaxSweepValues = 1'000'000;

/// A parsed derived-parameter expression. Parse once, evaluate per campaign
/// point with the axis/derived values of that point.
class Expr {
 public:
  /// Parses `text`; throws std::invalid_argument naming the position and
  /// token of the first syntax error.
  [[nodiscard]] static Expr parse(std::string_view text);

  /// Evaluates with `lookup` resolving each $name reference. The lookup
  /// may throw (unknown name); the exception propagates unchanged.
  [[nodiscard]] double eval(
      const std::function<double(const std::string&)>& lookup) const;

  /// Names referenced via $name, in first-appearance order, deduplicated —
  /// the dependency edges for the campaign compiler's cycle check.
  [[nodiscard]] const std::vector<std::string>& refs() const { return refs_; }

  /// The source text the expression was parsed from.
  [[nodiscard]] const std::string& text() const { return text_; }

  /// Implementation node type (opaque outside sweep.cpp).
  struct Node;

 private:
  Expr() = default;

  std::string text_;
  std::shared_ptr<const Node> root_;  ///< shared: Expr is freely copyable
  std::vector<std::string> refs_;
};

}  // namespace cny::campaign
