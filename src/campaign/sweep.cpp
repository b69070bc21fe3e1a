#include "campaign/sweep.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "cnt/removal_tradeoff.h"
#include "util/strings.h"

namespace cny::campaign {

namespace {

using util::excerpt;

[[noreturn]] void fail(std::string_view expr, const std::string& what) {
  throw std::invalid_argument("sweep '" + excerpt(expr) + "': " + what);
}

/// util::parse_double throws ContractViolation with a generic message;
/// rewrap so sweep errors consistently name the expression token.
double number(std::string_view token, std::string_view expr) {
  try {
    return util::parse_double(token);
  } catch (const std::exception&) {
    fail(expr, "'" + excerpt(token) + "' is not a number");
  }
}

/// The lin/log/probit point count: a small positive integer, >= 2 so the
/// endpoints are always distinct samples.
std::size_t point_count(std::string_view token, std::string_view expr) {
  const double n = number(token, expr);
  if (n != std::floor(n) || n < 2.0 ||
      n > static_cast<double>(kMaxSweepValues)) {
    fail(expr, "point count '" + excerpt(token) +
                   "' must be an integer in [2, " +
                   std::to_string(kMaxSweepValues) + "]");
  }
  return static_cast<std::size_t>(n);
}

std::vector<double> expand_range(double start, double step, double stop,
                                 std::string_view expr) {
  if (step == 0.0) {
    fail(expr, "step must be non-zero");
  }
  // Index-based span count: the tiny relative tolerance keeps an intended
  // endpoint (0.8:0.05:0.95) inside the sweep when (stop-start)/step lands
  // at 2.9999999999999996 instead of 3, without ever admitting a value a
  // whole step past stop.
  const double span = (stop - start) / step;
  if (span < 0.0) {
    fail(expr, "step moves away from stop (reversed bounds?)");
  }
  if (span > static_cast<double>(kMaxSweepValues)) {
    fail(expr, "range expands past " + std::to_string(kMaxSweepValues) +
                   " values");
  }
  const auto count =
      static_cast<std::size_t>(std::floor(span + 1e-9 * (1.0 + span))) + 1;
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Index-based stepping, never accumulation: v_i is the same bits no
    // matter how the sweep is chunked or resumed.
    out.push_back(start + static_cast<double>(i) * step);
  }
  return out;
}

std::vector<double> expand_spaced(std::string_view kind,
                                  const std::vector<std::string>& tokens,
                                  std::string_view expr) {
  if (tokens.size() != 4) {
    fail(expr, std::string(kind) + " form is " + std::string(kind) +
                   ":start:stop:n");
  }
  const double lo = number(tokens[1], expr);
  const double hi = number(tokens[2], expr);
  const std::size_t n = point_count(tokens[3], expr);
  std::vector<double> out;
  out.reserve(n);
  if (kind == "lin") {
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                             static_cast<double>(n - 1));
    }
  } else if (kind == "log") {
    if (lo <= 0.0 || hi <= 0.0) {
      fail(expr, "log bounds must be positive");
    }
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(lo * std::pow(hi / lo, static_cast<double>(i) /
                                               static_cast<double>(n - 1)));
    }
  } else {  // probit
    if (!(lo > 0.0 && lo < 1.0 && hi > 0.0 && hi < 1.0)) {
      fail(expr, "probit bounds must be probabilities in (0, 1)");
    }
    // Mirrors cnt::RemovalTradeoff::frontier bit for bit (same quantile/CDF
    // and the same evaluation order), so a campaign probit axis reproduces
    // the frontier's p_Rm ladder exactly.
    const double t_lo = cnt::normal_quantile(lo);
    const double t_hi = cnt::normal_quantile(hi);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = t_lo + (t_hi - t_lo) * static_cast<int>(i) /
                                  (static_cast<int>(n) - 1);
      out.push_back(cnt::normal_cdf(t));
    }
  }
  return out;
}

}  // namespace

std::vector<double> expand_sweep(std::string_view expr) {
  const std::string_view trimmed = util::trim(expr);
  if (trimmed.empty()) {
    throw std::invalid_argument("sweep expression is empty");
  }

  if (trimmed.find(':') != std::string_view::npos) {
    const auto tokens = util::split(trimmed, ':');
    for (const auto& token : tokens) {
      if (token.empty()) {
        fail(trimmed, "empty ':' token");
      }
    }
    const std::string kind = util::to_lower(tokens.front());
    if (kind == "lin" || kind == "log" || kind == "probit") {
      return expand_spaced(kind, tokens, trimmed);
    }
    if (tokens.size() != 3) {
      fail(trimmed,
           "range form is start:step:stop (or lin/log/probit:start:stop:n)");
    }
    return expand_range(number(tokens[0], trimmed), number(tokens[1], trimmed),
                        number(tokens[2], trimmed), trimmed);
  }

  std::vector<double> out;
  for (const auto& token : util::split(trimmed, ',')) {
    if (token.empty()) {
      fail(trimmed, "empty list entry");
    }
    out.push_back(number(token, trimmed));
  }
  return out;
}

// --- derived-parameter expressions -----------------------------------------

struct Expr::Node {
  enum class Kind { Number, Ref, Neg, Add, Sub, Mul, Div, Call };
  Kind kind = Kind::Number;
  double value = 0.0;                   ///< Number
  std::string name;                     ///< Ref / Call
  std::vector<std::shared_ptr<const Node>> args;
  ~Node();
};

namespace {

using Node = Expr::Node;
using NodePtr = std::shared_ptr<const Node>;

bool is_binary(Node::Kind kind) {
  return kind == Node::Kind::Add || kind == Node::Kind::Sub ||
         kind == Node::Kind::Mul || kind == Node::Kind::Div;
}

/// A flat chain a+b-c… parses to a left-leaning tree as deep as the chain
/// is long, so every walk follows its left spine in a loop: this pushes
/// the spine's operators (root first) onto `spine` and returns the
/// leftmost operand. Only real nesting (signs, parentheses, calls) and
/// right operands are left to recursion.
const Node* left_spine(const Node& node, std::vector<const Node*>& spine) {
  const Node* leaf = &node;
  while (is_binary(leaf->kind)) {
    spine.push_back(leaf);
    leaf = leaf->args[0].get();
  }
  return leaf;
}

}  // namespace

Expr::Node::~Node() {
  // Unlinks the left spine one operator at a time, so tearing down a long
  // flat chain does not recurse once per term. Each unlinked operator is
  // freed with an empty left operand; its right operand is real nesting.
  if (!is_binary(kind)) return;
  NodePtr left = std::move(args[0]);
  while (left != nullptr && left.use_count() == 1 && is_binary(left->kind)) {
    // Every node is built non-const (make_shared<Node>), and this one has
    // no other owner.
    NodePtr next = std::move(const_cast<Node&>(*left).args[0]);
    left = std::move(next);
  }
}

namespace {

struct Builtin {
  const char* name;
  int arity;
  double (*fn1)(double);
  double (*fn2)(double, double);
};

double fn_min(double a, double b) { return std::min(a, b); }
double fn_max(double a, double b) { return std::max(a, b); }
double fn_round(double a) { return std::round(a); }

constexpr Builtin kBuiltins[] = {
    {"sqrt", 1, [](double a) { return std::sqrt(a); }, nullptr},
    {"exp", 1, [](double a) { return std::exp(a); }, nullptr},
    {"log", 1, [](double a) { return std::log(a); }, nullptr},
    {"log10", 1, [](double a) { return std::log10(a); }, nullptr},
    {"abs", 1, [](double a) { return std::fabs(a); }, nullptr},
    {"floor", 1, [](double a) { return std::floor(a); }, nullptr},
    {"round", 1, fn_round, nullptr},
    {"phi", 1, cnt::normal_cdf, nullptr},
    {"probit", 1, cnt::normal_quantile, nullptr},
    {"pow", 2, nullptr, [](double a, double b) { return std::pow(a, b); }},
    {"min", 2, nullptr, fn_min},
    {"max", 2, nullptr, fn_max},
};

const Builtin* find_builtin(std::string_view name) {
  for (const Builtin& b : kBuiltins) {
    if (name == b.name) return &b;
  }
  return nullptr;
}

/// Bound on the parser's recursion (unary signs, parentheses, call
/// arguments). It also bounds the tree's nesting, and with it the
/// recursion of evaluation and teardown, well below any stack limit; flat
/// chains such as a 100,000-term sum are not nesting and have no cap.
constexpr int kMaxExprDepth = 256;

/// Recursive-descent parser over the expression text. Precedence:
/// unary minus > * / > + -. `depth` counts the enclosing unary signs,
/// parentheses and calls.
class ExprParser {
 public:
  explicit ExprParser(std::string_view text) : text_(text) {}

  NodePtr parse() {
    NodePtr root = parse_sum(0);
    skip_ws();
    if (pos_ != text_.size()) fail("unexpected trailing input");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("expression '" + excerpt(text_) +
                                "' at position " + std::to_string(pos_) +
                                ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  NodePtr parse_sum(int depth) {
    NodePtr left = parse_product(depth);
    for (;;) {
      if (consume('+')) {
        left = binary(Node::Kind::Add, left, parse_product(depth));
      } else if (consume('-')) {
        left = binary(Node::Kind::Sub, left, parse_product(depth));
      } else {
        return left;
      }
    }
  }

  NodePtr parse_product(int depth) {
    NodePtr left = parse_unary(depth);
    for (;;) {
      if (consume('*')) {
        left = binary(Node::Kind::Mul, left, parse_unary(depth));
      } else if (consume('/')) {
        left = binary(Node::Kind::Div, left, parse_unary(depth));
      } else {
        return left;
      }
    }
  }

  // Every recursive cycle of the grammar passes through here.
  NodePtr parse_unary(int depth) {
    if (depth > kMaxExprDepth) {
      fail("nested deeper than " + std::to_string(kMaxExprDepth) + " levels");
    }
    if (consume('-')) {
      auto node = std::make_shared<Node>();
      node->kind = Node::Kind::Neg;
      node->args.push_back(parse_unary(depth + 1));
      return node;
    }
    if (consume('+')) return parse_unary(depth + 1);
    return parse_primary(depth);
  }

  NodePtr parse_primary(int depth) {
    skip_ws();
    if (pos_ >= text_.size()) fail("expected a value");
    const char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      NodePtr inner = parse_sum(depth + 1);
      if (!consume(')')) fail("missing ')'");
      return inner;
    }
    if (c == '$') {
      ++pos_;
      const std::string name = identifier("axis reference");
      auto node = std::make_shared<Node>();
      node->kind = Node::Kind::Ref;
      node->name = name;
      return node;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      return parse_number();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const std::string name = identifier("function name");
      const Builtin* builtin = find_builtin(name);
      if (builtin == nullptr) {
        std::string known;
        for (const Builtin& b : kBuiltins) {
          known += known.empty() ? b.name : std::string(", ") + b.name;
        }
        fail("unknown function '" + excerpt(name) + "' (known: " + known +
             ")");
      }
      if (!consume('(')) fail("'" + name + "' must be called as a function");
      auto node = std::make_shared<Node>();
      node->kind = Node::Kind::Call;
      node->name = name;
      node->args.push_back(parse_sum(depth + 1));
      while (consume(',')) node->args.push_back(parse_sum(depth + 1));
      if (!consume(')')) fail("missing ')' after " + name + "(...)");
      if (static_cast<int>(node->args.size()) != builtin->arity) {
        fail(name + "() takes " + std::to_string(builtin->arity) +
             " argument(s), got " + std::to_string(node->args.size()));
      }
      return node;
    }
    fail(std::string("unexpected character '") + c + "'");
  }

  NodePtr parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else if ((c == '+' || c == '-') && pos_ > start &&
                 (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')) {
        ++pos_;  // exponent sign
      } else {
        break;
      }
    }
    double value = 0.0;
    try {
      value = util::parse_double(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("'" + excerpt(text_.substr(start, pos_ - start)) +
           "' is not a number");
    }
    auto node = std::make_shared<Node>();
    node->kind = Node::Kind::Number;
    node->value = value;
    return node;
  }

  std::string identifier(const char* what) {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) fail(std::string("expected ") + what);
    return std::string(text_.substr(start, pos_ - start));
  }

  static NodePtr binary(Node::Kind kind, NodePtr left, NodePtr right) {
    auto node = std::make_shared<Node>();
    node->kind = kind;
    node->args.push_back(std::move(left));
    node->args.push_back(std::move(right));
    return node;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void collect_refs(const Node& node, std::vector<std::string>& refs) {
  std::vector<const Node*> spine;
  const Node* leaf = left_spine(node, spine);
  if (leaf->kind == Node::Kind::Ref) {
    if (std::find(refs.begin(), refs.end(), leaf->name) == refs.end()) {
      refs.push_back(leaf->name);
    }
  } else {
    for (const NodePtr& arg : leaf->args) collect_refs(*arg, refs);
  }
  for (auto op = spine.rbegin(); op != spine.rend(); ++op) {
    collect_refs(*(*op)->args[1], refs);
  }
}

double eval_node(const Node& node,
                 const std::function<double(const std::string&)>& lookup) {
  std::vector<const Node*> spine;
  const Node* leaf = left_spine(node, spine);
  double value = 0.0;
  switch (leaf->kind) {
    case Node::Kind::Number: value = leaf->value; break;
    case Node::Kind::Ref: value = lookup(leaf->name); break;
    case Node::Kind::Neg: value = -eval_node(*leaf->args[0], lookup); break;
    default: {
      const Builtin* builtin = find_builtin(leaf->name);
      value = builtin->arity == 1
                  ? builtin->fn1(eval_node(*leaf->args[0], lookup))
                  : builtin->fn2(eval_node(*leaf->args[0], lookup),
                                 eval_node(*leaf->args[1], lookup));
    }
  }
  for (auto op = spine.rbegin(); op != spine.rend(); ++op) {
    const double rhs = eval_node(*(*op)->args[1], lookup);
    switch ((*op)->kind) {
      case Node::Kind::Add: value = value + rhs; break;
      case Node::Kind::Sub: value = value - rhs; break;
      case Node::Kind::Mul: value = value * rhs; break;
      default: value = value / rhs; break;
    }
  }
  return value;
}

}  // namespace

Expr Expr::parse(std::string_view text) {
  Expr out;
  out.text_ = std::string(util::trim(text));
  if (out.text_.empty()) {
    throw std::invalid_argument("derived-parameter expression is empty");
  }
  out.root_ = ExprParser(out.text_).parse();
  collect_refs(*out.root_, out.refs_);
  return out;
}

double Expr::eval(
    const std::function<double(const std::string&)>& lookup) const {
  return eval_node(*root_, lookup);
}

}  // namespace cny::campaign
