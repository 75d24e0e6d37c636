// The shared store and the one arithmetic every executor and constprop use.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/graph.hpp"
#include "support/diagnostics.hpp"

namespace parcm {

class VarState {
 public:
  explicit VarState(std::size_t num_vars) : values_(num_vars, 0) {}

  std::int64_t get(VarId v) const {
    return v.index() < values_.size() ? values_[v.index()] : 0;
  }
  void set(VarId v, std::int64_t value) {
    if (v.index() >= values_.size()) values_.resize(v.index() + 1, 0);
    values_[v.index()] = value;
  }

  const std::vector<std::int64_t>& values() const { return values_; }
  operator std::span<const std::int64_t>() const { return values_; }

  bool operator==(const VarState&) const = default;

 private:
  std::vector<std::int64_t> values_;
};

// `store` is indexed by VarId and must cover every variable operand.
inline std::int64_t eval_operand(std::span<const std::int64_t> store,
                                 const Operand& op) {
  return op.is_var() ? store[op.var_id().index()] : op.const_value();
}

namespace detail {
inline std::int64_t eval_term(std::span<const std::int64_t> store,
                              const Term& t) {
  std::int64_t a = eval_operand(store, t.lhs);
  std::int64_t b = eval_operand(store, t.rhs);
  switch (t.op) {
    case BinOp::kAdd: return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
    case BinOp::kSub: return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
    case BinOp::kMul: return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
    case BinOp::kDiv:
      if (b == 0) return 0;
      // INT64_MIN / -1 would overflow; wrap like the other operators.
      if (b == -1) return static_cast<std::int64_t>(
          -static_cast<std::uint64_t>(a));
      return a / b;
    case BinOp::kLt: return a < b;
    case BinOp::kLe: return a <= b;
    case BinOp::kGt: return a > b;
    case BinOp::kGe: return a >= b;
    case BinOp::kEq: return a == b;
    case BinOp::kNe: return a != b;
  }
  PARCM_CHECK(false, "unknown BinOp in eval");
}
}  // namespace detail

// Wrapping arithmetic; division by zero yields 0 and INT64_MIN / -1 wraps
// (total semantics keeps the explorers simple); comparisons yield 1/0.
// Inline: it is the body of the VM's hot loop.
inline std::int64_t eval_rhs(std::span<const std::int64_t> store,
                             const Rhs& rhs) {
  if (rhs.is_term()) return detail::eval_term(store, rhs.term());
  return eval_operand(store, rhs.trivial());
}

}  // namespace parcm
