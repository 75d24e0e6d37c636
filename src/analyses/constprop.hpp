// Interference-aware simple constant propagation.
//
// The paper's related work singles out constant propagation as one of the
// few classical optimizations studied for explicitly parallel programs
// (Knoop, Euro-Par'98; Lee/Midkiff/Padua, LCPC'97). This module implements
// the conservative core: flow-sensitive constant propagation over the
// parallel flow graph where *contested* variables — variables written by
// one component and accessed by a potentially-parallel sibling — are pinned
// to NonConst everywhere. For uncontested variables interleavings cannot
// influence the value, so plain meet-over-graph-paths reasoning is sound.
//
// Variables start as the constant 0 (the machine's initial store), so
// the analysis is also a cheap initialization analysis.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/graph.hpp"

namespace parcm {

struct CpValue {
  enum class Kind : std::uint8_t { kUndef, kConst, kNonConst };
  Kind kind = Kind::kUndef;
  std::int64_t value = 0;

  static CpValue undef() { return {}; }
  static CpValue constant(std::int64_t v) {
    return CpValue{Kind::kConst, v};
  }
  static CpValue nonconst() { return CpValue{Kind::kNonConst, 0}; }

  bool is_const() const { return kind == Kind::kConst; }
  bool operator==(const CpValue&) const = default;
};

CpValue meet(const CpValue& a, const CpValue& b);

struct ConstPropAnalysis {
  // State at node entry: one CpValue per variable.
  std::vector<std::vector<CpValue>> entry;
  // Variables excluded because a sibling may interfere.
  std::vector<std::uint8_t> contested;
};

ConstPropAnalysis analyze_constants(const Graph& g);

struct ConstPropResult {
  Graph graph;
  std::size_t operands_folded = 0;  // variable operands replaced by literals
  std::size_t rhs_folded = 0;       // whole right-hand sides evaluated
};

// Replaces provably-constant variable operands by literals and folds
// constant binary right-hand sides (x := 2 + 3 becomes x := 5). Test
// conditions are folded at the operand level only; branch structure is
// never changed.
ConstPropResult propagate_constants(const Graph& g);

}  // namespace parcm
