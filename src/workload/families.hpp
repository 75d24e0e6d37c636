// Parameterized program families backing the benchmark sweeps (DESIGN.md
// experiment ids C1-C6 and the Fig. 2 / Fig. 10 sweeps).
#pragma once

#include <cstddef>

#include "ir/graph.hpp"

namespace parcm::families {

// Fig. 2 with a configurable bottleneck: one component computes c+b (also
// used after the join), the sibling runs `bottleneck` unhoistable recursive
// increments.
Graph fig2_family(std::size_t bottleneck);

// Fig. 10 skeleton with `loops` parallel loop nests; drive the loop trip
// count through cost.hpp's LoopOracle.
Graph fig10_family(std::size_t loops_per_component);

// Straight-line sequential chain: n assignments cycling over a small term
// pool (scaling baseline for C1).
Graph seq_chain(std::size_t n, std::size_t term_pool = 8);

// One parallel statement with `components` components of `len` assignments
// each (C1 scaling, C2 product blowup).
Graph par_wide(std::size_t components, std::size_t len,
               std::size_t term_pool = 8);

// `depth` nested parallel statements, two components each, `len` statements
// per component (C1 scaling on nesting).
Graph par_nested(std::size_t depth, std::size_t len);

// `blocks` two-component parallel statements in sequence, each component
// running `stmts_per_component` assignments over its own half of v0..v7,
// with one sequential statement reading both halves behind every join. A
// small term pool (three terms per half) recurs across all blocks, so each
// term has an Earliest anchor per block: the many-anchor placement sweep.
// Deterministic: the statement mix comes from a fixed-seed Rng.
Graph par_chain(std::size_t blocks, std::size_t stmts_per_component);

}  // namespace parcm::families
