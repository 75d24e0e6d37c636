// Seeded source generators for the benchmark's workloads.
//
// The generators live in the benchmark, not in the library, so the inputs
// stay fixed while the library changes: a seed names the same source text
// on every commit. The library only ever sees the generated text.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

// splitmix64 finalizer: decorrelates nearby seeds.
std::uint64_t mix(std::uint64_t x);

// Seed of the index-th program of a workload run with `workload_seed`.
std::uint64_t program_seed(std::uint64_t workload_seed, std::size_t index);

// Chain of `blocks` two-component par blocks, each component
// `stmts_per_component` assignments over its own half of 8 variables, most
// from a small term pool, so every term is killed and recomputed many times
// (many Earliest anchors per term).
std::string par_chain_program(std::uint64_t seed, std::size_t blocks,
                              std::size_t stmts_per_component);

// Mid-sized structured program for the full pipeline: par blocks whose
// components hold a fixed mix of computations, constants, guarded
// (partially dead) assignments, recursive updates and a small loop, with
// conditionals between blocks.
std::string mixed_program(std::uint64_t seed, std::size_t blocks);

// Small fuzz-style program (~10 statements, nested par up to depth 2,
// barriers, recursive assignments, the paper's P2/P3 pitfall shapes).
// Every variable carries `suffix`, so programs of one shape seed differ only
// in names and share one structure.
std::string fuzz_program(std::uint64_t shape_seed, const std::string& suffix);

}  // namespace perfbench
