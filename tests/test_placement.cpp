// Placement output pins. run_code_motion's placement (anchor sinking over a
// MUSTUSE fixpoint, then privatization) is maintained incrementally; these
// digests were recorded with a placement that recomputed MUSTUSE from
// scratch for every Earliest candidate and rescanned every component per
// term. Any change in a decision — an anchor kept, sunk, dropped or
// deduplicated, a node id, a temporary's intern order, a remark's position
// — changes a digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "ir/printer.hpp"
#include "lang/lower.hpp"
#include "motion/code_motion.hpp"
#include "obs/remarks.hpp"
#include "workload/families.hpp"
#include "workload/randomprog.hpp"

namespace parcm {
namespace {

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Placement {
  std::uint64_t graph_digest = 0;
  std::uint64_t remark_digest = 0;
  std::size_t insertions = 0;
  std::size_t replacements = 0;
};

// Placement remarks only: the analysis cache's acquisition remarks depend on
// what the process compiled before, the placement decisions do not.
bool placement_remark(const obs::Remark& r) {
  switch (r.kind) {
    case obs::RemarkKind::kInserted:
    case obs::RemarkKind::kReplaced:
    case obs::RemarkKind::kBlocked:
    case obs::RemarkKind::kSkipped:
    case obs::RemarkKind::kDegraded:
      return r.message.find("cache") == std::string::npos;
  }
  return false;
}

CodeMotionConfig sinking(bool on) {
  CodeMotionConfig cfg;
  cfg.sink_anchors = on;
  return cfg;
}

CodeMotionConfig naive() {
  CodeMotionConfig cfg;
  cfg.variant = SafetyVariant::kNaive;
  return cfg;
}

Placement place(const Graph& g, const CodeMotionConfig& cfg = {}) {
  obs::RemarkSink sink;
  sink.set_enabled(true);
  obs::RemarkSink* prev = obs::set_thread_remark_sink(&sink);
  MotionResult r = run_code_motion(g, cfg);
  obs::set_thread_remark_sink(prev);
  Placement p;
  p.graph_digest = fnv1a(to_text(r.graph));
  p.remark_digest = fnv1a("");
  for (const obs::Remark& rem : sink.snapshot()) {
    if (placement_remark(rem)) {
      p.remark_digest = fnv1a(obs::remark_to_string(rem) + "\n",
                              p.remark_digest);
    }
  }
  p.insertions = r.num_insertions();
  p.replacements = r.num_replacements();
  return p;
}

void expect_pinned(const Placement& got, const Placement& want,
                   const std::string& what) {
  EXPECT_EQ(got.graph_digest, want.graph_digest) << what;
  EXPECT_EQ(got.remark_digest, want.remark_digest) << what;
  EXPECT_EQ(got.insertions, want.insertions) << what;
  EXPECT_EQ(got.replacements, want.replacements) << what;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

// The initializer a mismatch should be pinned to.
std::string show(const Placement& p) {
  return "{" + hex(p.graph_digest) + ", " + hex(p.remark_digest) + ", " +
         std::to_string(p.insertions) + ", " + std::to_string(p.replacements) +
         "}";
}

TEST(Placement, ParChainFamily) {
  const struct {
    std::size_t blocks;
    bool sink;
    Placement want;
  } cases[] = {
      {16, true, {0x027bd71adad8f781ull, 0x00a594d88dfc23efull, 273, 347}},
      {32, true, {0x674d03c3ce9c9282ull, 0x36b7d35024e53468ull, 523, 667}},
      {64, true, {0xfdbf21aa9165a802ull, 0x2ffe20b6bef6e0a6ull, 1004, 1312}},
      {16, false, {0x5b29153a67354f20ull, 0xd43232312a1bda71ull, 276, 347}},
      {32, false, {0x792ce0669c57969bull, 0x8827b3fe0529687eull, 533, 667}},
      {64, false, {0xf2fbe4240195d759ull, 0xf67f998345ffafc7ull, 1027, 1312}},
  };
  for (const auto& c : cases) {
    Placement got = place(families::par_chain(c.blocks, 20), sinking(c.sink));
    expect_pinned(got, c.want,
                  "par_chain(" + std::to_string(c.blocks) + ") sink=" +
                      std::to_string(c.sink) + " got " + show(got));
  }
}

TEST(Placement, Fig10FamilyLoops) {
  const struct {
    std::size_t loops;
    bool sink;
    Placement want;
  } cases[] = {
      {1, true, {0x2c1fcaf151e1bfc6ull, 0x43040d0193e22ddaull, 3, 5}},
      {3, true, {0x128edaae406f0e93ull, 0x4b7517c4fa7b3f18ull, 7, 9}},
      {3, false, {0x128edaae406f0e93ull, 0x4b7517c4fa7b3f18ull, 7, 9}},
  };
  for (const auto& c : cases) {
    Placement got = place(families::fig10_family(c.loops), sinking(c.sink));
    expect_pinned(got, c.want,
                  "fig10_family(" + std::to_string(c.loops) + ") sink=" +
                      std::to_string(c.sink) + " got " + show(got));
  }
}

// 200 random programs with nested parallel statements, loops and barriers;
// one running digest per configuration over all of them.
TEST(Placement, RandomNestedParWithBarriers) {
  const struct {
    const char* name;
    CodeMotionConfig cfg;
    Placement want;
  } cases[] = {
      {"sinking", sinking(true),
       {0xc72309184d3d9478ull, 0xd610f1cd2c461071ull, 1134, 1037}},
      {"no sinking", sinking(false),
       {0xfba43927e3d712e2ull, 0x1698db043b1134e4ull, 1230, 1037}},
      {"naive", naive(),
       {0x5cfec1b1ecc4a1f5ull, 0x7a75e2fb60241ed4ull, 1627, 1480}},
  };
  for (const auto& c : cases) {
    Placement sum;
    sum.graph_digest = fnv1a("");
    sum.remark_digest = fnv1a("");
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      Rng rng(seed);
      RandomProgramOptions opt;
      opt.target_stmts = 24;
      opt.max_par_depth = 3;
      opt.barrier_permille = 60;
      opt.while_permille = 100;
      Placement p = place(random_program(rng, opt), c.cfg);
      sum.graph_digest = fnv1a(std::to_string(p.graph_digest), sum.graph_digest);
      sum.remark_digest =
          fnv1a(std::to_string(p.remark_digest), sum.remark_digest);
      sum.insertions += p.insertions;
      sum.replacements += p.replacements;
    }
    expect_pinned(sum, c.want, std::string(c.name) + " got " + show(sum));
  }
}

// One program per path of the incremental MUSTUSE maintenance.
TEST(Placement, HandBuiltPaths) {
  const struct {
    const char* name;
    const char* source;
    CodeMotionConfig cfg;
    Placement want;
  } cases[] = {
      // The post-join anchor is kept: its only successor is a consumer.
      {"kept", R"(
        b := 2;
        par { a := 1; } and { c := 3; }
        w := a + b;
      )", {},
       {0xa8b96afb2271d911ull, 0x9a77c2ee56fd6330ull, 1, 1}},
      // The in-component anchor sinks past the branch onto the skip in
      // front of the consumer: a MUSTUSE node that is no replacement, so
      // blocking it shrinks the fixpoint.
      {"sunk_onto_mustuse", R"(
        b := 2;
        par {
          a := 1;
          if (*) { skip; u := a + b; } else { skip; }
        } and {
          c := 3;
        }
        w := a + b;
      )", {},
       {0x671bd5c3b5e4a069ull, 0xe8535967882ff186ull, 2, 2}},
      // The in-component anchor's only continuation runs into the post-join
      // anchor before any consumer: it is redundant and dropped.
      {"dropped", R"(
        b := 2;
        par { a := 1; skip; } and { c := 3; }
        w := a + b;
      )", {},
       {0x40b007bb2321de6bull, 0xcf16b13c800f6ad1ull, 1, 1}},
      // Naive variant: the ParBegin inside the loop is an anchor that is not
      // kept; the sink descent runs through both components, round the loop
      // and back to the ParBegin, which joins its own frontier.
      {"loop_back_to_anchor", R"(
        v3 := 0;
        while (*) {
          par { v3 := v3 * v1; } and { v2 := v3 - v2; }
        }
        v2 := v1 - v3;
      )", naive(),
       {0x48023d10dfe967d6ull, 0x310b3ff6392715b7ull, 4, 3}},
  };
  for (const auto& c : cases) {
    Placement got = place(lang::compile_or_throw(c.source), c.cfg);
    expect_pinned(got, c.want, std::string(c.name) + " got " + show(got));
  }
}

}  // namespace
}  // namespace parcm
