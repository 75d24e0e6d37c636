#include "gen.hpp"

#include <iterator>
#include <utility>
#include <vector>

namespace perfbench {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15uLL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9uLL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBuLL;
  return x ^ (x >> 31);
}

std::uint64_t program_seed(std::uint64_t workload_seed, std::size_t index) {
  return mix(mix(workload_seed) ^ (static_cast<std::uint64_t>(index) + 1));
}

namespace {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15uLL;
    return mix(state_);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  bool permille(int p) { return below(1000) < static_cast<std::size_t>(p); }
  int range(int lo, int hi) { return lo + static_cast<int>(below(hi - lo + 1)); }

 private:
  std::uint64_t state_;
};

const char* const kOps[] = {"+", "-", "*"};

std::string var(std::size_t i) { return "v" + std::to_string(i); }

// The structured programs split their 8 variables into two halves, one per
// par component (v0..v3 and v4..v7): components never touch each other's
// variables, so every schedule reaches the same final store and the
// sampling oracle can decide them. Sequential code between par blocks
// reads both halves.
constexpr std::size_t kHalf = 4;

std::string half_var(Rng& rng, std::size_t half) {
  return var(half * kHalf + rng.below(kHalf));
}

// Three terms per half: distinct operands of that half, random operators.
std::vector<std::string> term_pool(Rng& rng, std::size_t half) {
  std::vector<std::string> pool;
  while (pool.size() < 3) {
    std::size_t a = rng.below(kHalf), b = rng.below(kHalf);
    if (a == b) continue;
    pool.push_back(var(half * kHalf + a) + " " + kOps[rng.below(3)] + " " +
                   var(half * kHalf + b));
  }
  return pool;
}

struct Pools {
  std::vector<std::string> half[2];
  const std::string& any(Rng& rng) const {
    const std::vector<std::string>& p = half[rng.below(2)];
    return p[rng.below(p.size())];
  }
};

Pools prelude(Rng& rng, std::string* out) {
  Pools pools{{term_pool(rng, 0), term_pool(rng, 1)}};
  for (std::size_t i = 0; i < 2 * kHalf; ++i) {
    *out += var(i) + " := " + std::to_string(rng.range(1, 9)) + ";\n";
  }
  return pools;
}

void epilogue(Rng& rng, const Pools& pools, std::string* out) {
  for (const std::vector<std::string>& p : pools.half) {
    for (const std::string& t : p) {
      *out += var(rng.below(2 * kHalf)) + " := " + t + ";\n";
    }
  }
}

}  // namespace

std::string par_chain_program(std::uint64_t seed, std::size_t blocks,
                              std::size_t stmts_per_component) {
  Rng rng(seed);
  std::string out;
  Pools pools = prelude(rng, &out);
  auto stmt = [&](std::size_t half) {
    const std::vector<std::string>& pool = pools.half[half];
    std::string lhs = half_var(rng, half);
    std::size_t roll = rng.below(100);
    if (roll < 65) {
      out += "  " + lhs + " := " + pool[rng.below(pool.size())] + ";\n";
    } else if (roll < 85) {
      out += "  " + lhs + " := " + std::to_string(rng.range(0, 9)) + ";\n";
    } else {
      out += "  " + lhs + " := " + half_var(rng, half) + " + " +
             std::to_string(rng.range(1, 9)) + ";\n";
    }
  };
  for (std::size_t b = 0; b < blocks; ++b) {
    out += "par {\n";
    for (std::size_t i = 0; i < stmts_per_component; ++i) stmt(0);
    out += "} and {\n";
    for (std::size_t i = 0; i < stmts_per_component; ++i) stmt(1);
    out += "}\n";
    out += var(rng.below(2 * kHalf)) + " := " + pools.any(rng) + ";\n";
  }
  epilogue(rng, pools, &out);
  return out;
}

std::string mixed_program(std::uint64_t seed, std::size_t blocks) {
  Rng rng(seed);
  std::string out;
  Pools pools = prelude(rng, &out);
  enum Kind { kTerm, kConst, kIf, kRecursive, kLoop };
  auto stmt = [&](std::size_t half, Kind kind) {
    const std::vector<std::string>& pool = pools.half[half];
    auto term = [&]() { return pool[rng.below(pool.size())]; };
    auto small = [&]() { return std::to_string(rng.range(0, 9)); };
    std::string lhs = half_var(rng, half);
    if (kind == kTerm) {
      out += "  " + lhs + " := " + term() + ";\n";
    } else if (kind == kConst) {
      out += "  " + lhs + " := " + small() + ";\n";
    } else if (kind == kIf) {
      out += "  if (" + half_var(rng, half) + " < " + small() + ") { " + lhs +
             " := " + term() + "; } else { " + half_var(rng, half) + " := " +
             small() + "; }\n";
    } else if (kind == kRecursive) {
      out += "  " + lhs + " := " + lhs + " + " + small() + ";\n";
    } else {
      // Bounded loop on a counter no other statement touches.
      std::string c = "c" + std::to_string(half);
      out += "  " + c + " := 0;\n  while (" + c + " < 3) { " + c + " := " + c +
             " + 1; " + lhs + " := " + term() + "; }\n";
    }
  };
  // Every component has the same mix of statement kinds in a random order:
  // sinking's cost depends strongly on the mix, and a fixed mix keeps the
  // programs of one input set comparable in size and cost.
  const Kind kMix[] = {kTerm,  kTerm, kTerm,      kTerm, kTerm,
                       kConst, kIf,   kIf,        kRecursive, kLoop};
  auto component = [&](std::size_t half) {
    std::vector<Kind> order(std::begin(kMix), std::end(kMix));
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (Kind k : order) stmt(half, k);
  };
  for (std::size_t b = 0; b < blocks; ++b) {
    out += "par {\n";
    component(0);
    out += "} and {\n";
    component(1);
    out += "}\n";
    out += "if (" + var(rng.below(kHalf)) + " < " + var(kHalf + rng.below(kHalf)) +
           ") { " + var(rng.below(2 * kHalf)) + " := " + pools.any(rng) +
           "; } else { " + var(rng.below(2 * kHalf)) + " := " + pools.any(rng) +
           "; }\n";
  }
  epilogue(rng, pools, &out);
  return out;
}

namespace {

// Statement-budgeted generator mirroring the shapes the translation
// validation fuzzer targets.
class FuzzGen {
 public:
  FuzzGen(std::uint64_t seed, std::string suffix)
      : rng_(seed), suffix_(std::move(suffix)) {}

  std::string run() {
    block(0, "");
    out_ += pick_var() + " := " + term() + ";\n";
    return std::move(out_);
  }

 private:
  static constexpr std::size_t kVars = 4;

  std::string pick_var() { return var(rng_.below(kVars)) + suffix_; }
  std::string operand() {
    return rng_.permille(200) ? std::to_string(rng_.range(0, 9)) : pick_var();
  }
  std::string term() {
    return operand() + " " + kOps[rng_.below(3)] + " " + operand();
  }
  std::string cond() {
    static const char* const kRels[] = {"<", "<=", "!="};
    if (!rng_.permille(200)) return "*";
    return operand() + " " + kRels[rng_.below(3)] + " " + operand();
  }

  void assignment(const std::string& in) {
    std::string lhs = pick_var();
    if (rng_.permille(150)) {
      out_ += in + lhs + " := " + operand() + ";\n";
      return;
    }
    std::string rhs = rng_.permille(200)
                          ? lhs + " " + kOps[rng_.below(3)] + " " + operand()
                          : term();
    out_ += in + lhs + " := " + rhs + ";\n";
  }

  std::pair<std::string, std::string> var_pair() {
    std::size_t a = rng_.below(kVars), b = rng_.below(kVars);
    while (b == a) b = rng_.below(kVars);
    return {var(a) + suffix_, var(b) + suffix_};
  }

  // Distinct operand values first: with everything zero a race is invisible.
  void init_distinct(const std::string& in, const std::string& a,
                     const std::string& b) {
    int ca = rng_.range(1, 5);
    out_ += in + a + " := " + std::to_string(ca) + ";\n";
    out_ += in + b + " := " + std::to_string(ca + rng_.range(1, 4)) + ";\n";
  }

  // Paper Fig. 4 shape: recursive occurrence then a plain one in a
  // component, a sibling occurrence and a post-join occurrence (P2).
  void p2_shape(const std::string& in) {
    auto [a, b] = var_pair();
    std::string occ = a + " " + kOps[rng_.below(3)] + " " + b;
    init_distinct(in, a, b);
    out_ += in + "par {\n";
    out_ += in + "  " + a + " := " + occ + ";\n";
    out_ += in + "  " + pick_var() + " := " + occ + ";\n";
    out_ += in + "} and {\n";
    out_ += in + "  " + pick_var() + " := " + occ + ";\n";
    out_ += in + "}\n";
    out_ += in + pick_var() + " := " + occ + ";\n";
  }

  // Paper Figs. 6/7 shape: occurrences bracketing an operand modification
  // in one component, a sibling occurrence, a post-join occurrence (P3).
  void p3_shape(const std::string& in) {
    auto [a, b] = var_pair();
    std::string occ = a + " " + kOps[rng_.below(3)] + " " + b;
    init_distinct(in, a, b);
    out_ += in + "par {\n";
    out_ += in + "  " + pick_var() + " := " + occ + ";\n";
    out_ += in + "  " + a + " := " + std::to_string(rng_.range(6, 9)) + ";\n";
    out_ += in + "  " + pick_var() + " := " + occ + ";\n";
    out_ += in + "} and {\n";
    out_ += in + "  " + pick_var() + " := " + occ + ";\n";
    if (rng_.permille(500)) {
      out_ += in + "  " + b + " := " + std::to_string(rng_.range(6, 9)) + ";\n";
      out_ += in + "  " + pick_var() + " := " + occ + ";\n";
    }
    out_ += in + "}\n";
    out_ += in + pick_var() + " := " + occ + ";\n";
  }

  void block(int depth, const std::string& in) {
    std::size_t n = 1 + rng_.below(3);
    for (std::size_t i = 0; i < n && budget_ > 0; ++i) statement(depth, in);
  }

  void statement(int depth, const std::string& in) {
    --budget_;
    if (depth > 0 && rng_.permille(60)) {
      out_ += in + "barrier;\n";
      return;
    }
    if (depth < 2 && budget_ >= 2 && rng_.permille(90)) {
      --budget_;
      p2_shape(in);
      return;
    }
    if (depth < 2 && budget_ >= 2 && rng_.permille(90)) {
      --budget_;
      p3_shape(in);
      return;
    }
    std::size_t roll = rng_.below(1000);
    std::string inner = in + "  ";
    if (roll < 180 && depth < 2 && budget_ >= 2) {
      std::size_t comps = 2 + rng_.below(2);
      out_ += in + "par {\n";
      for (std::size_t c = 0; c < comps; ++c) {
        if (c > 0) out_ += in + "} and {\n";
        block(depth + 1, inner);
      }
      out_ += in + "}\n";
    } else if (roll < 330) {
      out_ += in + "if (" + cond() + ") {\n";
      block(depth, inner);
      out_ += in + "} else {\n";
      block(depth, inner);
      out_ += in + "}\n";
    } else if (roll < 360) {
      out_ += in + "while (" + cond() + ") {\n";
      block(depth, inner);
      out_ += in + "}\n";
    } else if (roll < 410) {
      out_ += in + "choose {\n";
      block(depth, inner);
      out_ += in + "} or {\n";
      block(depth, inner);
      out_ += in + "}\n";
    } else {
      assignment(in);
    }
  }

  Rng rng_;
  std::string suffix_;
  std::string out_;
  int budget_ = 10;
};

}  // namespace

std::string fuzz_program(std::uint64_t shape_seed, const std::string& suffix) {
  return FuzzGen(shape_seed, suffix).run();
}

}  // namespace perfbench
