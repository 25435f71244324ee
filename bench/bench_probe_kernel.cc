// Probe-kernel microbenchmark: times find_in_window — the hot inner
// loop of every EBH lookup — for each SIMD tier available on this host,
// sweeping the conflict degree cd from 0 to 64. This isolates the
// kernel-level win from everything the figure benches layer on top
// (model traversal, batching, cache effects of real leaf layouts), and
// shows where each tier's crossover sits: at cd=0 the window is one
// slot and all tiers collapse to the same compare; the vector tiers pay
// off as the window outgrows their lane count.
//
// The slot array mimics a built EBH leaf: unique even keys scattered at
// a fixed load factor, empty slots holding the kEbhEmptySlot sentinel.
// Hit probes search a key present in the window; miss probes search an
// odd key (never stored), which is the worst case — the kernel must
// scan the whole window before giving up.
//
// Usage: bench_probe_kernel [--ops=N] [--scale=N] [--seed=N] [--json=P]
//   --scale sizes the slot array, --ops the probes per (tier, cd) cell.
// JSON rows: {"kernel": name, "cd": N, "hit_ns": X, "miss_ns": X}.

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/ebh_leaf.h"
#include "src/simd/probe_kernel.h"
#include "src/util/timer.h"

using namespace chameleon;
using namespace chameleon::bench;

namespace {

// One pre-generated probe: window [lo, hi] and the key to search.
struct Probe {
  size_t lo;
  size_t hi;
  Key key;
};

// Mean ns per find_in_window call over the probe set. The found-index
// sum feeds a volatile sink so the calls cannot be optimized away.
double TimeProbes(const simd::ProbeKernels& k, const std::vector<Key>& slots,
                  const std::vector<Probe>& probes) {
  size_t sink = 0;
  Timer timer;
  for (const Probe& p : probes) {
    sink += k.find_in_window(slots.data(), p.lo, p.hi, p.key);
  }
  const double ns = static_cast<double>(timer.ElapsedNanos());
  static volatile size_t g_sink;
  g_sink = sink;
  (void)g_sink;
  return ns / static_cast<double>(probes.size());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::Parse(argc, argv, {}, {.spec = false});
  JsonReport report("probe_kernel", opt);

  // Slot array at ~0.8 load: unique even keys so odd keys always miss.
  const size_t cap = std::max<size_t>(opt.scale, 4096);
  std::vector<Key> slots(cap, kEbhEmptySlot);
  std::mt19937_64 rng(opt.seed);
  std::vector<size_t> occupied;
  occupied.reserve(cap);
  for (size_t i = 0; i < cap; ++i) {
    if ((rng() % 10) < 8) {
      slots[i] = static_cast<Key>(i) * 2;  // unique, even, != sentinel
      occupied.push_back(i);
    }
  }

  const std::vector<simd::SimdLevel> levels = simd::AvailableSimdLevels();
  std::printf("=== probe-kernel sweep: find_in_window ns/probe ===\n");
  std::printf("slots=%zu (load 0.8), probes/cell=%zu, tiers:", cap, opt.ops);
  for (simd::SimdLevel l : levels) {
    std::printf(" %s", std::string(simd::SimdLevelName(l)).c_str());
  }
  std::printf("\n\n%-8s %8s", "cd", "");
  for (simd::SimdLevel l : levels) {
    std::printf(" %10s-hit %9s-miss",
                std::string(simd::SimdLevelName(l)).c_str(),
                std::string(simd::SimdLevelName(l)).c_str());
  }
  std::printf("\n");
  PrintRule(20 + 26 * static_cast<int>(levels.size()));

  for (size_t cd = 0; cd <= 64; ++cd) {
    // Fresh probe sets per cd (shared across tiers, so tiers at the
    // same cd see byte-identical work).
    std::mt19937_64 prng(opt.seed + cd);
    std::vector<Probe> hits;
    std::vector<Probe> misses;
    hits.reserve(opt.ops);
    misses.reserve(opt.ops);
    while (hits.size() < opt.ops) {
      const size_t target = occupied[prng() % occupied.size()];
      // Window centered so the target lands at a random in-window
      // offset, clamped like EbhLeaf::LookupAt clamps.
      const size_t shift = cd == 0 ? 0 : prng() % (2 * cd + 1);
      const size_t center =
          std::min(cap - 1, target + cd < shift ? 0 : target + cd - shift);
      const size_t lo = center > cd ? center - cd : 0;
      const size_t hi = center + cd < cap ? center + cd : cap - 1;
      if (target < lo || target > hi) continue;
      hits.push_back({lo, hi, slots[target]});
    }
    for (size_t i = 0; i < opt.ops; ++i) {
      const size_t center = prng() % cap;
      const size_t lo = center > cd ? center - cd : 0;
      const size_t hi = center + cd < cap ? center + cd : cap - 1;
      // Odd keys are never stored; dodge the (odd) empty-slot sentinel
      // so the probe cannot "hit" an empty slot.
      Key miss_key = static_cast<Key>(prng() * 2 + 1);
      if (miss_key == kEbhEmptySlot) miss_key = 1;
      misses.push_back({lo, hi, miss_key});
    }

    std::printf("%-8zu %8s", cd, "");
    for (simd::SimdLevel l : levels) {
      const simd::ProbeKernels* k = simd::KernelsForLevel(l);
      const double hit_ns = TimeProbes(*k, slots, hits);
      const double miss_ns = TimeProbes(*k, slots, misses);
      std::printf(" %14.2f %14.2f", hit_ns, miss_ns);
      report.AddRow()
          .Str("kernel", k->name)
          .Num("cd", static_cast<double>(cd))
          .Num("hit_ns", hit_ns)
          .Num("miss_ns", miss_ns);
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  std::printf("\nExpected shape: tiers tie at cd=0; wider tiers pull ahead "
              "as 2cd+1 outgrows their lane count, most on misses (full "
              "window scanned)\n");
  report.Write();
  return 0;
}
