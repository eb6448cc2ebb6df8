//===- RefsTest.cpp - The native references on hand-made inputs -----------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Each native reference the benchmark checks programs against, run on
/// small inputs whose answers are worked out by hand. Exits non-zero on
/// the first wrong answer; perfbench/run.py runs it before every
/// measurement, and `ctest` in the benchmark's build directory runs it
/// too.
///
//===----------------------------------------------------------------------===//

#include "Refs.h"

#include <cstdio>
#include <initializer_list>
#include <utility>

using namespace perfbench;
using ade::bench::Workload;

namespace {

int Failures = 0;

void expect(const char *What, uint64_t Got, uint64_t Want) {
  if (Got == Want)
    return;
  std::fprintf(stderr, "FAIL %s: got %llu, want %llu\n", What,
               (unsigned long long)Got, (unsigned long long)Want);
  ++Failures;
}

Workload edges(std::initializer_list<std::pair<uint64_t, uint64_t>> Es,
               std::initializer_list<uint64_t> Weights = {}) {
  Workload W;
  for (auto [U, V] : Es) {
    W.A.push_back(U);
    W.B.push_back(V);
  }
  W.C.assign(Weights.begin(), Weights.end());
  return W;
}

void testTriangles() {
  // K4 has four triangles; labels are sparse like the generators'.
  Workload K4 = edges({{10, 20}, {10, 30}, {10, 40}, {20, 30}, {20, 40},
                       {30, 40}});
  expect("K4 triangles", refTriangles(K4), 4);
  // Repeated edges (both directions) and a self loop add nothing.
  Workload Tri = edges({{1, 2}, {2, 3}, {3, 1}, {2, 1}, {3, 3}});
  expect("triangle with duplicates", refTriangles(Tri), 1);
  // A 4-cycle has no triangle.
  expect("C4 triangles", refTriangles(edges({{1, 2}, {2, 3}, {3, 4}, {4, 1}})),
         0);
}

void testBfs() {
  // Path 1-2-3-4 from 1: levels reach 2, 3, 4, 4 (the last finds
  // nothing new) = 13, plus 4 reached = 17.
  Workload Path = edges({{1, 2}, {2, 3}, {3, 4}});
  Path.P0 = 1;
  expect("path BFS", refBfs(Path), 17);
  // Star centred on 5 with three leaves: levels reach 4, 4 = 8, plus 4.
  Workload Star = edges({{5, 6}, {5, 7}, {8, 5}});
  Star.P0 = 5;
  expect("star BFS", refBfs(Star), 12);
}

void testComponents() {
  // Two components {1,2,3} and {7,9}. Sweep order 3, 1, 2, 9, 7:
  // sweep 1 lowers 3->1, 2->1, 9->7; sweep 2 changes nothing. 2 + 2.
  Workload Two = edges({{3, 1}, {1, 2}, {9, 7}});
  expect("two components", refComponents(Two), 4);
  // Path 4-3-2-1 listed from the far end: each sweep moves label 1 one
  // step against the sweep order, so three lowering sweeps plus the
  // quiet one. 1 component + 4 sweeps.
  Workload Chain = edges({{4, 3}, {3, 2}, {2, 1}});
  expect("reverse chain", refComponents(Chain), 5);
}

void testSpanningForest() {
  // Triangle 1-2 (w1), 2-3 (w2), 1-3 (w3): forest weight 3. Round 1
  // every node takes its cheapest edge (1-2 for 1 and 2, 2-3 for 3)
  // and all three merge; round 2 merges nothing. 3 + 2.
  Workload Tri = edges({{1, 2}, {2, 3}, {1, 3}}, {1, 2, 3});
  expect("weighted triangle", refSpanningForest(Tri), 5);
  // Square with equal weights: ties go to the lower edge index, so the
  // forest keeps three edges of weight 5. Round 1: 1 and 2 take edge 0,
  // 3 takes edge 1, 4 takes edge 2, merging everything. 15 + 2.
  Workload Square =
      edges({{1, 2}, {2, 3}, {3, 4}, {4, 1}}, {5, 5, 5, 5});
  expect("equal-weight square", refSpanningForest(Square), 17);
}

void testServe() {
  // 2654435761 = 433 (mod 1024) and 433 is odd, so the 64 values
  // (Key + i) * 433 mod 1024 are distinct and the probe Key * 433 mod
  // 1024 is the i = 0 value, counted once: 64 * 4096 + 1 for any key.
  for (uint64_t Key : {0ULL, 1ULL, 1023ULL, 65535ULL, ~0ULL})
    expect("serve histogram", refServe(Key), 64 * 4096 + 1);
}

void testStoredKeys() {
  ade::serve::Geometry G;
  G.KeyUniverse = 1 << 20;
  ade::serve::Request Insert;
  Insert.Op = ade::serve::RequestOp::BulkInsert;
  Insert.Key = 42;
  Insert.Count = 3;
  ade::serve::Request Lookup;
  Lookup.Op = ade::serve::RequestOp::PointLookup;
  Lookup.Key = 7;
  auto Stored = refStoredKeys({{Insert, Lookup}, {Insert}}, G);
  // One batch of three derived keys (inserted twice) and no key from
  // the lookup.
  expect("stored key count", Stored.size(), 3);
  for (uint32_t I = 0; I != 3; ++I) {
    uint64_t Key = ade::serve::bulkKeyAt(G, 42, I);
    expect("stored value", Stored.count(Key) ? Stored.at(Key) : 0,
           ade::serve::valueOf(Key));
  }
}

} // namespace

int main() {
  testTriangles();
  testBfs();
  testComponents();
  testSpanningForest();
  testServe();
  testStoredKeys();
  if (Failures) {
    std::fprintf(stderr, "%d reference check(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench references: all checks passed\n");
  return 0;
}
