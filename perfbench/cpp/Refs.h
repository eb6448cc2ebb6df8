//===- Refs.h - Native references for benchmark outputs ---------*- C++ -*-===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plain C++ recomputations of what the benchmark's programs return,
/// from the same generated inputs, written independently of the .memoir
/// sources and of the ADE pipeline. The runner checks every program's
/// checksum against these (and every served response against its
/// expectation); tests/RefsTest.cpp checks each reference on small
/// hand-made inputs with known answers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFS_H
#define PERFBENCH_REFS_H

#include "bench/Workloads.h"
#include "serve/Workload.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// TC: the number of triangles of the simple undirected graph given by
/// the edge list A[i]-B[i] (self loops and repeated edges ignored).
uint64_t refTriangles(const ade::bench::Workload &W);

/// BFS from W.P0 over the undirected edge list: the sum, over the
/// levels, of the number of nodes reached so far after expanding that
/// level (one term per expanded level, the last one finding nothing
/// new), plus the number of nodes reached.
uint64_t refBfs(const ade::bench::Workload &W);

/// CC by min-label propagation: the number of connected components
/// (from a union-find) plus the number of propagation sweeps until no
/// label changes. A sweep visits nodes in first-appearance order of the
/// edge list and lets a node see labels already lowered in the same
/// sweep; neighbours are visited in edge-list order.
uint64_t refComponents(const ade::bench::Workload &W);

/// MST (Boruvka): the weight of the minimum spanning forest under
/// weights C[i] (ties broken by edge index; computed with Kruskal) plus
/// the number of Boruvka rounds, counting the last one that merges
/// nothing.
uint64_t refSpanningForest(const ade::bench::Workload &W);

/// The @serve handler's result for \p Key: the 64 values
/// ((Key + i) * 2654435761) mod 1024 are counted in a histogram; the
/// result is 4096 * (distinct values) + count of (Key * 2654435761)
/// mod 1024.
uint64_t refServe(uint64_t Key);

/// Key -> value for every key the BulkInsert requests of \p Streams
/// store, from the generator's key derivation.
std::unordered_map<uint64_t, uint64_t>
refStoredKeys(const std::vector<std::vector<ade::serve::Request>> &Streams,
              const ade::serve::Geometry &G);

} // namespace perfbench

#endif // PERFBENCH_REFS_H
