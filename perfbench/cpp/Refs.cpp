//===- Refs.cpp - Native references for benchmark outputs -----------------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Refs.h"

#include <algorithm>
#include <numeric>

using namespace perfbench;
using ade::bench::Workload;

namespace {

/// Dense ids for the sparse labels of an edge list, in first-appearance
/// order (A[i] before B[i]).
struct DenseGraph {
  std::unordered_map<uint64_t, uint32_t> Id;
  std::vector<uint64_t> Label;
  std::vector<std::vector<uint32_t>> Adj;

  uint32_t node(uint64_t L) {
    auto [It, Fresh] = Id.try_emplace(L, uint32_t(Label.size()));
    if (Fresh) {
      Label.push_back(L);
      Adj.emplace_back();
    }
    return It->second;
  }

  explicit DenseGraph(const Workload &W) {
    for (size_t I = 0; I != W.A.size(); ++I) {
      uint32_t U = node(W.A[I]), V = node(W.B[I]);
      Adj[U].push_back(V);
      Adj[V].push_back(U);
    }
  }
};

struct UnionFind {
  std::vector<uint32_t> Parent;
  explicit UnionFind(size_t N) : Parent(N) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }
  uint32_t find(uint32_t X) {
    while (Parent[X] != X)
      X = Parent[X] = Parent[Parent[X]];
    return X;
  }
  bool unite(uint32_t A, uint32_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return false;
    Parent[A] = B;
    return true;
  }
};

} // namespace

uint64_t perfbench::refTriangles(const Workload &W) {
  // Orient every edge from the smaller to the larger dense id and count
  // each triangle u < v < w once, at its smallest vertex.
  DenseGraph G(W);
  size_t N = G.Label.size();
  std::vector<std::vector<uint32_t>> Up(N);
  for (uint32_t U = 0; U != N; ++U) {
    for (uint32_t V : G.Adj[U])
      if (V > U)
        Up[U].push_back(V);
    std::sort(Up[U].begin(), Up[U].end());
    Up[U].erase(std::unique(Up[U].begin(), Up[U].end()), Up[U].end());
  }
  uint64_t Count = 0;
  for (uint32_t U = 0; U != N; ++U)
    for (uint32_t V : Up[U]) {
      // |Up[U] ∩ Up[V]| by a sorted merge.
      auto I = Up[U].begin(), J = Up[V].begin();
      while (I != Up[U].end() && J != Up[V].end()) {
        if (*I < *J)
          ++I;
        else if (*J < *I)
          ++J;
        else {
          ++Count;
          ++I;
          ++J;
        }
      }
    }
  return Count;
}

uint64_t perfbench::refBfs(const Workload &W) {
  DenseGraph G(W);
  auto It = G.Id.find(W.P0);
  if (It == G.Id.end())
    return 0;
  std::vector<bool> Seen(G.Label.size(), false);
  std::vector<uint32_t> Frontier{It->second};
  Seen[It->second] = true;
  uint64_t Reached = 1, Sum = 0;
  while (true) {
    std::vector<uint32_t> Next;
    for (uint32_t U : Frontier)
      for (uint32_t V : G.Adj[U])
        if (!Seen[V]) {
          Seen[V] = true;
          Next.push_back(V);
        }
    Reached += Next.size();
    Sum += Reached;
    if (Next.empty())
      break;
    Frontier = std::move(Next);
  }
  return Sum + Reached;
}

uint64_t perfbench::refComponents(const Workload &W) {
  DenseGraph G(W);
  size_t N = G.Label.size();
  UnionFind UF(N);
  uint64_t Components = N;
  for (uint32_t U = 0; U != N; ++U)
    for (uint32_t V : G.Adj[U])
      if (UF.unite(U, V))
        --Components;

  std::vector<uint64_t> Label(G.Label);
  uint64_t Sweeps = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Sweeps;
    for (uint32_t U = 0; U != N; ++U) {
      uint64_t Best = Label[U];
      for (uint32_t V : G.Adj[U])
        Best = std::min(Best, Label[V]);
      if (Best < Label[U]) {
        Label[U] = Best;
        Changed = true;
      }
    }
  }
  return Components + Sweeps;
}

uint64_t perfbench::refSpanningForest(const Workload &W) {
  DenseGraph G(W);
  size_t N = G.Label.size(), E = W.A.size();
  std::vector<uint32_t> From(E), To(E);
  for (size_t I = 0; I != E; ++I) {
    From[I] = G.Id.at(W.A[I]);
    To[I] = G.Id.at(W.B[I]);
  }
  auto Key = [&](size_t I) { return std::make_pair(W.C[I], I); };

  // Kruskal for the forest weight.
  std::vector<size_t> Order(E);
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(),
            [&](size_t X, size_t Y) { return Key(X) < Key(Y); });
  UnionFind Kruskal(N);
  uint64_t Weight = 0;
  for (size_t I : Order)
    if (Kruskal.unite(From[I], To[I]))
      Weight += W.C[I];

  // Boruvka for the round count: every component takes its cheapest
  // outgoing edge, all of them merge at once.
  UnionFind Boruvka(N);
  uint64_t Rounds = 0;
  while (true) {
    ++Rounds;
    std::vector<size_t> Cheapest(N, E);
    for (size_t I = 0; I != E; ++I) {
      uint32_t A = Boruvka.find(From[I]), B = Boruvka.find(To[I]);
      if (A == B)
        continue;
      for (uint32_t R : {A, B})
        if (Cheapest[R] == E || Key(I) < Key(Cheapest[R]))
          Cheapest[R] = I;
    }
    bool Merged = false;
    for (uint32_t R = 0; R != N; ++R)
      if (Cheapest[R] != E &&
          Boruvka.unite(From[Cheapest[R]], To[Cheapest[R]]))
        Merged = true;
    if (!Merged)
      break;
  }
  return Weight + Rounds;
}

uint64_t perfbench::refServe(uint64_t Key) {
  const uint64_t Scramble = 2654435761ULL;
  std::unordered_map<uint64_t, uint64_t> Hist;
  for (uint64_t I = 0; I != 64; ++I)
    ++Hist[((Key + I) * Scramble) % 1024];
  auto It = Hist.find((Key * Scramble) % 1024);
  uint64_t Bonus = It == Hist.end() ? 0 : It->second;
  return uint64_t(Hist.size()) * 4096 + Bonus;
}

std::unordered_map<uint64_t, uint64_t> perfbench::refStoredKeys(
    const std::vector<std::vector<ade::serve::Request>> &Streams,
    const ade::serve::Geometry &G) {
  std::unordered_map<uint64_t, uint64_t> Stored;
  for (const auto &Stream : Streams)
    for (const ade::serve::Request &R : Stream)
      if (R.Op == ade::serve::RequestOp::BulkInsert)
        for (uint32_t I = 0; I != R.Count; ++I) {
          uint64_t Key = ade::serve::bulkKeyAt(G, R.Key, I);
          Stored[Key] = ade::serve::valueOf(Key);
        }
  return Stored;
}
