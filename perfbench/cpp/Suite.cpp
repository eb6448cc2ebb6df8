//===- Suite.cpp - The suite-dense and suite-translate workloads ----------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a set of the paper's programs at the evaluation scale (100) on
/// the bytecode VM, single-threaded, with the telemetry sink detached.
/// One round compiles every program under ADE (parse, runADE, bytecode
/// compile of every function) and runs it under `memoir` and `ade`: a
/// fresh VM, its bytecode compiled, the inputs filled, then the timed
/// @build and @kernel. A host-speed gauge (Gauge.h) is read between these
/// steps, and each measured time is scaled by the readings around it.
/// Rounds repeat until the run's time is spent; each program's scaled
/// times are those of its fastest round, summed over the programs. Every
/// checksum is checked: ade against memoir, every round against the
/// first, and against a native reference where one exists.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gauge.h"
#include "Layers.h"
#include "Refs.h"

#include "bench/Benchmarks.h"
#include "collections/MemoryTracker.h"
#include "interp/InterpError.h"
#include "parser/Parser.h"
#include "runtime/RtCollection.h"
#include "vm/VM.h"

#include <cstdio>
#include <functional>
#include <map>
#include <memory>

using namespace perfbench;
using namespace ade;
using bench::Workload;

namespace {

/// One program: its registry abbreviation, its input at scale 100 (the
/// sizes of src/bench/Benchmarks.cpp, with the seed taken from the run)
/// and, where written, its native reference.
struct Program {
  const char *Abbrev;
  std::function<Workload(uint64_t Seed)> Make;
  uint64_t (*Ref)(const Workload &) = nullptr;
};

Workload withParams(Workload W, uint64_t P0) {
  W.P0 = P0;
  return W;
}

std::vector<Program> programsOf(const std::string &Name) {
  using namespace ade::bench;
  if (Name == "suite-dense")
    return {
        {"BC",
         [](uint64_t S) {
           return withParams(connectedGraph(8000, 32000, S), 8);
         }},
        {"BFS",
         [](uint64_t S) {
           return withParams(connectedGraph(50000, 200000, S),
                             scrambleLabel(0));
         },
         refBfs},
        {"BP",
         [](uint64_t S) {
           return withParams(bipartiteGraph(10000, 60000, S), 10);
         }},
        {"FIM", [](uint64_t S) { return transactions(30000, 12, 2000, S); }},
        {"IS", [](uint64_t S) { return connectedGraph(50000, 200000, S); }},
        {"KC",
         [](uint64_t S) { return withParams(rmatGraph(30000, 150000, S), 4); }},
        {"KT",
         [](uint64_t S) {
           return withParams(erdosRenyiGraph(5000, 30000, S), 4);
         }},
        {"PR",
         [](uint64_t S) {
           return withParams(connectedGraph(20000, 100000, S), 10);
         }},
        {"SSSP",
         [](uint64_t S) {
           return withParams(weightedGraph(30000, 120000, S),
                             scrambleLabel(0));
         }},
        {"TC", [](uint64_t S) { return erdosRenyiGraph(4000, 60000, S); },
         refTriangles},
    };
  if (Name == "suite-translate")
    return {
        {"CC", [](uint64_t S) { return connectedGraph(20000, 80000, S); },
         refComponents},
        {"CD",
         [](uint64_t S) {
           return withParams(connectedGraph(15000, 60000, S), 6);
         }},
        {"MST", [](uint64_t S) { return weightedGraph(30000, 120000, S); },
         refSpanningForest},
        {"PP", [](uint64_t S) { return flowNetwork(12, 24, S); }},
        {"PTA",
         [](uint64_t S) { return pointsToConstraints(12000, 48, 24000, S); }},
    };
  return {};
}

/// The quantile of a program's per-round times that the run reports: the
/// fastest round. Rounds repeat the same work, and other tenants of the
/// host only ever add time to a round (their cache and memory-bandwidth
/// pressure swings a round by up to 2x), so the fastest of a run's five
/// to twelve rounds is the steadiest estimate of the program's own cost.
constexpr double RoundQ = 0;
/// Compile times are the median round's instead: the first round
/// compiles before any program has run, and for some programs runs up to
/// 3x faster than later rounds do, so its fastest round is a single,
/// unrepresentative sample.
constexpr double CompileQ = 0.5;

/// One run of one program under one configuration. BuildMs and KernelMs
/// are scaled by the host-speed factor of the run (Gauge.h); FillMs, part
/// of the cold set-up, is not.
struct RunSample {
  double FillMs = 0, BuildMs = 0, KernelMs = 0;
  uint64_t PeakBytes = 0;
  uint64_t Checksum = 0;
  EngineCounters Counters;
};

/// Runs @build and @kernel of \p M on a fresh VM. Every function is
/// compiled to bytecode first, so the timed calls hold no compile time
/// (compile_ms counts it). A guard-rail trip or any other diagnosed
/// runtime error is returned in \p Err.
bool runProgram(ir::Module &M, const Workload &W, SpanLog *Spans,
                const std::string &Label, RunSample &S, std::string &Err) {
  SpanLog::Scope Whole(Spans, "run " + Label, "run");
  try {
    interp::InterpOptions IO;
    IO.CollectStats = true;
    vm::VM E(M, IO);
    for (const auto &F : M.functions())
      E.compiled(F.get());
    uint64_t Seqs[3];
    uint64_t TF = nowNs();
    {
      SpanLog::Scope Sp(Spans, "fill inputs", "bench");
      ir::Type *SeqTy =
          M.types().seqTy(M.types().intTy(64, /*Signed=*/false));
      const std::vector<uint64_t> *Data[3] = {&W.A, &W.B, &W.C};
      for (unsigned I = 0; I != 3; ++I) {
        auto *Seq = static_cast<runtime::RtSeq *>(E.newCollection(SeqTy));
        for (uint64_t V : *Data[I])
          Seq->append(V);
        Seqs[I] = vm::VM::collToBits(Seq);
      }
    }
    S.FillMs = msSince(TF);
    MemoryTracker &Mem = MemoryTracker::instance();
    Mem.reset();
    uint64_t Base = Mem.currentBytes();
    uint64_t T0 = nowNs();
    {
      SpanLog::Scope Sp(Spans, "@build", "vm");
      E.callByName("build", {Seqs[0], Seqs[1], Seqs[2], W.P0, W.P1});
    }
    uint64_t T1 = nowNs();
    S.Counters.Build = E.stats();
    E.stats().reset();
    {
      SpanLog::Scope Sp(Spans, "@kernel", "vm");
      S.Checksum = E.callByName("kernel", {});
    }
    uint64_t T2 = nowNs();
    S.BuildMs = double(T1 - T0) / 1e6;
    S.KernelMs = double(T2 - T1) / 1e6;
    S.Counters.Kernel = E.stats();
    S.PeakBytes = Mem.peakBytes() - Base;
    S.Counters.Probes = E.probeTotals();
    return true;
  } catch (const interp::InterpError &Ex) {
    Err = Ex.what();
    return false;
  }
}

/// Per-program samples over the rounds.
struct ProgramSamples {
  std::vector<RunSample> Runs[2];
  /// Deterministic counters of the first round; later rounds must
  /// repeat them exactly.
  std::map<std::string, uint64_t> Counts;
};

template <typename Fn>
double quantileOf(const std::vector<RunSample> &V, double Q, Fn F) {
  std::vector<double> X;
  for (const RunSample &S : V)
    X.push_back(F(S));
  return quantile(X, Q);
}

} // namespace

Result perfbench::runSuite(const RunOptions &Opt, SpanLog *Spans) {
  Result R;
  std::vector<Program> Programs = programsOf(Opt.Workload);
  std::vector<Workload> Inputs;
  std::vector<std::string> Sources;
  uint64_t GenStart = nowNs();
  {
    SpanLog::Scope Sp(Spans, "generate inputs", "bench");
    for (size_t I = 0; I != Programs.size(); ++I) {
      Inputs.push_back(Programs[I].Make(deriveSeed(Opt.Seed, I)));
      Sources.push_back(bench::findBenchmark(Programs[I].Abbrev)->Source);
    }
  }
  double GenMs = msSince(GenStart);
  // The cold set-up up to here; filling the input sequences, repeated
  // for every program run, is added below as each program's fastest.
  double SetupS = double(nowNs() - Opt.StartNs) / 1e9;

  std::vector<ProgramSamples> Samples(Programs.size());
  std::vector<std::vector<CompileSample>> Compiles(Programs.size());
  // Every measured call is bracketed by gauge readings.
  SpeedGauge Gauge;
  std::vector<double> GaugeMs;
  auto ReadGauge = [&] {
    SpanLog::Scope Sp(Spans, "gauge", "bench");
    GaugeMs.push_back(Gauge.read());
    return GaugeMs.back();
  };
  runRounds(Opt.Workload, Opt.Seconds, [&](unsigned Round) {
    SpanLog::Scope RoundSpan(Spans, "round " + std::to_string(Round), "bench");
    double Before = ReadGauge();
    for (size_t P = 0; P != Programs.size(); ++P) {
      const char *Abbrev = Programs[P].Abbrev;
      ProgramSamples &PS = Samples[P];
      CompileSample CS;
      std::unique_ptr<ir::Module> Modules[2];
      Modules[1] = compileAde(Sources[P], Abbrev, Spans, CS, R);
      double After = ReadGauge();
      CS.Scale = SpeedGauge::factor(Before, After);
      Before = After;
      Modules[0] = parser::parseModuleOrDie(Sources[P]);
      std::map<std::string, uint64_t> Counts = CS.Counts;
      Compiles[P].push_back(std::move(CS));
      for (unsigned C = 0; C != 2; ++C) {
        ++R.Attempted;
        RunSample S;
        std::string Err;
        std::string Label = std::string(Abbrev) + " " + ConfigNames[C];
        bool Ok = runProgram(*Modules[C], Inputs[P], Spans, Label, S, Err);
        double After = ReadGauge();
        double Scale = SpeedGauge::factor(Before, After);
        Before = After;
        S.BuildMs *= Scale;
        S.KernelMs *= Scale;
        if (!Ok) {
          ++R.Failed;
          std::fprintf(stderr, "perfbench: %s failed: %s\n", Label.c_str(),
                       Err.c_str());
          continue;
        }
        engineCounterMap(ConfigNames[C], S.Counters, Counts);
        Counts[std::string("mem.") + ConfigNames[C] + ".peak_bytes"] =
            S.PeakBytes;
        PS.Runs[C].push_back(S);
      }
      if (Round == 0)
        PS.Counts = Counts;
      else if (Counts != PS.Counts)
        R.mismatch(std::string(Abbrev) +
                   ": deterministic counters differ between rounds");
    }
  });

  std::fprintf(stderr, "perfbench: gauge %.3f ms median, %.3f ms fastest\n",
               median(GaugeMs), quantile(GaugeMs, 0));

  // Correctness, outside the measured window.
  for (size_t P = 0; P != Programs.size(); ++P) {
    const ProgramSamples &PS = Samples[P];
    std::string Abbrev = Programs[P].Abbrev;
    uint64_t Want = 0;
    bool HaveWant = false;
    if (Programs[P].Ref) {
      Want = Programs[P].Ref(Inputs[P]);
      HaveWant = true;
    }
    for (unsigned C = 0; C != 2; ++C)
      for (const RunSample &S : PS.Runs[C]) {
        if (!HaveWant) {
          Want = S.Checksum;
          HaveWant = true;
        }
        if (S.Checksum != Want)
          R.mismatch(Abbrev + " " + ConfigNames[C] + ": checksum " +
                     std::to_string(S.Checksum) + ", expected " +
                     std::to_string(Want));
      }
  }

  // Operation latency: one program run (@build + @kernel) under one
  // configuration, in its fastest round.
  std::vector<double> OpUs;
  double OpSecondsSum = 0;
  double BuildMs[2] = {0, 0}, KernelMs[2] = {0, 0}, PeakMb[2] = {0, 0};
  for (const ProgramSamples &PS : Samples) {
    std::vector<double> FillMs;
    for (unsigned C = 0; C != 2; ++C)
      for (const RunSample &S : PS.Runs[C])
        FillMs.push_back(S.FillMs);
    SetupS += quantile(FillMs, RoundQ) / 1e3;
    for (unsigned C = 0; C != 2; ++C) {
      if (PS.Runs[C].empty())
        continue;
      BuildMs[C] += quantileOf(PS.Runs[C], RoundQ, [](const RunSample &S) {
        return S.BuildMs;
      });
      KernelMs[C] += quantileOf(PS.Runs[C], RoundQ, [](const RunSample &S) {
        return S.KernelMs;
      });
      PeakMb[C] += quantileOf(PS.Runs[C], 0.5, [](const RunSample &S) {
        return double(S.PeakBytes);
      }) / double(1 << 20);
      double Op = quantileOf(PS.Runs[C], RoundQ, [](const RunSample &S) {
        return S.BuildMs + S.KernelMs;
      });
      std::fprintf(
          stderr,
          "perfbench: %-4s %-6s build %8.2f ms (median %8.2f), kernel "
          "%8.2f ms (median %8.2f)\n",
          Programs[&PS - Samples.data()].Abbrev, ConfigNames[C],
          quantileOf(PS.Runs[C], RoundQ,
                     [](const RunSample &S) { return S.BuildMs; }),
          quantileOf(PS.Runs[C], 0.5,
                     [](const RunSample &S) { return S.BuildMs; }),
          quantileOf(PS.Runs[C], RoundQ,
                     [](const RunSample &S) { return S.KernelMs; }),
          quantileOf(PS.Runs[C], 0.5,
                     [](const RunSample &S) { return S.KernelMs; }));
      OpUs.push_back(Op * 1e3);
      OpSecondsSum += Op / 1e3;
    }
  }

  if (!Opt.Trace) {
    R.add("ade_kernel_ms", "ms", KernelMs[1]);
    R.add("memoir_kernel_ms", "ms", KernelMs[0]);
    R.add("ade_build_ms", "ms", BuildMs[1]);
    R.add("memoir_build_ms", "ms", BuildMs[0]);
    R.add("compile_ms", "ms", compileMs(Compiles, CompileQ));
    R.add("ade_peak_mb", "MB", PeakMb[1]);
    R.add("memoir_peak_mb", "MB", PeakMb[0]);
    R.add("setup_s", "s", SetupS);
    R.add("srv_p50_us", "us", quantile(OpUs, 0.50));
    R.add("srv_p99_us", "us", quantile(OpUs, 0.99));
    R.add("srv_capacity_rps", "1/s",
          OpSecondsSum > 0 ? double(OpUs.size()) / OpSecondsSum : 0);
    return R;
  }

  // Per-layer: engine counters are the (repeating) first-round values
  // summed over programs.
  addCompileLayers(Compiles, CompileQ, R);
  for (unsigned C = 0; C != 2; ++C) {
    EngineCounters Sum;
    for (const ProgramSamples &PS : Samples)
      if (!PS.Runs[C].empty())
        accumulate(Sum, PS.Runs[C].front().Counters);
    addEngineLayers(ConfigNames[C], Sum, KernelMs[C], R);
  }
  R.add("bench.gen_ms", "ms", GenMs);
  R.add("bench.gauge_ms", "ms", median(GaugeMs));
  addServeProbeLayers(Opt, Spans, R);
  return R;
}
