//===- Layers.h - Timed compile and per-layer counters ----------*- C++ -*-===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload measures the same way: the compile path timed for
/// `compile_ms` (parse, runADE, bytecode compile of every function, with
/// the per-pass split and compile-time counters), and the per-layer
/// metrics of the compiler and of one engine configuration.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Bench.h"

#include "ir/IR.h"
#include "runtime/RtCollection.h"
#include "runtime/Stats.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct CompileSample {
  /// Measured times; compileMs and addCompileLayers report them times
  /// Scale, the host-speed factor (Gauge.h) of the compile.
  double TotalMs = 0, ParseMs = 0, AdeMs = 0, VmMs = 0;
  double Scale = 1;
  /// "core.<pass>_ms" -> milliseconds, from PipelineResult::Timing.
  std::map<std::string, double> PassMs;
  /// ir.insts_in/out, vm.bytecode_insts and the core.* decision counts.
  std::map<std::string, uint64_t> Counts;
};

/// Parses \p Src, runs ADE on it and compiles every function to
/// bytecode, timing each step (with spans when \p Spans is set). Marks
/// \p R incorrect if the pass times sum to more than the runADE span.
std::unique_ptr<ade::ir::Module> compileAde(const std::string &Src,
                                            const std::string &Label,
                                            SpanLog *Spans, CompileSample &S,
                                            Result &R);

/// Sum over programs of each program's compile time, the quantile \p Q
/// of its samples over the rounds (\p ByProgram holds them).
double compileMs(const std::vector<std::vector<CompileSample>> &ByProgram,
                 double Q);

/// Adds parser.*, ir.*, core.* and vm.compile_ms / vm.bytecode_insts:
/// times as the quantile \p Q over rounds summed over programs, counters
/// from the first round summed over programs.
void addCompileLayers(const std::vector<std::vector<CompileSample>> &ByProgram,
                      double Q, Result &R);

/// The counters of one engine configuration over its set-up call(s)
/// (\p Build) and its measured call(s) (\p Kernel).
struct EngineCounters {
  ade::runtime::InterpStats Build, Kernel;
  ade::runtime::ProbeCounters Probes;
};

/// Sums \p From into \p Into (counters of several programs).
void accumulate(EngineCounters &Into, const EngineCounters &From);

/// Adds vm.<Config>.* and runtime.<Config>.*; \p KernelMs is the
/// measured time of the Kernel calls.
void addEngineLayers(const char *Config, const EngineCounters &C,
                     double KernelMs, Result &R);

/// Flattens \p C into name -> value under the addEngineLayers names, for
/// checking that rounds repeat them exactly.
void engineCounterMap(const char *Config, const EngineCounters &C,
                      std::map<std::string, uint64_t> &Out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
