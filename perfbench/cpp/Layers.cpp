//===- Layers.cpp - Timed compile and per-layer counters ------------------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "core/Pipeline.h"
#include "parser/Parser.h"
#include "vm/VM.h"

using namespace perfbench;
using namespace ade;

namespace {

const char *const CorePasses[] = {"cloning",   "analysis",  "planning",
                                  "absint",    "transform", "selection",
                                  "verify"};
const char *const CoreCounts[] = {
    "core.enumerations", "core.enc_inserted",   "core.dec_inserted",
    "core.add_inserted", "core.rte_eliminated", "core.functions_cloned"};

uint64_t countInsts(const ir::Region &R) {
  uint64_t N = 0;
  for (const ir::Instruction *I : R) {
    ++N;
    for (unsigned K = 0; K != I->numRegions(); ++K)
      N += countInsts(*I->region(K));
  }
  return N;
}

uint64_t countInsts(const ir::Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.functions())
    N += countInsts(F->body());
  return N;
}

} // namespace

std::unique_ptr<ir::Module> perfbench::compileAde(const std::string &Src,
                                                  const std::string &Label,
                                                  SpanLog *Spans,
                                                  CompileSample &S,
                                                  Result &R) {
  SpanLog::Scope Whole(Spans, "compile " + Label, "compile");
  uint64_t T0 = nowNs();
  std::unique_ptr<ir::Module> M;
  {
    SpanLog::Scope Sp(Spans, "parse", "parser");
    M = parser::parseModuleOrDie(Src);
  }
  uint64_t T1 = nowNs();
  S.Counts["ir.insts_in"] = countInsts(*M);
  core::PipelineResult P;
  {
    SpanLog::Scope Sp(Spans, "runADE", "core");
    P = core::runADE(*M);
  }
  uint64_t T2 = nowNs();
  S.Counts["ir.insts_out"] = countInsts(*M);
  uint64_t Bytecode = 0;
  {
    SpanLog::Scope Sp(Spans, "bytecode compile", "vm");
    vm::VM V(*M);
    for (const auto &F : M->functions())
      Bytecode += V.compiled(F.get()).Code.size();
  }
  uint64_t T3 = nowNs();
  S.TotalMs = double(T3 - T0) / 1e6;
  S.ParseMs = double(T1 - T0) / 1e6;
  S.AdeMs = double(T2 - T1) / 1e6;
  S.VmMs = double(T3 - T2) / 1e6;
  double PassSum = 0;
  for (const TimerGroup::Phase &Ph : P.Timing.phases()) {
    S.PassMs["core." + Ph.Name + "_ms"] = Ph.Seconds * 1e3;
    PassSum += Ph.Seconds * 1e3;
  }
  if (PassSum > S.AdeMs)
    R.mismatch(Label + ": pass times exceed the runADE span");
  S.Counts["vm.bytecode_insts"] = Bytecode;
  S.Counts["core.enumerations"] = P.Transform.EnumerationsCreated;
  S.Counts["core.enc_inserted"] = P.Transform.EncInserted;
  S.Counts["core.dec_inserted"] = P.Transform.DecInserted;
  S.Counts["core.add_inserted"] = P.Transform.AddInserted;
  S.Counts["core.rte_eliminated"] = P.Transform.TranslationsSkipped;
  S.Counts["core.functions_cloned"] = P.FunctionsCloned;
  return M;
}

double perfbench::compileMs(
    const std::vector<std::vector<CompileSample>> &ByProgram, double Q) {
  double Sum = 0;
  for (const auto &Samples : ByProgram) {
    std::vector<double> V;
    for (const CompileSample &S : Samples)
      V.push_back(S.TotalMs * S.Scale);
    Sum += quantile(V, Q);
  }
  return Sum;
}

void perfbench::addCompileLayers(
    const std::vector<std::vector<CompileSample>> &ByProgram, double Q,
    Result &R) {
  std::map<std::string, double> Ms;
  std::map<std::string, uint64_t> Counts;
  for (const auto &Samples : ByProgram) {
    if (Samples.empty())
      continue;
    std::map<std::string, std::vector<double>> ByName;
    for (const CompileSample &S : Samples) {
      ByName["parser.parse_ms"].push_back(S.ParseMs * S.Scale);
      ByName["vm.compile_ms"].push_back(S.VmMs * S.Scale);
      for (const auto &[Name, V] : S.PassMs)
        ByName[Name].push_back(V * S.Scale);
    }
    for (const auto &[Name, V] : ByName)
      Ms[Name] += quantile(V, Q);
    for (const auto &[Name, V] : Samples.front().Counts)
      Counts[Name] += V;
  }
  R.add("parser.parse_ms", "ms", Ms["parser.parse_ms"]);
  R.add("ir.insts_in", "count", double(Counts["ir.insts_in"]));
  R.add("ir.insts_out", "count", double(Counts["ir.insts_out"]));
  for (const char *Pass : CorePasses) {
    std::string Name = std::string("core.") + Pass + "_ms";
    R.add(Name, "ms", Ms[Name]);
  }
  for (const char *Name : CoreCounts)
    R.add(Name, "count", double(Counts[Name]));
  R.add("vm.compile_ms", "ms", Ms["vm.compile_ms"]);
  R.add("vm.bytecode_insts", "count", double(Counts["vm.bytecode_insts"]));
}

void perfbench::engineCounterMap(const char *Config, const EngineCounters &C,
                                 std::map<std::string, uint64_t> &Out) {
  std::string Vm = std::string("vm.") + Config + ".";
  std::string Rt = std::string("runtime.") + Config + ".";
  Out[Vm + "build_insts"] = C.Build.InstructionsExecuted;
  Out[Vm + "kernel_insts"] = C.Kernel.InstructionsExecuted;
  Out[Rt + "sparse"] = C.Build.Sparse + C.Kernel.Sparse;
  Out[Rt + "dense"] = C.Build.Dense + C.Kernel.Dense;
  for (unsigned K = 0; K != runtime::InterpStats::NumCats; ++K)
    Out[Rt + "op." + runtime::opCategoryName(runtime::OpCategory(K))] =
        C.Build.ByCategory[K] + C.Kernel.ByCategory[K];
  Out[Rt + "probes"] = C.Probes.Probes;
  Out[Rt + "rehashes"] = C.Probes.Rehashes;
}

void perfbench::addEngineLayers(const char *Config, const EngineCounters &C,
                                double KernelMs, Result &R) {
  std::map<std::string, uint64_t> Counts;
  engineCounterMap(Config, C, Counts);
  std::string Vm = std::string("vm.") + Config + ".";
  std::string Rt = std::string("runtime.") + Config + ".";
  uint64_t Insts = Counts[Vm + "kernel_insts"];
  R.add(Vm + "build_insts", "count", double(Counts[Vm + "build_insts"]));
  R.add(Vm + "kernel_insts", "count", double(Insts));
  R.add(Vm + "kernel_ns_per_inst", "ns/inst",
        Insts ? KernelMs * 1e6 / double(Insts) : 0);
  R.add(Rt + "sparse", "count", double(Counts[Rt + "sparse"]));
  R.add(Rt + "dense", "count", double(Counts[Rt + "dense"]));
  for (unsigned K = 0; K != runtime::InterpStats::NumCats; ++K) {
    std::string Name =
        Rt + "op." + runtime::opCategoryName(runtime::OpCategory(K));
    R.add(Name, "count", double(Counts[Name]));
  }
  R.add(Rt + "probes", "count", double(Counts[Rt + "probes"]));
  R.add(Rt + "rehashes", "count", double(Counts[Rt + "rehashes"]));
}

void perfbench::accumulate(EngineCounters &Into, const EngineCounters &From) {
  auto Add = [](runtime::InterpStats &A, const runtime::InterpStats &B) {
    A.Sparse += B.Sparse;
    A.Dense += B.Dense;
    A.InstructionsExecuted += B.InstructionsExecuted;
    for (unsigned K = 0; K != runtime::InterpStats::NumCats; ++K)
      A.ByCategory[K] += B.ByCategory[K];
  };
  Add(Into.Build, From.Build);
  Add(Into.Kernel, From.Kernel);
  Into.Probes.Probes += From.Probes.Probes;
  Into.Probes.Rehashes += From.Probes.Rehashes;
}
