//===- Main.cpp - The benchmark runner ------------------------------------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///   perfbench_run --workload suite-dense|suite-translate|serve-mixed
///                 --seed N --seconds S --trace 0|1 --handler FILE
///                 [--trace-out FILE]
///
/// Runs one workload for about S seconds and prints, as the last line of
/// standard output, one JSON object: whether every checked output was
/// correct, the operations attempted and failed, and the metrics — the
/// end-to-end ones untraced, the per-layer ones with --trace 1 (which
/// also writes the benchmark's spans to FILE as Chrome trace JSON).
/// FILE after --handler is the program defining the served @serve
/// handler (examples/serve.memoir). Progress and failures go to standard
/// error.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Hashing.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace perfbench;

uint64_t perfbench::deriveSeed(uint64_t Seed, uint64_t Salt) {
  return ade::hashU64(Seed * 0x9e3779b97f4a7c15ULL + Salt + 1);
}

bool perfbench::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

void Result::mismatch(const std::string &What) {
  if (++Mismatches <= 20)
    std::fprintf(stderr, "perfbench: incorrect output: %s\n", What.c_str());
  Correct = false;
}

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench_run: %s\n"
               "usage: perfbench_run --workload NAME --seed N --seconds S "
               "--trace 0|1 --handler FILE [--trace-out FILE]\n",
               Why);
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!*S)
    return false;
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return *End == '\0';
}

void printResult(const Result &R) {
  std::string Line = "{\"correct\": ";
  Line += R.Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(R.Attempted);
  Line += ", \"failed\": " + std::to_string(R.Failed);
  Line += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Line += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Opt;
  Opt.StartNs = nowNs();
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    const char *Val = Argv[++I];
    uint64_t N = 0;
    if (Arg == "--workload") {
      Opt.Workload = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed" && parseUnsigned(Val, N)) {
      Opt.Seed = N;
      HaveSeed = true;
    } else if (Arg == "--seconds" && parseUnsigned(Val, N) && N > 0 &&
               N <= 600) {
      Opt.Seconds = double(N);
      HaveSeconds = true;
    } else if (Arg == "--trace" && parseUnsigned(Val, N) && N <= 1) {
      Opt.Trace = N == 1;
      HaveTrace = true;
    } else if (Arg == "--handler") {
      Opt.HandlerPath = Val;
    } else if (Arg == "--trace-out") {
      Opt.TraceOut = Val;
    } else {
      return usage(("bad argument " + Arg + " " + Val).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace ||
      Opt.HandlerPath.empty())
    return usage(
        "--workload, --seed, --seconds, --trace and --handler are required");

  SpanLog Log;
  SpanLog *Spans = Opt.Trace ? &Log : nullptr;
  Result R;
  if (Opt.Workload == "suite-dense" || Opt.Workload == "suite-translate")
    R = runSuite(Opt, Spans);
  else if (Opt.Workload == "serve-mixed")
    R = runServe(Opt, Spans);
  else
    return usage(("unknown workload " + Opt.Workload).c_str());

  if (Spans && !Opt.TraceOut.empty()) {
    if (!Log.write(Opt.TraceOut)) {
      std::fprintf(stderr, "perfbench_run: cannot write %s\n",
                   Opt.TraceOut.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", Log.size(),
                 Opt.TraceOut.c_str());
  }
  printResult(R);
  return 0;
}
