//===- Bench.h - Shared types of the benchmark runner -----------*- C++ -*-===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark runner shares: the run options
/// parsed from the command line, the result record printed as the last
/// line of output, and small timing and order-statistic helpers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One invocation: `--workload W --seed N --seconds S --trace 0|1`.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  /// Traced run: records spans and reports the per-layer metrics
  /// instead of the end-to-end ones.
  bool Trace = false;
  /// Chrome trace JSON written by a traced run (empty: none).
  std::string TraceOut;
  /// The program that defines the served @serve handler.
  std::string HandlerPath;
  /// Steady-clock ns at main() entry, the start of the cold set-up.
  uint64_t StartNs = 0;
};

/// The two compiler configurations every workload compares.
inline const char *const ConfigNames[2] = {"memoir", "ade"};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

/// The record printed as the last line of output.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Mismatches seen; the first few are printed.
  unsigned Mismatches = 0;

  void add(std::string Name, std::string Unit, double Value) {
    Metrics.push_back({std::move(Name), std::move(Unit), Value});
  }
  /// Marks the run incorrect and says why on stderr.
  void mismatch(const std::string &What);
};

inline uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

inline double msSince(uint64_t StartNs) {
  return double(nowNs() - StartNs) / 1e6;
}

/// Linear-interpolated quantile (Q in [0, 1]) of \p V; 0 when empty.
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// Runs \p Round at least three times, then repeats it while one more
/// round, if as long as the last, would end within \p Seconds of the
/// first round's start; every run attempts whole rounds. Reports the
/// round count and the median and fastest round times on stderr (tracing
/// overhead is the traced run's fastest round against the untraced
/// one's).
template <typename Fn>
void runRounds(const std::string &Workload, double Seconds, Fn &&Round) {
  const size_t MinRounds = 3;
  std::vector<double> Secs;
  uint64_t Start = nowNs(), Last = 0;
  while (Secs.size() < MinRounds ||
         double(nowNs() + Last - Start) / 1e9 <= Seconds) {
    uint64_t T = nowNs();
    Round(unsigned(Secs.size()));
    Last = nowNs() - T;
    Secs.push_back(double(Last) / 1e9);
  }
  std::fprintf(stderr,
               "perfbench: %s: %zu rounds, median %.4f s, fastest %.4f s "
               "per round\n",
               Workload.c_str(), Secs.size(), median(Secs), quantile(Secs, 0));
}

/// Reads the whole file \p Path into \p Out; false when it cannot.
bool readFile(const std::string &Path, std::string &Out);

/// Derives an independent generator seed from the run seed and a salt,
/// so every input of one run differs from every other but repeats for
/// the same --seed.
uint64_t deriveSeed(uint64_t Seed, uint64_t Salt);

Result runSuite(const RunOptions &Opt, SpanLog *Spans);
Result runServe(const RunOptions &Opt, SpanLog *Spans);

/// The serve.* per-layer metrics of two short rounds of the serve-mixed
/// stream; the suites' traced runs report these so every traced run
/// names every per-layer metric.
void addServeProbeLayers(const RunOptions &Opt, SpanLog *Spans, Result &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
