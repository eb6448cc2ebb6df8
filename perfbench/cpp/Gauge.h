//===- Gauge.h - Host-speed gauge for scaling measured times ----*- C++ -*-===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed native workload, timed between the benchmark's measured calls,
/// that reads how fast the host runs interpreter-like code at that moment.
/// On a shared host, other tenants slow the VM's dispatch and memory
/// accesses by up to 2x for seconds to minutes at a time. The benchmark
/// therefore scales every measured time by RefMs over the mean of the
/// gauge readings taken just before and just after it. The gauge is the
/// benchmark's own code, so no change to the program moves it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GAUGE_H
#define PERFBENCH_GAUGE_H

#include <cstdint>
#include <vector>

namespace perfbench {

class SpeedGauge {
public:
  /// A typical reading, in ms, on the 4-vCPU host of perfbench/README.md.
  /// It only sets the scale: a time measured while the gauge reads RefMs
  /// is reported unchanged.
  static constexpr double RefMs = 7.0;

  SpeedGauge();

  /// Runs the gauge (an untimed warm-up pass, then the timed pass) and
  /// returns the timed pass's milliseconds.
  double read();

  /// The factor for a time measured between readings \p BeforeMs and
  /// \p AfterMs.
  static double factor(double BeforeMs, double AfterMs) {
    return 2 * RefMs / (BeforeMs + AfterMs);
  }

private:
  double pass(unsigned Reps);

  /// A pseudo-random program over eight opcodes, ended by a stop opcode.
  std::vector<uint8_t> Code;
  /// A 16 MB table the program loads from at random.
  std::vector<uint32_t> Table;
};

} // namespace perfbench

#endif // PERFBENCH_GAUGE_H
