//===- Gauge.cpp - Host-speed gauge for scaling measured times ------------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The gauge is a small direct-threaded interpreter (computed goto, as the
/// bytecode VM dispatches) running a fixed pseudo-random program whose
/// opcodes mix arithmetic, data-dependent branches and random loads from
/// a 16 MB table. Host contention slows it through the same resources it
/// slows the VM through: indirect-branch prediction, caches and memory.
///
//===----------------------------------------------------------------------===//

#include "Gauge.h"

#include "Bench.h"

using namespace perfbench;

namespace {

uint64_t xorshift(uint64_t &X) {
  X ^= X << 13;
  X ^= X >> 7;
  X ^= X << 17;
  return X;
}

constexpr unsigned CodeLen = 8192;
constexpr unsigned TableLen = 1u << 22;
constexpr unsigned WarmReps = 10, TimedReps = 40;

volatile uint64_t Sink;

} // namespace

SpeedGauge::SpeedGauge() : Code(CodeLen), Table(TableLen) {
  uint64_t X = 0x2545F4914F6CDD1DULL;
  for (uint8_t &Op : Code)
    Op = uint8_t(xorshift(X) % 8);
  Code.back() = 8;
  for (uint32_t &V : Table)
    V = uint32_t(xorshift(X));
}

double SpeedGauge::pass(unsigned Reps) {
  static void *const Labels[] = {&&op0, &&op1, &&op2, &&op3, &&op4,
                                 &&op5, &&op6, &&op7, &&stop};
  const uint32_t *T = Table.data();
  uint64_t A = 1, B = 2, Acc = 0;
  uint64_t Start = nowNs();
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    const uint8_t *PC = Code.data();
    goto *Labels[*PC++];
  op0:
    A += B;
    goto *Labels[*PC++];
  op1:
    B ^= A >> 3;
    goto *Labels[*PC++];
  op2:
    A = T[A & ((1u << 20) - 1)] + B;
    goto *Labels[*PC++];
  op3:
    if (A & 1)
      B += 7;
    else
      B -= 3;
    goto *Labels[*PC++];
  op4:
    Acc += A * 31;
    goto *Labels[*PC++];
  op5:
    B = T[(B * 2654435761u) & (TableLen - 1)];
    goto *Labels[*PC++];
  op6:
    A = (A << 1) | (B & 1);
    goto *Labels[*PC++];
  op7:
    Acc ^= B;
    goto *Labels[*PC++];
  stop:;
  }
  Sink = A + B + Acc;
  return msSince(Start);
}

double SpeedGauge::read() {
  pass(WarmReps);
  return pass(TimedReps);
}
