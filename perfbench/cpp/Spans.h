//===- Spans.h - Benchmark-side span recorder -------------------*- C++ -*-===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its calls into each layer of the
/// program (parse, runADE, bytecode compile, @build, @kernel, server
/// phases). Kept in memory and written once at the end as Chrome
/// trace-event JSON, the format `adec --trace-out` writes, with each
/// span's self time (its duration minus what its child spans cover)
/// under "args". Single-threaded: only the benchmark's driving thread
/// records spans.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
public:
  SpanLog();

  /// RAII span; a null log makes it a no-op, so untraced runs pay one
  /// branch per span.
  class Scope {
  public:
    Scope(SpanLog *Log, std::string Name, const char *Category);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *Log;
    size_t Index = 0;
  };

  /// Writes {"traceEvents": [...]}; false when the file cannot be
  /// written.
  bool write(const std::string &Path) const;

  size_t size() const { return Events.size(); }

private:
  struct Event {
    std::string Name;
    const char *Category;
    uint64_t StartNs;
    uint64_t EndNs;
    int Parent;
  };

  uint64_t EpochNs;
  std::vector<Event> Events;
  /// Index of the innermost open span, -1 at top level.
  int Open = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
