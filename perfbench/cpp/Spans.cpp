//===- Spans.cpp - Benchmark-side span recorder ---------------------------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Bench.h"

#include "support/Json.h"
#include "support/RawOstream.h"

#include <cstdio>

using namespace perfbench;

SpanLog::SpanLog() : EpochNs(nowNs()) {}

SpanLog::Scope::Scope(SpanLog *Log, std::string Name, const char *Category)
    : Log(Log) {
  if (!Log)
    return;
  Index = Log->Events.size();
  Log->Events.push_back({std::move(Name), Category, nowNs(), 0, Log->Open});
  Log->Open = int(Index);
}

SpanLog::Scope::~Scope() {
  if (!Log)
    return;
  Event &E = Log->Events[Index];
  E.EndNs = nowNs();
  Log->Open = E.Parent;
}

bool SpanLog::write(const std::string &Path) const {
  std::vector<uint64_t> ChildNs(Events.size(), 0);
  for (const Event &E : Events)
    if (E.Parent >= 0)
      ChildNs[size_t(E.Parent)] += E.EndNs - E.StartNs;

  std::string Text;
  ade::RawStringOstream OS(Text);
  ade::json::Writer W(OS);
  W.beginObject();
  W.key("traceEvents").beginArray();
  for (size_t I = 0; I != Events.size(); ++I) {
    const Event &E = Events[I];
    uint64_t Dur = E.EndNs - E.StartNs;
    W.beginObject(/*Inline=*/true);
    W.member("name", E.Name)
        .member("cat", E.Category)
        .member("ph", "X")
        .member("ts", (E.StartNs - EpochNs) / 1000)
        .member("dur", Dur / 1000)
        .member("pid", uint64_t(1))
        .member("tid", uint64_t(1));
    W.key("args").beginObject(/*Inline=*/true);
    W.member("self_us", (Dur - ChildNs[I]) / 1000);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.key("displayTimeUnit").value("ms");
  W.endObject();
  OS << '\n';
  OS.flush();

  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  return std::fclose(F) == 0 && Ok;
}
