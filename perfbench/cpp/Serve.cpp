//===- Serve.cpp - The serve-mixed workload -------------------------------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An adesrv Server over the ADE-compiled @serve handler (the program
/// examples/serve.memoir, read at set-up), offered a phased Zipfian
/// stream (serve/Workload.h): BulkInserts, then a read phase of
/// PointLookup, GraphQuery and ProgramCall. One round offers both phases
/// open-loop at fixed rates (each request timed from when it was due),
/// then the whole stream again closed-loop with a fixed window of
/// outstanding requests, then runs @serve alone on standalone engines
/// compiled with and without ADE. One generator thread (the caller)
/// drives at most two workers.
///
/// Every response is checked: PointLookup against the keys the stream
/// inserted, ProgramCall against a native recomputation of @serve,
/// BulkInsert against its key count, and every stream's response digest
/// against serve::runOracle's single-threaded std-container replay.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gauge.h"
#include "Layers.h"
#include "Refs.h"

#include "collections/MemoryTracker.h"
#include "core/Pipeline.h"
#include "interp/InterpError.h"
#include "parser/Parser.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Span.h"
#include "support/Histogram.h"
#include "vm/Engine.h"
#include "vm/VM.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

using namespace perfbench;
using namespace ade;

namespace {

/// The quantile of the per-round figures that the run reports: the
/// lower quartile of times and latencies (the upper one of throughput).
/// Rounds repeat the same work, and the host's other tenants only ever
/// slow a round: a stall of milliseconds lands in some rounds' p99. The
/// ADE cold starts of a few rounds run 4x faster than the rest, so the
/// fastest round is no steadier; the quartile holds best between runs.
constexpr double RoundQ = 0.25;
/// srv_p99_us takes the fastest round instead. The host at times stalls a
/// worker's vCPU for milliseconds in most rounds for over a minute, which
/// lifted two runs' lower quartile from 35 us to 2 ms; the fastest of the
/// run's seventy-odd rounds still reads the server's own tail.
constexpr double TailQ = 0;

/// Open-loop offered rates (requests per second), well below what two
/// workers serve, so latency reads service plus hand-off, not backlog.
constexpr double InsertRate = 5000;
constexpr double ReadRate = 50000;
/// Closed-loop window of outstanding requests.
constexpr uint32_t Window = 32;
/// Cold engine starts per configuration per round.
constexpr unsigned ColdStarts = 32;
/// @serve calls per standalone batch: a fixed count, cycling through the
/// stream's ProgramCall keys, so the batch's work does not depend on how
/// many calls the seed's stream drew.
constexpr unsigned BatchCalls = 1024;

/// Two workers beside the generator on four CPUs: one CPU stays free
/// for everything else, so a worker is seldom preempted mid-request.
unsigned workerThreads() {
  unsigned HW = std::thread::hardware_concurrency();
  return std::clamp(HW > 2 ? HW - 2 : 1u, 1u, 2u);
}

/// One request slot: when it was due, when it completed, its response.
struct Slot {
  serve::Request Req;
  uint64_t DueNs = 0;
  uint64_t DoneNs = 0;
  serve::Response Resp;
};

/// One standalone run of @serve: cold starts, then the fixed batch.
struct StandaloneSample {
  double ColdMs = 0, BatchMs = 0;
  uint64_t PeakBytes = 0;
  /// Build: the first cold call; Kernel: the batch.
  EngineCounters Counters;
};

/// The serving workload: set-up in the constructor, then rounds.
class ServeBench {
public:
  /// \p Handler is the text of the program that defines @serve.
  ServeBench(const std::string &Handler, uint64_t Seed,
             uint32_t ReadsPerStream, SpanLog *Spans, bool Trace)
      : Spans(Spans), Handler(Handler) {
    SpanLog::Scope Sp(Spans, "serve set-up", "serve");
    Spec.Seed = Seed;
    Spec.Streams = 8;
    Spec.InsertsPerStream = 32;
    Spec.BulkCount = 16;
    Spec.ReadsPerStream = ReadsPerStream;
    Spec.ProgramCalls = true;
    uint64_t GenStart = nowNs();
    {
      SpanLog::Scope G(Spans, "generate streams", "bench");
      for (uint32_t S = 0; S != Spec.Streams; ++S)
        Streams.push_back(serve::buildStream(Spec, S));
    }
    GenMs = msSince(GenStart);
    // Interleave the streams request by request within each phase.
    uint32_t Boundary = serve::phaseBoundary(Spec);
    for (uint32_t Seq = 0; Seq != Boundary + Spec.ReadsPerStream; ++Seq)
      for (const auto &Stream : Streams)
        if (Seq < Stream.size())
          (Seq < Boundary ? Inserts : Reads).push_back(Stream[Seq]);
    for (const serve::Request &R : Reads)
      if (R.Op == serve::RequestOp::ProgramCall)
        CallKeys.push_back(R.Key);
    for (size_t I = 0; CallKeys.size() && I != BatchCalls; ++I)
      BatchKeys.push_back(CallKeys[I % CallKeys.size()]);

    Modules[0] = parser::parseModuleOrDie(Handler);
    Modules[1] = parser::parseModuleOrDie(Handler);
    {
      SpanLog::Scope A(Spans, "runADE @serve", "core");
      core::runADE(*Modules[1]);
    }
    Cfg.Threads = workerThreads();
    Cfg.QueueCapacity = 1 << 16;
    Cfg.Engine = vm::EngineKind::Vm;
    Cfg.Geo = Spec.Geo;
    if (Trace) {
      serve::FlightRecorder::Options FO;
      FO.Workers = Cfg.Threads;
      // Every request, so each stage histogram has samples of every op.
      FO.SampleEvery = 1;
      Flight = std::make_unique<serve::FlightRecorder>(FO);
      Cfg.Flight = Flight.get();
    }
    Srv = std::make_unique<serve::Server>(*Modules[1], Cfg);
    Ready = Srv->hasProgramFunction() && !BatchKeys.empty();
  }

  bool ready() const { return Ready; }

  /// One round; failed requests and program runs are counted in \p R.
  /// With a \p Gauge, the compile and the standalone runs are bracketed
  /// by its readings and their times scaled by its factor (Gauge.h).
  void runRound(Result &R, SpeedGauge *Gauge) {
    SpanLog::Scope Round(Spans, "round", "bench");
    std::vector<Slot> Phase1 = slotsFor(Inserts), Phase2 = slotsFor(Reads),
                      ClosedInserts = slotsFor(Inserts),
                      Closed = slotsFor(Reads);
    {
      SpanLog::Scope Sp(Spans, "open loop: bulk inserts", "serve");
      openLoop(Phase1, InsertRate, R);
    }
    sampleRings();
    {
      SpanLog::Scope Sp(Spans, "open loop: reads", "serve");
      openLoop(Phase2, ReadRate, R);
    }
    sampleRings();
    // The closed loop replays the stream, inserts then reads; the
    // inserts rewrite the same keys and values, so the store and every
    // expected response stay as they were.
    uint64_t ClosedNs = 0;
    {
      SpanLog::Scope Sp(Spans, "closed loop: bulk inserts", "serve");
      ClosedNs += closedLoop(ClosedInserts, R);
    }
    sampleRings();
    {
      SpanLog::Scope Sp(Spans, "closed loop: reads", "serve");
      ClosedNs += closedLoop(Closed, R);
    }
    // The first round warms the server (queue storage, shard tables,
    // worker engines); latency and capacity come from the later ones.
    if (Rounds > 0) {
      CapacityRps.push_back(double(ClosedInserts.size() + Closed.size()) *
                            1e9 / double(ClosedNs));
      Histogram Latency;
      for (const Slot &S : Phase2)
        Latency.record(S.DoneNs - S.DueNs);
      ReadP50Us.push_back(double(Latency.p50()) / 1e3);
      ReadP99Us.push_back(double(Latency.p99()) / 1e3);
    }
    check(Phase1, Phase2, ClosedInserts, Closed, R);

    // The program-side times run on this thread alone; each is scaled by
    // the gauge readings around it.
    auto ReadGauge = [&] {
      SpanLog::Scope Sp(Spans, "gauge", "bench");
      GaugeMs.push_back(Gauge->read());
      return GaugeMs.back();
    };
    double Before = Gauge ? ReadGauge() : 0;
    auto Scale = [&] {
      if (!Gauge)
        return 1.0;
      double After = ReadGauge();
      double F = SpeedGauge::factor(Before, After);
      Before = After;
      return F;
    };
    CompileSample CS;
    compileAde(Handler, "@serve", Spans, CS, R);
    CS.Scale = Scale();
    Compiles.push_back(std::move(CS));
    for (unsigned C = 0; C != 2; ++C) {
      SpanLog::Scope Sp(Spans, std::string("standalone @serve ") +
                                   ConfigNames[C],
                        "vm");
      StandaloneSample S;
      R.Attempted += ColdStarts + BatchKeys.size();
      bool Ok = standalone(*Modules[C], S, R);
      double F = Scale();
      S.ColdMs *= F;
      S.BatchMs *= F;
      if (Ok)
        Standalone[C].push_back(S);
      else
        R.Failed += ColdStarts + BatchKeys.size();
    }
    ++Rounds;
  }

  /// The median gauge reading of the run, in ms.
  double gaugeMs() const { return median(GaugeMs); }

  /// Post-run checks that need the whole stream: the oracle digests.
  void checkOracle(Result &R) {
    std::vector<uint64_t> Want =
        serve::runOracle(*Modules[1], Spec, Cfg, vm::EngineKind::Vm);
    for (uint32_t S = 0; S != Spec.Streams; ++S)
      if (Digests.size() > S && Digests[S] != Want[S])
        R.mismatch("stream " + std::to_string(S) +
                   ": response digest differs from serve::runOracle");
  }

  void addEndToEnd(Result &R, double SetupS) const {
    R.add("ade_kernel_ms", "ms", standaloneMs(1, &StandaloneSample::BatchMs));
    R.add("memoir_kernel_ms", "ms",
          standaloneMs(0, &StandaloneSample::BatchMs));
    R.add("ade_build_ms", "ms", standaloneMs(1, &StandaloneSample::ColdMs));
    R.add("memoir_build_ms", "ms", standaloneMs(0, &StandaloneSample::ColdMs));
    R.add("compile_ms", "ms", compileMs({Compiles}, RoundQ));
    R.add("ade_peak_mb", "MB", peakMb(1));
    R.add("memoir_peak_mb", "MB", peakMb(0));
    R.add("setup_s", "s", SetupS);
    R.add("srv_p50_us", "us", quantile(ReadP50Us, RoundQ));
    R.add("srv_p99_us", "us", quantile(ReadP99Us, TailQ));
    R.add("srv_capacity_rps", "1/s", quantile(CapacityRps, 1 - RoundQ));
  }

  /// The program-side per-layer metrics, from @serve.
  void addProgramLayers(Result &R) const {
    addCompileLayers({Compiles}, RoundQ, R);
    for (unsigned C = 0; C != 2; ++C)
      addEngineLayers(ConfigNames[C],
                      Standalone[C].empty() ? EngineCounters()
                                            : Standalone[C].front().Counters,
                      standaloneMs(C, &StandaloneSample::BatchMs), R);
    R.add("bench.gen_ms", "ms", GenMs);
  }

  /// The serve.* per-layer metrics.
  void addServeLayers(Result &R) {
    serve::ServerStats St = Srv->stats();
    R.add("serve.admit_ns", "ns", double(AdmitNs.p50()));
    R.add("serve.generator_lag_us", "us", double(LagNs.p99()) / 1e3);
    R.add("serve.depth_at_accept_p99", "count", double(St.DepthAtAccept.p99()));
    R.add("serve.accept_to_done_p50_us", "us",
          double(St.LatencyNs.p50()) / 1e3);
    R.add("serve.accept_to_done_p99_us", "us",
          double(St.LatencyNs.p99()) / 1e3);
    R.add("serve.shard_rehashes", "count", double(St.ShardRehashes));
    std::vector<double> PerCall;
    for (const StandaloneSample &S : Standalone[1])
      PerCall.push_back(S.BatchMs * 1e3 / double(BatchKeys.size()));
    R.add("serve.program_call_us", "us", quantile(PerCall, RoundQ));

    double QueueUs = 0, ExecUs = 0;
    if (Flight) {
      QueueUs = Flight->stageHistogram(serve::SpanKind::QueueWait).mean() / 1e3;
      ExecUs = Flight->stageHistogram(serve::SpanKind::EngineExec).mean() / 1e3;
    }
    R.add("serve.queue_wait_us", "us", QueueUs);
    R.add("serve.lock_wait_us", "us",
          LockSpans ? double(LockNs) / double(LockSpans) / 1e3 : 0);
    R.add("serve.engine_exec_us", "us", ExecUs);
    R.add("serve.epoch_lag", "count",
          EpochSpans ? double(Retired) / double(EpochSpans) : 0);
  }

  /// Stops the workers; the destructor would too, but the run reports
  /// only after every thread it started has ended.
  void stop() {
    if (Srv)
      Srv->stop();
  }

private:
  /// Traced runs: folds the shard lock waits and epoch reclamation lag
  /// of the traces completed since the last call into the running means.
  /// The flight recorder keeps only each lane's most recent traces, so
  /// it is read after every phase.
  void sampleRings() {
    if (!Flight)
      return;
    uint64_t Since = LastSampleNs;
    LastSampleNs = nowNs();
    for (const serve::Trace &T : Flight->recentTraces()) {
      if (T.SubmitNs < Since)
        continue;
      for (unsigned I = 0; I != T.NumSpans; ++I) {
        const serve::Span &Sp = T.Spans[I];
        if (Sp.Kind == serve::SpanKind::TableOp &&
            Sp.Shard != serve::Span::NoShard) {
          ++LockSpans;
          LockNs += Sp.B;
        } else if (Sp.Kind == serve::SpanKind::Epoch) {
          ++EpochSpans;
          Retired += Sp.B;
        }
      }
    }
  }

  std::vector<Slot> slotsFor(const std::vector<serve::Request> &Reqs) const {
    std::vector<Slot> Slots(Reqs.size());
    for (size_t I = 0; I != Reqs.size(); ++I)
      Slots[I].Req = Reqs[I];
    return Slots;
  }

  /// Submits \p S; a shed request is a failed operation.
  void submit(Slot &S, Result &R, std::atomic<uint32_t> *Outstanding) {
    ++R.Attempted;
    uint64_t T0 = nowNs();
    bool Accepted = Srv->submit(S.Req, [&S, Outstanding](
                                           const serve::Response &Resp) {
      S.Resp = Resp;
      S.DoneNs = nowNs();
      if (Outstanding)
        Outstanding->fetch_sub(1, std::memory_order_release);
    });
    if (Rounds > 0)
      AdmitNs.record(nowNs() - T0);
    if (!Accepted) {
      S.Resp.Status = serve::ResponseStatus::Shed;
      S.DoneNs = nowNs();
      if (Outstanding)
        Outstanding->fetch_sub(1, std::memory_order_release);
    }
  }

  void openLoop(std::vector<Slot> &Slots, double Rate, Result &R) {
    uint64_t Start = nowNs() + 100000;
    double GapNs = 1e9 / Rate;
    for (size_t I = 0; I != Slots.size(); ++I) {
      uint64_t Due = Start + uint64_t(double(I) * GapNs);
      // Sleep only when far ahead (a sleep can overshoot by tens of
      // microseconds), then spin to the due time.
      uint64_t Now = nowNs();
      if (Due > Now + 2000000)
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(Due - Now - 1000000));
      while (nowNs() < Due) {
      }
      Slots[I].DueNs = Due;
      if (Rounds > 0)
        LagNs.record(nowNs() - Due);
      submit(Slots[I], R, nullptr);
    }
    Srv->drain();
  }

  uint64_t closedLoop(std::vector<Slot> &Slots, Result &R) {
    std::atomic<uint32_t> Outstanding{0};
    uint64_t Start = nowNs();
    for (Slot &S : Slots) {
      while (Outstanding.load(std::memory_order_acquire) >= Window)
        std::this_thread::yield();
      Outstanding.fetch_add(1, std::memory_order_relaxed);
      S.DueNs = nowNs();
      submit(S, R, &Outstanding);
    }
    Srv->drain();
    return nowNs() - Start;
  }

  /// Checks every response against its expectation and folds the
  /// open-loop responses into per-stream digests.
  void check(const std::vector<Slot> &Phase1, const std::vector<Slot> &Phase2,
             const std::vector<Slot> &ClosedInserts,
             const std::vector<Slot> &Closed, Result &R) {
    std::vector<std::vector<serve::Response>> ByStream(Spec.Streams);
    for (uint32_t S = 0; S != Spec.Streams; ++S)
      ByStream[S].resize(Streams[S].size());
    for (const std::vector<Slot> *Phase :
         {&Phase1, &Phase2, &ClosedInserts, &Closed})
      for (const Slot &S : *Phase) {
        const serve::Response &Got = S.Resp;
        if (Got.Status != serve::ResponseStatus::Ok &&
            Got.Status != serve::ResponseStatus::NotFound) {
          ++R.Failed;
          std::fprintf(stderr, "perfbench: request %llu (%s) failed: %s\n",
                       (unsigned long long)S.Req.Id,
                       serve::requestOpName(S.Req.Op),
                       serve::responseStatusName(Got.Status));
          continue;
        }
        if (Phase == &Phase1 || Phase == &Phase2)
          ByStream[S.Req.Stream][S.Req.SeqInStream] = Got;
        serve::Response Want;
        if (!expected(S.Req, Want))
          continue; // GraphQuery: checked through the oracle digest.
        if (Got.Status != Want.Status || Got.Value != Want.Value)
          R.mismatch(std::string(serve::requestOpName(S.Req.Op)) + " key " +
                     std::to_string(S.Req.Key) + ": got " +
                     serve::responseStatusName(Got.Status) + " " +
                     std::to_string(Got.Value) + ", expected " +
                     serve::responseStatusName(Want.Status) + " " +
                     std::to_string(Want.Value));
      }
    // The closed loop repeats the read phase over the same store, so its
    // responses must equal the open loop's one for one.
    for (size_t I = 0; I != Closed.size(); ++I)
      if (Closed[I].Resp.Value != Phase2[I].Resp.Value ||
          Closed[I].Resp.Status != Phase2[I].Resp.Status)
        R.mismatch("closed-loop response differs from open-loop one");
    std::vector<uint64_t> Round;
    for (uint32_t S = 0; S != Spec.Streams; ++S) {
      for (size_t I = 0; I != ByStream[S].size(); ++I)
        ByStream[S][I].Id = Streams[S][I].Id;
      Round.push_back(serve::streamDigest(ByStream[S]));
    }
    if (Digests.empty())
      Digests = Round;
    else if (Round != Digests)
      R.mismatch("stream digests differ between rounds");
  }

  /// The independently computed response for \p Req; false for
  /// GraphQuery, which the oracle digest covers.
  bool expected(const serve::Request &Req, serve::Response &Want) {
    if (Stored.empty())
      Stored = refStoredKeys(Streams, Spec.Geo);
    Want.Id = Req.Id;
    switch (Req.Op) {
    case serve::RequestOp::BulkInsert:
      Want.Status = serve::ResponseStatus::Ok;
      Want.Value = Req.Count;
      return true;
    case serve::RequestOp::PointLookup: {
      auto It = Stored.find(Req.Key);
      Want.Status = It == Stored.end() ? serve::ResponseStatus::NotFound
                                       : serve::ResponseStatus::Ok;
      Want.Value = It == Stored.end() ? 0 : It->second;
      return true;
    }
    case serve::RequestOp::ProgramCall:
      Want.Status = serve::ResponseStatus::Ok;
      Want.Value = refServe(Req.Key);
      return true;
    case serve::RequestOp::GraphQuery:
      return false;
    }
    return false;
  }

  /// @serve alone: ColdStarts fresh engines and their first call (which
  /// compiles @serve to bytecode, as a recycled server engine does), then
  /// one VM, its bytecode compiled before the clock starts, over the
  /// BatchCalls batch keys.
  bool standalone(const ir::Module &M, StandaloneSample &S, Result &R) {
    const ir::Function *Fn = M.getFunction("serve");
    try {
      interp::InterpOptions IO;
      IO.CollectStats = true;
      uint64_t T0 = nowNs();
      for (unsigned I = 0; I != ColdStarts; ++I) {
        vm::Engine E(vm::EngineKind::Vm, M, IO);
        E.call(Fn, {BatchKeys[I]});
        if (I == 0)
          S.Counters.Build = E.stats();
      }
      S.ColdMs = msSince(T0);

      vm::VM E(M, IO);
      E.compiled(Fn);
      MemoryTracker &Mem = MemoryTracker::instance();
      Mem.reset();
      uint64_t Base = Mem.currentBytes();
      uint64_t T1 = nowNs();
      for (uint64_t Key : BatchKeys) {
        uint64_t Got = E.call(Fn, {Key});
        if (Got != refServe(Key))
          R.mismatch("standalone @serve(" + std::to_string(Key) +
                     ") = " + std::to_string(Got));
      }
      S.BatchMs = msSince(T1);
      S.PeakBytes = Mem.peakBytes() - Base;
      S.Counters.Kernel = E.stats();
      S.Counters.Probes = E.probeTotals();
      return true;
    } catch (const interp::InterpError &Ex) {
      std::fprintf(stderr, "perfbench: standalone @serve failed: %s\n",
                   Ex.what());
      return false;
    }
  }

  double standaloneMs(unsigned C, double StandaloneSample::*Field) const {
    std::vector<double> V;
    for (const StandaloneSample &S : Standalone[C])
      V.push_back(S.*Field);
    return quantile(V, RoundQ);
  }

  double peakMb(unsigned C) const {
    std::vector<double> V;
    for (const StandaloneSample &S : Standalone[C])
      V.push_back(double(S.PeakBytes) / double(1 << 20));
    return median(V);
  }

  SpanLog *Spans;
  const std::string &Handler;
  serve::WorkloadSpec Spec;
  std::vector<std::vector<serve::Request>> Streams;
  std::vector<serve::Request> Inserts, Reads;
  std::vector<uint64_t> CallKeys, BatchKeys;
  std::unordered_map<uint64_t, uint64_t> Stored;
  std::unique_ptr<ir::Module> Modules[2];
  serve::ServeConfig Cfg;
  std::unique_ptr<serve::FlightRecorder> Flight;
  std::unique_ptr<serve::Server> Srv;
  bool Ready = false;
  unsigned Rounds = 0;
  double GenMs = 0;

  Histogram AdmitNs, LagNs;
  /// Per measured round: read-phase due-time latency percentiles and
  /// closed-loop throughput; the run reports their RoundQ quantiles.
  std::vector<double> ReadP50Us, ReadP99Us, CapacityRps;
  std::vector<uint64_t> Digests;
  std::vector<StandaloneSample> Standalone[2];
  std::vector<CompileSample> Compiles;
  std::vector<double> GaugeMs;
  uint64_t LastSampleNs = 0, LockSpans = 0, LockNs = 0, EpochSpans = 0,
           Retired = 0;
};

} // namespace

Result perfbench::runServe(const RunOptions &Opt, SpanLog *Spans) {
  Result R;
  std::string Handler;
  if (!readFile(Opt.HandlerPath, Handler)) {
    R.mismatch("cannot read the @serve handler " + Opt.HandlerPath);
    return R;
  }
  ServeBench B(Handler, deriveSeed(Opt.Seed, 100), /*ReadsPerStream=*/2000,
               Spans, Opt.Trace);
  double SetupS = double(nowNs() - Opt.StartNs) / 1e9;
  if (!B.ready()) {
    R.mismatch("the @serve handler did not load");
    return R;
  }
  SpeedGauge Gauge;
  runRounds(Opt.Workload, Opt.Seconds,
            [&](unsigned) { B.runRound(R, &Gauge); });
  std::fprintf(stderr, "perfbench: gauge %.3f ms median\n", B.gaugeMs());
  B.checkOracle(R);
  if (!Opt.Trace) {
    B.addEndToEnd(R, SetupS);
  } else {
    B.addProgramLayers(R);
    B.addServeLayers(R);
    R.add("bench.gauge_ms", "ms", B.gaugeMs());
  }
  B.stop();
  return R;
}

void perfbench::addServeProbeLayers(const RunOptions &Opt, SpanLog *Spans,
                                    Result &R) {
  SpanLog::Scope Sp(Spans, "serve probe", "serve");
  std::string Handler;
  if (!readFile(Opt.HandlerPath, Handler)) {
    R.mismatch("cannot read the @serve handler " + Opt.HandlerPath);
    return;
  }
  ServeBench B(Handler, deriveSeed(Opt.Seed, 100), /*ReadsPerStream=*/125,
               Spans, /*Trace=*/true);
  if (!B.ready()) {
    R.mismatch("the @serve handler did not load");
    return;
  }
  Result Probe;
  for (unsigned Round = 0; Round != 2; ++Round)
    B.runRound(Probe, nullptr);
  B.checkOracle(Probe);
  B.addServeLayers(R);
  B.stop();
  if (!Probe.Correct)
    R.mismatch("serve probe responses were wrong");
  R.Attempted += Probe.Attempted;
  R.Failed += Probe.Failed;
}
