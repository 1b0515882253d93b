#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

#include "checks.h"
#include "core/dp_scheduler.h"
#include "core/partitioner.h"
#include "core/soft_budget.h"
#include "graph/canonical_hash.h"
#include "rewrite/rewriter.h"
#include "runtime/kernel_backend.h"
#include "sched/baselines.h"
#include "sched/beam.h"
#include "serialize/plan.h"
#include "serialize/serialize.h"
#include "serve/inference_session.h"
#include "serve/plan_cache.h"
#include "serve/session_pool.h"
#include "serve/wire.h"
#include "stats.h"
#include "util/memory_budget.h"
#include "util/stopwatch.h"

namespace perfbench {

namespace sv = serenity::serve;
namespace wire = serenity::serve::wire;
using serenity::graph::Graph;
using serenity::runtime::Tensor;
using serenity::util::Stopwatch;

namespace {

constexpr int kCompileRounds = 3;     // stage-by-stage compiles per graph
constexpr int kAblationRounds = 3;    // bounds-off compiles per graph
constexpr int kMicroRepeats = 41;     // samples of each microsecond layer
constexpr int kLookupsPerSample = 64;  // cache lookups timed together
constexpr int kBackendRuns = 7;        // runs per graph and backend
// Request ids of the breakdown's spans: kLayerBase + graph * 1000 + round.
constexpr std::int64_t kLayerBase = std::int64_t{1} << 40;

// Compile stages, by span name, and the metric each one reports.
const std::pair<const char*, const char*> kStages[] = {
    {"rewrite", "rewrite.ms"},
    {"partition", "partition.ms"},
    {"seed", "seed.ms"},
    {"search", "search.ms"},
    {"search.plain_dp", "search.plain_dp_ms"},
    {"alloc", "alloc.ms"},
    {"plan_serialize", "plan_serialize.ms"},
    {"graph_parse", "graph_parse.ms"},
    {"hash", "hash.ms"},
};

struct SearchCounts {
  double nodes_added = 0, segments = 0;
  double states_expanded = 0, states_pruned = 0, attempts = 0;
};

// The pipeline's incumbent seed for one segment: the greedy peak, tightened
// by a width-256 beam that prunes against it (core/pipeline.cc).
std::int64_t SeedIncumbent(const Graph& segment) {
  std::int64_t incumbent = serenity::sched::PeakFootprint(
      segment, serenity::sched::GreedyMemorySchedule(segment));
  serenity::sched::BeamOptions beam;
  beam.width = serenity::core::PipelineOptions{}.incumbent_beam_width;
  beam.prune_above_bytes = incumbent;
  const serenity::sched::BeamResult result =
      serenity::sched::ScheduleBeam(segment, beam);
  if (result.status.ok()) incumbent = std::min(incumbent, result.peak_bytes);
  return incumbent;
}

// One stage-by-stage compile of `bg`, every stage in its own span.
void CompileByStages(const BenchGraph& bg, const GraphRun& run, int round,
                     std::int64_t request_id, Tracer* tracer,
                     SearchCounts* counts, std::vector<std::string>* errors) {
  ScopedSpan root(tracer, "layers.compile", request_id);
  serenity::rewrite::RewriteResult rewritten;
  {
    ScopedSpan span(tracer, "rewrite");
    rewritten = serenity::rewrite::RewriteGraph(bg.graph);
  }
  const Graph& g = rewritten.graph;
  serenity::core::Partition partition;
  std::size_t cuts = 0;
  {
    ScopedSpan span(tracer, "partition");
    cuts = serenity::core::FindCutNodes(g).size();
    partition = serenity::core::PartitionAtCuts(g);
  }
  if (partition.segments.size() > cuts + 1) {
    errors->push_back(bg.name + ": more segments than cut nodes allow");
  }
  std::vector<serenity::sched::Schedule> segment_schedules;
  std::uint64_t states = 0;
  for (const serenity::core::Segment& segment : partition.segments) {
    std::int64_t incumbent = 0;
    {
      ScopedSpan span(tracer, "seed");
      incumbent = SeedIncumbent(segment.subgraph);
    }
    serenity::core::SoftBudgetOptions options;
    options.incumbent_bytes = incumbent;
    options.adaptive_parallelism =
        serenity::core::PipelineOptions{}.adaptive_parallelism;
    serenity::core::SoftBudgetResult search;
    {
      ScopedSpan span(tracer, "search");
      search = serenity::core::ScheduleWithSoftBudget(segment.subgraph,
                                                      options);
    }
    serenity::core::DpResult plain;
    {
      ScopedSpan span(tracer, "search.plain_dp");
      plain = serenity::core::ScheduleDp(segment.subgraph);
    }
    if (search.status != serenity::core::DpStatus::kSolution ||
        plain.status != serenity::core::DpStatus::kSolution ||
        plain.peak_bytes != search.peak_bytes) {
      errors->push_back(bg.name + ": segment search " +
                        serenity::core::ToString(search.status) +
                        ", plain DP " + serenity::core::ToString(plain.status) +
                        ", peaks " + std::to_string(search.peak_bytes) +
                        " vs " + std::to_string(plain.peak_bytes));
    }
    states += search.TotalStates();
    if (round == 0) {
      counts->states_expanded += static_cast<double>(search.TotalStates());
      counts->states_pruned +=
          static_cast<double>(search.TotalPrunedByBound());
      counts->attempts += static_cast<double>(search.attempts.size());
    }
    segment_schedules.push_back(std::move(search.schedule));
  }
  const serenity::sched::Schedule schedule =
      serenity::core::CombineSegmentSchedules(partition, segment_schedules);
  if (schedule != run.result.schedule ||
      states != run.result.states_expanded) {
    errors->push_back(bg.name +
                      ": the stage-by-stage compile does not reproduce the "
                      "pipeline's schedule and state count");
  }
  serenity::alloc::ArenaPlan arena;
  {
    ScopedSpan span(tracer, "alloc");
    arena = serenity::alloc::PlanArena(g, schedule);
  }
  if (arena.arena_bytes != run.arena.arena_bytes) {
    errors->push_back(bg.name + ": stage-by-stage arena differs");
  }
  {
    ScopedSpan span(tracer, "plan_serialize");
    const serenity::serialize::ExecutionPlan plan =
        serenity::serialize::MakePlan(g, schedule);
    const std::string text = serenity::serialize::PlanToText(plan);
    const auto back = serenity::serialize::PlanFromText(text, g);
    if (!back.ok() || back->schedule != schedule) {
      errors->push_back(bg.name + ": plan text does not round-trip");
    }
  }
  serenity::util::StatusOr<Graph> parsed =
      serenity::util::InternalError("not parsed");
  {
    ScopedSpan span(tracer, "graph_parse");
    parsed = serenity::serialize::GraphFromTextOr(bg.text);
  }
  if (!parsed.ok()) {
    errors->push_back(bg.name + ": graph text does not parse");
    return;
  }
  serenity::graph::GraphHash hash;
  {
    ScopedSpan span(tracer, "hash");
    hash = serenity::graph::CanonicalGraphHash(*parsed);
  }
  if (!(hash == run.hash)) {
    errors->push_back(bg.name + ": parsed graph hashes differently");
  }
  if (round == 0) {
    counts->nodes_added += static_cast<double>(
        rewritten.report.nodes_after - rewritten.report.nodes_before);
    counts->segments += static_cast<double>(partition.segments.size());
  }
}

// The tensor list of an infer request or reply, built the way TcpClient
// and TcpServer build it: a count, then dims and floats per tensor.
std::string TensorListBody(const std::vector<Tensor>& tensors) {
  std::string body;
  wire::AppendU32(&body, static_cast<std::uint32_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    const auto& s = t.shape();
    for (const int d : {s.n, s.h, s.w, s.c}) {
      wire::AppendU32(&body, static_cast<std::uint32_t>(d));
    }
    wire::AppendF32Array(&body, t.data(), static_cast<std::uint32_t>(t.size()));
  }
  return body;
}

// Reads `count` tensors (dims + floats) from `reader`; false on a short read.
bool ReadTensors(wire::ByteReader& reader, std::uint32_t count,
                 std::vector<Tensor>* out) {
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t dims[4];
    for (std::uint32_t& d : dims) {
      if (!reader.ReadU32(&d).ok()) return false;
    }
    Tensor t(serenity::graph::TensorShape{
        static_cast<int>(dims[0]), static_cast<int>(dims[1]),
        static_cast<int>(dims[2]), static_cast<int>(dims[3])});
    if (!reader.ReadF32Array(t.data(), static_cast<std::uint32_t>(t.size()))
             .ok()) {
      return false;
    }
    out->push_back(std::move(t));
  }
  return true;
}

double MicrosOf(const Stopwatch& clock) { return clock.ElapsedSeconds() * 1e6; }

}  // namespace

std::vector<Metric> RunLayers(const Workload& w, const EndToEndResult& traced,
                              Tracer* tracer,
                              std::vector<std::string>* errors) {
  const std::size_t n = w.graphs.size();
  std::vector<Metric> metrics;

  // Compile side, from the spans' self times: per graph the median over
  // rounds, summed over the set (the time to compile the set once).
  SearchCounts counts;
  for (int round = 0; round < kCompileRounds; ++round) {
    for (std::size_t gi = 0; gi < n; ++gi) {
      CompileByStages(w.graphs[gi], traced.graphs[gi], round,
                      kLayerBase + static_cast<std::int64_t>(gi) * 1000 + round,
                      tracer, &counts, errors);
    }
  }
  const std::vector<Span> spans = tracer->spans();
  const std::vector<double> self = SelfMillis(spans);
  std::map<std::string, std::map<std::int64_t, double>> stage_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].request_id >= kLayerBase) {
      stage_ms[spans[i].name][spans[i].request_id] += self[i];
    }
  }
  for (const auto& [span_name, metric_name] : kStages) {
    double total = 0;
    for (std::size_t gi = 0; gi < n; ++gi) {
      std::vector<double> rounds;
      for (int round = 0; round < kCompileRounds; ++round) {
        rounds.push_back(stage_ms[span_name][kLayerBase +
                                             static_cast<std::int64_t>(gi) *
                                                 1000 +
                                             round]);
      }
      total += Median(rounds);
    }
    metrics.push_back({metric_name, "ms", total});
  }
  metrics.push_back({"rewrite.nodes_added", "count", counts.nodes_added});
  metrics.push_back({"partition.segments", "count", counts.segments});
  metrics.push_back(
      {"search.states_expanded", "count", counts.states_expanded});
  metrics.push_back({"search.states_pruned", "count", counts.states_pruned});
  metrics.push_back({"search.attempts", "count", counts.attempts});

  // The bound-pruning control: the same cold compile with
  // enable_bound_pruning off, timed as the compile phase times it
  // (unpinned, median over rounds). Peaks must not change.
  std::printf("bounds on vs off (cold compile median ms, search peak KiB):\n");
  double off_total = 0, off_peak = 0;
  for (std::size_t gi = 0; gi < n; ++gi) {
    const GraphRun& g = traced.graphs[gi];
    std::vector<double> ms;
    std::int64_t peak = 0;
    for (int round = 0; round < kAblationRounds; ++round) {
      serenity::util::MemoryBudget ledger(
          std::numeric_limits<std::int64_t>::max());
      serenity::core::PipelineOptions options;
      options.memory_budget = &ledger;
      options.enable_bound_pruning = false;
      serenity::core::PipelineResult result;
      {
        ScopedSpan span(tracer, "ablation.bounds_off",
                        static_cast<std::int64_t>(gi));
        Stopwatch clock;
        result = serenity::core::Pipeline(options).Run(w.graphs[gi].graph);
        ms.push_back(clock.ElapsedMillis());
      }
      peak = std::max(peak, ledger.peak_bytes());
      if (!result.success || result.peak_bytes != g.result.peak_bytes) {
        errors->push_back(w.graphs[gi].name +
                          ": bounds-off compile changes the peak");
      }
    }
    off_total += Median(ms);
    off_peak = std::max(off_peak, static_cast<double>(peak) / 1024.0);
    std::printf("  %-28s on %9.2f ms %9.1f KiB   off %9.2f ms %9.1f KiB\n",
                w.graphs[gi].name.c_str(), Median(g.compile_ms),
                static_cast<double>(g.search_peak_bytes) / 1024.0,
                Median(ms), static_cast<double>(peak) / 1024.0);
  }
  metrics.push_back({"ablation.bounds_off.compile_ms_total", "ms", off_total});
  metrics.push_back({"ablation.bounds_off.search_peak_kb", "KiB", off_peak});

  // Serve side: microsecond layers, a median per graph, averaged over the
  // graphs (the cost a round-robin request pays on average).
  sv::PlanCache cache;
  std::vector<std::shared_ptr<const sv::CachedPlan>> plans;
  for (std::size_t gi = 0; gi < n; ++gi) {
    plans.push_back(cache.Insert(traced.graphs[gi].hash,
                                 traced.graphs[gi].result));
  }
  std::vector<double> lookup_us, encode_us, decode_us, reset_us, checkout_us;
  sv::SessionPool pool;
  for (std::size_t gi = 0; gi < n; ++gi) {
    const GraphRun& g = traced.graphs[gi];
    const std::string& name = w.graphs[gi].name;
    std::vector<double> lookup, encode, decode, reset, checkout;
    {
      ScopedSpan span(tracer, "cache.lookup", static_cast<std::int64_t>(gi));
      for (int r = 0; r < kMicroRepeats; ++r) {
        bool all_hit = true;
        Stopwatch clock;
        for (int k = 0; k < kLookupsPerSample; ++k) {
          all_hit = cache.Lookup(g.hash) != nullptr && all_hit;
        }
        lookup.push_back(MicrosOf(clock) / kLookupsPerSample);
        if (!all_hit) errors->push_back(name + ": cache lookup missed");
      }
    }
    {
      ScopedSpan span(tracer, "wire", static_cast<std::int64_t>(gi));
      for (int r = 0; r < kMicroRepeats; ++r) {
        const std::vector<Tensor>& inputs = g.inputs[r % g.inputs.size()];
        const std::vector<Tensor>& sinks = g.expected[r % g.inputs.size()];
        // The tensor framing inside the bodies is built and read untimed:
        // TcpClient and TcpServer keep theirs private, and this copy of it
        // would not follow a change to them.
        wire::Request request;
        request.verb = wire::Verb::kInfer;
        wire::AppendU64(&request.body, g.hash.hi);
        wire::AppendU64(&request.body, g.hash.lo);
        request.body += TensorListBody(inputs);
        wire::Reply reply;
        reply.body = TensorListBody(sinks);

        Stopwatch clock;
        const std::string request_bytes = wire::EncodeRequest(request);
        const std::string reply_bytes = wire::EncodeReply(reply);
        encode.push_back(MicrosOf(clock));

        clock.Restart();
        auto decoded_request = wire::DecodeRequest(request_bytes);
        auto decoded_reply = wire::DecodeReply(reply_bytes);
        decode.push_back(MicrosOf(clock));

        std::vector<Tensor> got_inputs, got_sinks;
        bool ok = decoded_request.ok() && decoded_reply.ok();
        if (ok) {
          wire::ByteReader reader(decoded_request->body);
          std::uint64_t hi = 0, lo = 0;
          std::uint32_t count = 0;
          ok = reader.ReadU64(&hi).ok() && reader.ReadU64(&lo).ok() &&
               reader.ReadU32(&count).ok() &&
               ReadTensors(reader, count, &got_inputs);
        }
        if (ok) {
          wire::ByteReader reader(decoded_reply->body);
          std::uint32_t count = 0;
          ok = reader.ReadU32(&count).ok() &&
               ReadTensors(reader, count, &got_sinks);
        }
        if (!ok || !CompareBitExact(got_inputs, inputs).empty() ||
            !CompareBitExact(got_sinks, sinks).empty()) {
          errors->push_back(name + ": infer messages do not round-trip");
        }
      }
    }
    {
      ScopedSpan span(tracer, "session.reset", static_cast<std::int64_t>(gi));
      sv::InferenceSession session(plans[gi]);
      session.Run(g.inputs[0]);
      for (int r = 0; r < kMicroRepeats; ++r) {
        Stopwatch clock;
        session.Reset();
        reset.push_back(MicrosOf(clock));
      }
    }
    {
      ScopedSpan span(tracer, "pool.checkout", static_cast<std::int64_t>(gi));
      for (int r = 0; r < kMicroRepeats; ++r) {
        Stopwatch clock;
        {
          auto lease = pool.Checkout(plans[gi], 5.0);
          if (!lease.ok()) {
            errors->push_back(name + ": pool checkout failed: " +
                              lease.status().ToString());
          }
        }  // the lease returns its session here
        checkout.push_back(MicrosOf(clock));
      }
    }
    lookup_us.push_back(Median(lookup));
    encode_us.push_back(Median(encode));
    decode_us.push_back(Median(decode));
    reset_us.push_back(Median(reset));
    checkout_us.push_back(Median(checkout));
  }
  metrics.push_back({"cache.lookup_us", "us", Mean(lookup_us)});
  metrics.push_back({"wire.encode_us", "us", Mean(encode_us)});
  metrics.push_back({"wire.decode_us", "us", Mean(decode_us)});
  metrics.push_back({"session.reset_us", "us", Mean(reset_us)});
  metrics.push_back({"pool.checkout_us", "us", Mean(checkout_us)});
  metrics.push_back(
      {"pool.waits", "count", static_cast<double>(traced.pool_waits)});

  // InferenceSession::Run per kernel backend, median per graph, geomean
  // over the set. Every backend must reproduce the reference sinks.
  const std::pair<serenity::runtime::Backend, const char*> kBackends[] = {
      {serenity::runtime::Backend::kReference, "runtime.run_ms.reference"},
      {serenity::runtime::Backend::kBlocked, "runtime.run_ms.blocked"},
      {serenity::runtime::Backend::kAvx2, "runtime.run_ms.avx2"},
      {serenity::runtime::Backend::kAuto, "runtime.run_ms.auto"},
  };
  for (const auto& [backend, metric_name] : kBackends) {
    if (!serenity::runtime::BackendAvailable(backend)) {
      errors->push_back(std::string(metric_name) +
                        ": backend not available on this machine");
      metrics.push_back({metric_name, "ms", 0});
      continue;
    }
    std::vector<double> per_graph;
    for (std::size_t gi = 0; gi < n; ++gi) {
      const GraphRun& g = traced.graphs[gi];
      sv::InferenceSessionOptions options;
      options.executor.backend = backend;
      sv::InferenceSession session(plans[gi], options);
      session.Run(g.inputs[0]);
      std::vector<double> runs;
      for (int r = 0; r < kBackendRuns; ++r) {
        ScopedSpan span(tracer, metric_name, static_cast<std::int64_t>(gi));
        Stopwatch clock;
        session.Run(g.inputs[static_cast<std::size_t>(r) % g.inputs.size()]);
        runs.push_back(clock.ElapsedMillis());
      }
      const std::size_t last = (kBackendRuns - 1) % g.inputs.size();
      const std::string problem =
          CompareBitExact(session.executor().SinkValues(), g.expected[last]);
      if (!problem.empty()) {
        errors->push_back(w.graphs[gi].name + " " + metric_name + ": " +
                          problem);
      }
      per_graph.push_back(Median(runs));
    }
    metrics.push_back({metric_name, "ms", Geomean(per_graph)});
  }

  // What the wire adds to a run: per graph the serve-phase p50 minus the
  // in-process p50, median over the set.
  std::vector<double> overhead;
  for (const GraphRun& g : traced.graphs) {
    overhead.push_back(Percentile(g.wire_ms, 0.5) - Median(g.run_ms));
  }
  metrics.push_back({"serve.overhead_ms_p50", "ms", Median(overhead)});
  return metrics;
}

}  // namespace perfbench
