#include "end_to_end.h"

#include <algorithm>
#include <barrier>
#include <latch>
#include <limits>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>

#include "calibrate.h"
#include "checks.h"
#include "cpus.h"
#include "runtime/executor.h"
#include "sched/baselines.h"
#include "serve/inference_session.h"
#include "serve/plan_cache.h"
#include "serve/tcp_client.h"
#include "serve/tcp_server.h"
#include "stats.h"
#include "util/memory_budget.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace perfbench {

namespace sv = serenity::serve;
using serenity::graph::Graph;
using serenity::runtime::Tensor;
using serenity::util::Stopwatch;

void Counts::Add(const Counts& o) {
  compile_attempted += o.compile_attempted;
  compile_failed += o.compile_failed;
  plan_attempted += o.plan_attempted;
  plan_failed += o.plan_failed;
  infer_attempted += o.infer_attempted;
  infer_failed += o.infer_failed;
}

namespace {

// Rounds of cold compiles, at least; a round compiles every graph once.
constexpr int kMinCompileRounds = 5;
// In-process runs go round-robin over the graphs, in whole rounds (every
// graph once on each rotation CPU), for at least this many rounds and a
// quarter of the run's seconds: spreading each graph's samples over seconds
// keeps a short stall of the machine from moving the median.
constexpr int kMinRunRounds = 11;
// A pass over the host's reference loops at least this often in the run
// phase; the compile and set-up phases take one after every round.
constexpr double kRunSampleEverySeconds = 0.1;
// The serve phase pauses for a pass over the reference loops after every
// slice of this many seconds of serve time (the loops cannot run beside the
// server without slowing it, and it them).
constexpr double kServeSliceSeconds = 0.5;
// Timed server set-ups; setup_s is their median.
constexpr int kSetupRepeats = 9;
// Seeded input tensors per graph.
constexpr int kInputSets = 3;
// Every client sends a warm plan request after every kPlanEvery-th infer it
// sends, counted over the whole run: one plan per three infers on every
// workload. No recorded client mix exists for this server; the share is an
// assumption, chosen so that plan requests are frequent enough to give a
// steady p50 and rare enough that infers dominate the serve phase.
constexpr std::uint64_t kPlanEvery = 3;
// Infer tail and throughput are taken per window of this many consecutive
// completions (at least 10 beyond the p99), then the median over windows,
// so a burst of stolen CPU moves one window and not the run's figure.
constexpr std::size_t kWindowSamples = 1100;
// The serve phase runs until at least this many windows are complete.
constexpr std::size_t kMinWindows = 3;
// Seeded random topological orders the exact peak is compared against.
constexpr int kRandomOrders = 8;
// Element-wise tolerance of the served sinks against the reference run of
// the un-rewritten graph (rewriting reorders floating-point sums).
constexpr double kRewriteTolerance = 1e-4;
constexpr double kReplyTimeoutSeconds = 60;

// One in-process server: planning service, session pool and TCP front end.
// Member order makes the server drain and join before the pool and the
// service it uses are destroyed.
struct Server {
  explicit Server(int connections)
      : server(service, pool, Options(connections)) {}

  static sv::TcpServerOptions Options(int connections) {
    sv::TcpServerOptions options;
    // A connection worker for every connection that is open at once: the
    // clients plus the set-up control connection. With fewer, a queued
    // connection waits out the idle timeout of another.
    options.num_workers = connections + 1;
    return options;
  }

  sv::SchedulerService service;
  sv::SessionPool pool;
  sv::TcpServer server;
};

void Fail(std::vector<std::string>* errors, const std::string& graph,
          const std::string& what) {
  // The first few failures say enough; keep the report short.
  if (errors->size() < 20) errors->push_back(graph + ": " + what);
}

// Phase 1: cold compiles, round-major, each with a fresh unlimited ledger.
// A round compiles every graph once. The calling thread is not pinned: the
// pipeline's own threads (adaptive parallel expansion) spread over the
// machine as they do in use.
void CompilePhase(const Workload& w, const RunConfig& config, Tracer* tracer,
                  HostScale* host, EndToEndResult* out) {
  host->Sample();
  Stopwatch phase;
  for (int round = 0; round < kMinCompileRounds ||
                      phase.ElapsedSeconds() < config.seconds;
       ++round) {
    for (std::size_t gi = 0; gi < w.graphs.size(); ++gi) {
      const BenchGraph& bg = w.graphs[gi];
      GraphRun& g = out->graphs[gi];
      serenity::util::MemoryBudget ledger(
          std::numeric_limits<std::int64_t>::max());
      serenity::core::PipelineOptions options;
      options.memory_budget = &ledger;
      serenity::core::PipelineResult result;
      serenity::alloc::ArenaPlan arena;
      double ms = 0;
      {
        ScopedSpan span(tracer, "compile", static_cast<std::int64_t>(gi));
        Stopwatch clock;
        {
          ScopedSpan stage(tracer, "compile.pipeline");
          result = serenity::core::Pipeline(options).Run(bg.graph);
        }
        if (result.success) {
          ScopedSpan stage(tracer, "compile.plan_arena");
          arena = serenity::alloc::PlanArena(result.scheduled_graph,
                                             result.schedule);
        }
        ms = clock.ElapsedMillis();
      }
      out->counts.compile_attempted += 1;
      if (!result.success || result.degraded ||
          result.quality != serenity::core::PlanQuality::kExact) {
        out->counts.compile_failed += 1;
        Fail(&out->errors, bg.name,
             "compile did not return an exact schedule: " +
                 result.failure_reason);
        continue;
      }
      g.compile_ms.push_back(ms);
      g.search_peak_bytes = std::max(g.search_peak_bytes, ledger.peak_bytes());
      if (round == 0) {
        g.result = std::move(result);
        g.arena = std::move(arena);
        continue;
      }
      // The search is deterministic: a timing-dependent path (level
      // timeout, state cap) shows up here as a changed result.
      if (result.schedule != g.result.schedule ||
          result.peak_bytes != g.result.peak_bytes ||
          result.states_expanded != g.result.states_expanded) {
        Fail(&out->errors, bg.name,
             "compile round " + std::to_string(round) +
                 " differs from the first compile (schedule, peak or "
                 "states_expanded)");
      }
      if (arena.arena_bytes != g.arena.arena_bytes) {
        Fail(&out->errors, bg.name, "arena differs between compiles");
      }
    }
    host->Sample();
  }
}

// Phase 2: output checks on the compiled plans, and the reference sinks.
void CheckPhase(const Workload& w, const RunConfig& config,
                EndToEndResult* out) {
  for (std::size_t gi = 0; gi < w.graphs.size(); ++gi) {
    const BenchGraph& bg = w.graphs[gi];
    GraphRun& g = out->graphs[gi];
    const Graph& sg = g.result.scheduled_graph;
    const auto& schedule = g.result.schedule;
    g.tflite_arena_bytes =
        serenity::alloc::PlanArena(
            bg.graph, serenity::sched::TfLiteOrderSchedule(bg.graph))
            .arena_bytes;
    g.hash = serenity::graph::CanonicalGraphHash(bg.graph);

    std::string problem = CheckTopologicalCover(sg, schedule);
    if (!problem.empty()) {
      Fail(&out->errors, bg.name, "schedule: " + problem);
      continue;
    }
    const std::int64_t peak = LivenessPeak(sg, schedule);
    if (peak != g.result.peak_bytes) {
      Fail(&out->errors, bg.name,
           "liveness sum " + std::to_string(peak) +
               " differs from the reported peak " +
               std::to_string(g.result.peak_bytes));
    }
    problem = CheckPlacements(sg, schedule, g.arena);
    if (!problem.empty()) Fail(&out->errors, bg.name, "arena: " + problem);

    std::vector<std::pair<std::string, serenity::sched::Schedule>> baselines;
    baselines.emplace_back("TFLite order",
                           serenity::sched::TfLiteOrderSchedule(sg));
    baselines.emplace_back("greedy", serenity::sched::GreedyMemorySchedule(sg));
    serenity::util::Rng rng(MixSeed(config.seed, 1000 + gi));
    for (int i = 0; i < kRandomOrders; ++i) {
      baselines.emplace_back("random order",
                             serenity::sched::RandomTopologicalSchedule(sg, rng));
    }
    for (const auto& [label, order] : baselines) {
      problem = CheckTopologicalCover(sg, order);
      if (!problem.empty()) {
        Fail(&out->errors, bg.name, label + " baseline: " + problem);
      } else if (LivenessPeak(sg, order) < peak) {
        Fail(&out->errors, bg.name,
             "the " + label + " peak " +
                 std::to_string(LivenessPeak(sg, order)) +
                 " beats the exact peak " + std::to_string(peak));
      }
    }

    serenity::runtime::ReferenceExecutor scheduled(sg);
    serenity::runtime::ReferenceExecutor original(bg.graph);
    for (int set = 0; set < kInputSets; ++set) {
      std::vector<Tensor> inputs = MakeInputs(
          bg.graph, MixSeed(config.seed, 2000 + gi * 64 + set));
      scheduled.Run(inputs);  // declaration order
      g.expected.push_back(scheduled.SinkValues());
      original.Run(inputs);
      problem = CompareWithin(g.expected.back(), original.SinkValues(),
                              kRewriteTolerance);
      if (!problem.empty()) {
        Fail(&out->errors, bg.name,
             "rewritten graph diverges from the original: " + problem);
      }
      g.inputs.push_back(std::move(inputs));
    }
  }
}

// Phase 3: in-process InferenceSession::Run, round-robin over the graphs.
// Run is single-threaded, so the calling thread is pinned: a round runs
// every graph once on each rotation CPU, and a graph's sample for the
// round is the mean of those runs.
void RunPhase(const Workload& w, const RunConfig& config,
              const std::vector<int>& cpus, Tracer* tracer, HostScale* host,
              EndToEndResult* out) {
  sv::PlanCache cache;
  std::vector<std::unique_ptr<sv::InferenceSession>> sessions;
  for (GraphRun& g : out->graphs) {
    sessions.push_back(std::make_unique<sv::InferenceSession>(
        cache.Insert(g.hash, g.result)));
    sessions.back()->Run(g.inputs[0]);  // first touch of the arena, untimed
  }
  // The passes move over the rotation CPUs too, so that they time the same
  // CPUs as the runs they scale.
  std::size_t passes = 0;
  const auto sample = [&] {
    PinToCpu pin(cpus[passes++ % cpus.size()]);
    host->Sample();
  };
  sample();
  Stopwatch phase, since_sample;
  int rounds = 0;
  for (; rounds < kMinRunRounds ||
         phase.ElapsedSeconds() < config.seconds / 4;
       ++rounds) {
    if (since_sample.ElapsedSeconds() >= kRunSampleEverySeconds) {
      sample();
      since_sample.Restart();
    }
    const std::size_t set =
        static_cast<std::size_t>(rounds % kInputSets);
    std::vector<double> round_ms(sessions.size(), 0.0);
    for (const int cpu : cpus) {
      PinToCpu pin(cpu);
      for (std::size_t gi = 0; gi < sessions.size(); ++gi) {
        ScopedSpan span(tracer, "run.session", static_cast<std::int64_t>(gi));
        Stopwatch clock;
        sessions[gi]->Run(out->graphs[gi].inputs[set]);
        round_ms[gi] += clock.ElapsedMillis();
      }
    }
    for (std::size_t gi = 0; gi < sessions.size(); ++gi) {
      out->graphs[gi].run_ms.push_back(round_ms[gi] /
                                       static_cast<double>(cpus.size()));
    }
  }
  sample();
  const std::size_t last = static_cast<std::size_t>((rounds - 1) %
                                                    kInputSets);
  for (std::size_t gi = 0; gi < sessions.size(); ++gi) {
    const std::string problem =
        CompareBitExact(sessions[gi]->executor().SinkValues(),
                        out->graphs[gi].expected[last]);
    if (!problem.empty()) {
      Fail(&out->errors, w.graphs[gi].name, "in-process run: " + problem);
    }
  }
}

// Phase 4, once: start a server, plan every graph cold over the wire and
// infer it once. Unpinned, so the server's threads spread as they do in
// use. Returns the set-up seconds; replies are checked after the clock
// stops.
double SetupOnce(const Workload& w, Tracer* tracer, std::int64_t request_base,
                 std::unique_ptr<Server>* server, EndToEndResult* out) {
  std::vector<serenity::util::StatusOr<sv::RemotePlan>> plans;
  std::vector<serenity::util::StatusOr<std::vector<Tensor>>> sinks;
  double seconds = 0;
  {
    ScopedSpan span(tracer, "setup", request_base);
    Stopwatch clock;
    *server = std::make_unique<Server>(w.connections);
    const serenity::util::Status started = (*server)->server.Start();
    if (!started.ok()) {
      Fail(&out->errors, w.name, "server start: " + started.ToString());
      return clock.ElapsedSeconds();
    }
    serenity::util::StatusOr<sv::TcpClient> control =
        sv::TcpClient::Connect((*server)->server.port());
    if (!control.ok()) {
      Fail(&out->errors, w.name, "connect: " + control.status().ToString());
      return clock.ElapsedSeconds();
    }
    for (std::size_t gi = 0; gi < w.graphs.size(); ++gi) {
      ScopedSpan request(tracer, "setup.plan",
                         request_base + 1 + static_cast<std::int64_t>(gi));
      plans.push_back(control->Plan(w.graphs[gi].text, 0, true,
                                    kReplyTimeoutSeconds));
    }
    for (std::size_t gi = 0; gi < w.graphs.size(); ++gi) {
      ScopedSpan request(tracer, "setup.infer",
                         request_base + 1 +
                             static_cast<std::int64_t>(w.graphs.size() + gi));
      sinks.push_back(control->Infer(out->graphs[gi].hash,
                                     out->graphs[gi].inputs[0], 0,
                                     kReplyTimeoutSeconds));
    }
    control->Close();
    seconds = clock.ElapsedSeconds();
  }
  for (std::size_t gi = 0; gi < w.graphs.size(); ++gi) {
    const std::string& name = w.graphs[gi].name;
    GraphRun& g = out->graphs[gi];
    out->counts.plan_attempted += 1;
    out->counts.infer_attempted += 1;
    if (!plans[gi].ok()) {
      out->counts.plan_failed += 1;
      Fail(&out->errors, name, "cold plan: " + plans[gi].status().ToString());
    } else {
      const sv::RemotePlan& plan = *plans[gi];
      if (plan.cache_hit || !(plan.hash == g.hash) ||
          plan.quality !=
              static_cast<std::uint8_t>(serenity::core::PlanQuality::kExact)) {
        Fail(&out->errors, name,
             "cold plan reply is a cache hit, another hash or not exact");
      }
      g.served_arena_bytes = plan.arena_bytes;
      const std::shared_ptr<const sv::CachedPlan> cached =
          (*server)->service.cache().Lookup(g.hash);
      if (cached == nullptr) {
        Fail(&out->errors, name, "planned graph missing from the cache");
      } else {
        // The served plan is the compiled one: same schedule, same arena,
        // and it passes the placement check on the served graph.
        if (cached->plan.schedule != g.result.schedule ||
            cached->plan.arena.arena_bytes != g.arena.arena_bytes ||
            plan.arena_bytes != g.arena.arena_bytes) {
          Fail(&out->errors, name, "served plan differs from the compiled one");
        }
        const std::string problem =
            CheckPlacements(cached->result.scheduled_graph,
                            cached->plan.schedule, cached->plan.arena);
        if (!problem.empty()) {
          Fail(&out->errors, name, "served arena: " + problem);
        }
      }
    }
    if (!sinks[gi].ok()) {
      out->counts.infer_failed += 1;
      Fail(&out->errors, name, "set-up infer: " + sinks[gi].status().ToString());
    } else {
      const std::string problem = CompareBitExact(*sinks[gi], g.expected[0]);
      if (!problem.empty()) Fail(&out->errors, name, "set-up infer: " + problem);
    }
  }
  return seconds;
}

struct ClientLog {
  std::vector<double> infer_ms;
  std::vector<double> infer_done_s;  // completion, seconds into the phase
  std::vector<int> infer_graph;
  std::vector<double> plan_ms;
  Counts counts;
  std::vector<std::string> errors;
};

// The timed serve phase runs in slices of kServeSliceSeconds of serve time.
// Between slices every client waits at the barrier while the main thread
// takes a pass over the host's reference loops; the program is idle then,
// and the pauses are left out of the serve time.
struct ServeSlices {
  explicit ServeSlices(int clients) : barrier(clients + 1) {}
  // Seconds since the serve phase started, less the pauses.
  double ServeSeconds() const { return clock.ElapsedSeconds() - paused_s; }

  std::barrier<> barrier;
  Stopwatch clock;
  // Written by the main thread only while every client waits at the
  // barrier, which orders the writes before the clients' reads.
  double paused_s = 0;
  double slice_end_s = 0;
  bool finished = false;
};

// One closed-loop client: whole rounds over every graph (start rotated by
// the seed), an infer per graph, and a warm plan request after every
// kPlanEvery-th infer the client sends, slice after slice until the main
// thread finds the phase finished. A lone client is single-threaded, so it
// moves to the next rotation CPU every round; several clients are left
// unpinned, since a pinned client cannot move away from a server worker on
// the same CPU.
void ClientLoop(int c, const std::vector<int>& cpus, sv::TcpClient& conn,
                const Workload& w,
                const EndToEndResult& run, const RunConfig& config,
                Tracer* tracer, std::latch& warmed, ServeSlices& slices,
                ClientLog& log) {
  const std::size_t n = w.graphs.size();
  serenity::util::Rng rng(MixSeed(config.seed, 3000 + c));
  std::int64_t request_id = (static_cast<std::int64_t>(c) + 1) << 32;
  std::uint64_t infers_sent = 0;
  const auto round = [&](bool timed) {
    const std::size_t start = rng.NextBounded(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t gi = (start + k) % n;
      const GraphRun& g = run.graphs[gi];
      const std::size_t set = rng.NextBounded(g.inputs.size());
      serenity::util::StatusOr<std::vector<Tensor>> sinks =
          serenity::util::InternalError("not sent");
      double ms = 0;
      {
        ScopedSpan span(tracer, "serve.infer", ++request_id);
        Stopwatch clock;
        sinks = conn.Infer(g.hash, g.inputs[set], 0, kReplyTimeoutSeconds);
        ms = clock.ElapsedMillis();
      }
      const double done_s = slices.ServeSeconds();
      log.counts.infer_attempted += 1;
      if (!sinks.ok()) {
        log.counts.infer_failed += 1;
        Fail(&log.errors, w.graphs[gi].name,
             "infer: " + sinks.status().ToString());
      } else {
        if (timed) {
          log.infer_ms.push_back(ms);
          log.infer_done_s.push_back(done_s);
          log.infer_graph.push_back(static_cast<int>(gi));
        }
        const std::string problem = CompareBitExact(*sinks, g.expected[set]);
        if (!problem.empty()) Fail(&log.errors, w.graphs[gi].name, problem);
      }
      if (++infers_sent % kPlanEvery != 0) continue;
      serenity::util::StatusOr<sv::RemotePlan> plan =
          serenity::util::InternalError("not sent");
      {
        ScopedSpan span(tracer, "serve.plan", ++request_id);
        Stopwatch clock;
        plan = conn.Plan(w.graphs[gi].text, 0, true, kReplyTimeoutSeconds);
        ms = clock.ElapsedMillis();
      }
      log.counts.plan_attempted += 1;
      if (!plan.ok()) {
        log.counts.plan_failed += 1;
        Fail(&log.errors, w.graphs[gi].name,
             "warm plan: " + plan.status().ToString());
        continue;
      }
      if (timed) log.plan_ms.push_back(ms);
      if (!plan->cache_hit || !(plan->hash == g.hash) ||
          plan->arena_bytes != g.served_arena_bytes) {
        Fail(&log.errors, w.graphs[gi].name,
             "warm plan reply is a miss or names another plan");
      }
    }
  };
  round(/*timed=*/false);  // warm the session pool before the clock starts
  warmed.count_down();
  for (std::size_t r = 0;;) {
    slices.barrier.arrive_and_wait();  // the slice starts
    if (slices.finished) break;
    do {
      PinToCpu pin(w.connections == 1 ? cpus[r++ % cpus.size()] : -1);
      round(/*timed=*/true);
    } while (slices.ServeSeconds() < slices.slice_end_s);
    slices.barrier.arrive_and_wait();  // the slice ends
  }
}

// Splits the infers, in order of completion, into windows of
// kWindowSamples (the remainder joins the last window) and returns the
// median over windows of the window's p99 and of its throughput: window
// samples over the time from the previous window's last completion to its
// own.
std::pair<double, double> WindowedTail(
    std::vector<std::pair<double, double>> done_s_and_ms) {
  if (done_s_and_ms.empty()) return {0, 0};  // every infer failed
  std::sort(done_s_and_ms.begin(), done_s_and_ms.end());
  const std::size_t windows =
      std::max<std::size_t>(1, done_s_and_ms.size() / kWindowSamples);
  std::vector<double> p99, rps;
  double window_start = 0;
  for (std::size_t i = 0; i < windows; ++i) {
    const std::size_t begin = i * kWindowSamples;
    const std::size_t end =
        i + 1 == windows ? done_s_and_ms.size() : begin + kWindowSamples;
    std::vector<double> ms;
    for (std::size_t k = begin; k < end; ++k) {
      ms.push_back(done_s_and_ms[k].second);
    }
    p99.push_back(Percentile(ms, 0.99));
    const double window_end = done_s_and_ms[end - 1].first;
    rps.push_back(static_cast<double>(end - begin) /
                  (window_end - window_start));
    window_start = window_end;
  }
  return {Median(p99), Median(rps)};
}

}  // namespace

EndToEndResult RunEndToEnd(const Workload& w, const RunConfig& config,
                           Tracer* tracer) {
  EndToEndResult out;
  out.graphs.resize(w.graphs.size());
  HostScale compile_host, run_host, setup_host, serve_host;
  CompilePhase(w, config, tracer, &compile_host, &out);
  if (out.counts.compile_failed > 0) return out;
  CheckPhase(w, config, &out);
  const std::vector<int> cpus = RotationCpus();
  RunPhase(w, config, cpus, tracer, &run_host, &out);

  std::vector<double> setup_seconds;
  std::unique_ptr<Server> server;
  setup_host.Sample();
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();  // drains and joins the previous set-up's server
    setup_seconds.push_back(SetupOnce(
        w, tracer, static_cast<std::int64_t>(rep) << 20, &server, &out));
    setup_host.Sample();
  }
  // The last set-up's server is the one that serves.

  // Phase 5: the timed serve phase.
  const int connections = w.connections;
  std::vector<sv::TcpClient> conns;
  for (int c = 0; c < connections; ++c) {
    serenity::util::StatusOr<sv::TcpClient> conn =
        sv::TcpClient::Connect(server->server.port());
    if (!conn.ok()) {
      Fail(&out.errors, w.name, "connect: " + conn.status().ToString());
      return out;
    }
    conns.push_back(std::move(*conn));
  }
  std::vector<ClientLog> logs(static_cast<std::size_t>(connections));
  std::latch warmed(connections);
  ServeSlices slices(connections);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ClientLoop(c, cpus, conns[static_cast<std::size_t>(c)], w, out, config,
                 tracer, warmed, slices, logs[static_cast<std::size_t>(c)]);
    });
  }
  warmed.wait();
  // The clients wait at the barrier and the server is idle.
  serve_host.Sample();
  const sv::SessionPoolStats before = server->pool.stats();
  slices.clock.Restart();
  for (;;) {
    slices.slice_end_s += kServeSliceSeconds;
    slices.barrier.arrive_and_wait();  // the slice starts
    if (slices.finished) break;
    slices.barrier.arrive_and_wait();  // every client ended the slice
    const Stopwatch pause;
    serve_host.Sample();
    std::uint64_t infers = 0;
    for (const ClientLog& log : logs) infers += log.counts.infer_attempted;
    // The run's seconds are over and kMinWindows windows of infers sent.
    slices.finished = slices.ServeSeconds() >= config.seconds &&
                      infers >= kMinWindows * kWindowSamples;
    slices.paused_s += pause.ElapsedSeconds();
  }
  for (std::thread& t : threads) t.join();
  const sv::SessionPoolStats after = server->pool.stats();
  for (sv::TcpClient& conn : conns) conn.Close();
  server.reset();
  out.pool_waits = after.waits - before.waits;
  if (after.sheds != 0) {
    Fail(&out.errors, w.name, std::to_string(after.sheds) + " pool sheds");
  }

  std::vector<double> infer_ms, plan_ms;
  std::vector<std::pair<double, double>> done_s_and_ms;
  for (ClientLog& log : logs) {
    out.counts.Add(log.counts);
    for (std::string& e : log.errors) Fail(&out.errors, "serve", e);
    infer_ms.insert(infer_ms.end(), log.infer_ms.begin(), log.infer_ms.end());
    plan_ms.insert(plan_ms.end(), log.plan_ms.begin(), log.plan_ms.end());
    for (std::size_t i = 0; i < log.infer_ms.size(); ++i) {
      out.graphs[static_cast<std::size_t>(log.infer_graph[i])]
          .wire_ms.push_back(log.infer_ms[i]);
      done_s_and_ms.emplace_back(log.infer_done_s[i], log.infer_ms[i]);
    }
  }
  out.infer_samples = infer_ms.size();
  out.plan_samples = plan_ms.size();
  std::tie(out.infer_ms_p99, out.infer_rps) =
      WindowedTail(std::move(done_s_and_ms));

  std::vector<double> compile_medians, run_medians, reductions;
  double search_peak = 0, arena_total = 0;
  for (const GraphRun& g : out.graphs) {
    compile_medians.push_back(Median(g.compile_ms));
    run_medians.push_back(Median(g.run_ms));
    reductions.push_back(static_cast<double>(g.tflite_arena_bytes) /
                         static_cast<double>(g.served_arena_bytes));
    search_peak =
        std::max(search_peak, static_cast<double>(g.search_peak_bytes));
    arena_total += static_cast<double>(g.served_arena_bytes);
  }
  out.host_pass_ms = {
      {"compile", compile_host.median_pass_ms()},
      {"run", run_host.median_pass_ms()},
      {"setup", setup_host.median_pass_ms()},
      {"serve", serve_host.median_pass_ms()},
  };
  // A wall time, kept raw and reported scaled to the reference host by the
  // host's speed in the phase that measured it.
  const auto wall = [&out](const char* name, const char* unit, double value,
                           const HostScale& host) {
    out.raw.push_back({name, unit, value});
    return Metric{name, unit, value * host.factor()};
  };
  out.metrics = {
      wall("setup_s", "s", Median(setup_seconds), setup_host),
      wall("compile_ms_geomean", "ms", Geomean(compile_medians), compile_host),
      wall("compile_ms_total", "ms", Sum(compile_medians), compile_host),
      {"search_peak_kb", "KiB", search_peak / 1024.0},
      {"arena_kb_total", "KiB", arena_total / 1024.0},
      {"peak_reduction_geomean", "x", Geomean(reductions)},
      wall("run_ms_geomean", "ms", Geomean(run_medians), run_host),
      wall("infer_ms_p50", "ms", Percentile(infer_ms, 0.50), serve_host),
      wall("plan_ms_p50", "ms", Percentile(plan_ms, 0.50), serve_host),
  };
  return out;
}

}  // namespace perfbench
