// perfbench: the compile-and-serve benchmark of SERENITY.
//
//   perfbench --workload zoo|stacked --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// --trace 0 runs the workload end to end once, untraced, and reports the
// nine end-to-end metrics. --trace 1 runs it untraced, then traced, then
// the per-layer breakdown, and reports the per-layer metrics together with
// the tracing overhead (traced / untraced end-to-end figures); the spans go
// to --trace-out as JSON lines. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every output check passed.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "calibrate.h"
#include "checks.h"
#include "end_to_end.h"
#include "layers.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0 && args.seconds <= 600)) {
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || args.workload.empty()) return std::nullopt;
  return args;
}

const Metric* Find(const std::vector<Metric>& metrics,
                   const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// One row per graph: what the end-to-end metrics are made of.
void PrintGraphs(const Workload& w, const EndToEndResult& r) {
  std::printf("%-28s %6s %10s %10s %9s %9s %9s %9s\n", "graph", "nodes",
              "compile", "search", "arena", "tflite", "run p50",
              "wire p50");
  std::printf("%-28s %6s %10s %10s %9s %9s %9s %9s\n", "", "", "ms", "KiB",
              "KiB", "KiB", "ms", "ms");
  for (std::size_t gi = 0; gi < r.graphs.size(); ++gi) {
    const GraphRun& g = r.graphs[gi];
    std::printf("%-28s %6d %10.2f %10.1f %9.1f %9.1f %9.3f %9.3f\n",
                w.graphs[gi].name.c_str(), w.graphs[gi].graph.num_nodes(),
                Median(g.compile_ms),
                static_cast<double>(g.search_peak_bytes) / 1024.0,
                static_cast<double>(g.served_arena_bytes) / 1024.0,
                static_cast<double>(g.tflite_arena_bytes) / 1024.0,
                Median(g.run_ms), Percentile(g.wire_ms, 0.5));
  }
}

void PrintCounts(const Counts& c) {
  std::printf(
      "operations: compile %llu attempted / %llu failed, plan %llu / %llu, "
      "infer %llu / %llu\n",
      static_cast<unsigned long long>(c.compile_attempted),
      static_cast<unsigned long long>(c.compile_failed),
      static_cast<unsigned long long>(c.plan_attempted),
      static_cast<unsigned long long>(c.plan_failed),
      static_cast<unsigned long long>(c.infer_attempted),
      static_cast<unsigned long long>(c.infer_failed));
}

void PrintResult(bool correct, const Counts& counts,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(counts.attempted()),
              static_cast<unsigned long long>(counts.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload zoo|stacked --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  const std::vector<std::string> self_test = RunCheckerSelfTests();
  if (!self_test.empty()) {
    for (const std::string& f : self_test) {
      std::fprintf(stderr, "checker self-test failed: %s\n", f.c_str());
    }
    return 2;
  }
  const std::optional<Workload> workload = MakeWorkload(args->workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  RunConfig config;
  config.seed = args->seed;
  config.seconds = args->seconds;
  std::printf("workload %s: %zu graphs, %d connection(s), seed %llu, "
              "%.0f s serve phase\n",
              workload->name.c_str(), workload->graphs.size(),
              workload->connections,
              static_cast<unsigned long long>(args->seed), args->seconds);

  std::vector<std::string> errors;
  Counts counts;
  std::vector<Metric> reported;
  const EndToEndResult untraced = RunEndToEnd(*workload, config, nullptr);
  counts.Add(untraced.counts);
  errors = untraced.errors;
  PrintGraphs(*workload, untraced);
  PrintMetrics("end to end (untraced):", untraced.metrics);
  PrintMetrics("  wall times before scaling to the reference host:",
               untraced.raw);
  std::printf("  host reference pass (%.0f ms on the reference host):",
              kReferencePassMs);
  for (const auto& [phase, ms] : untraced.host_pass_ms) {
    std::printf(" %s %.2f ms", phase.c_str(), ms);
  }
  std::printf("\n  serve tail: p99 %.3f ms, %.1f infers/s (unscaled)\n",
              untraced.infer_ms_p99, untraced.infer_rps);
  std::printf("  samples: %zu infers, %zu warm plans\n",
              untraced.infer_samples, untraced.plan_samples);
  if (!args->trace) {
    reported = untraced.metrics;
  } else {
    Tracer tracer;
    const EndToEndResult traced = RunEndToEnd(*workload, config, &tracer);
    counts.Add(traced.counts);
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    PrintMetrics("end to end (traced):", traced.metrics);
    if (errors.empty()) {
      reported = RunLayers(*workload, traced, &tracer, &errors);
      // The serve tail and throughput of the untraced run: too unsteady on
      // a shared host to gate on (README), so they are read, not bounded.
      reported.push_back({"serve.infer_ms_p99", "ms", untraced.infer_ms_p99});
      reported.push_back({"serve.infer_rps", "1/s", untraced.infer_rps});
      for (const char* name :
           {"setup_s", "compile_ms_total", "infer_ms_p50", "plan_ms_p50"}) {
        const Metric* base = Find(untraced.metrics, name);
        const Metric* with = Find(traced.metrics, name);
        if (base != nullptr && with != nullptr && base->value > 0) {
          reported.push_back({std::string("trace.overhead.") + name, "x",
                              with->value / base->value});
        }
      }
    }
    if (!args->trace_out.empty() && !tracer.WriteJsonLines(args->trace_out)) {
      errors.push_back("could not write spans to " + args->trace_out);
    }
    PrintMetrics("per layer (traced):", reported);
    std::printf("  %zu spans recorded\n", tracer.spans().size());
  }
  PrintCounts(counts);
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED %s\n", e.c_str());
  }
  const bool correct = errors.empty() && !reported.empty();
  std::fflush(stdout);
  PrintResult(correct, counts, reported);
  return correct ? 0 : 1;
}
