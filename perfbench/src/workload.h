// The benchmark's workloads: fixed graph sets plus the seeded inputs that
// drive them.
//
//   zoo      the paper's nine cells (DARTS, SwiftNet A-C, RandWire), served
//            over one connection;
//   stacked  five MakeRandomCellNetwork stacks of 4 cells x 18-20
//            intermediates at spatial 8, served over several connections.
//
// The graph sets are fixed so every seed measures the same compile work;
// --seed draws the input tensors, the clients' request order and the
// random topological orders the peak check compares against.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "runtime/tensor.h"

namespace perfbench {

struct BenchGraph {
  std::string name;
  serenity::graph::Graph graph;
  std::string text;  // serialize::ToText, the plan verb's body
};

struct Workload {
  std::string name;
  std::vector<BenchGraph> graphs;
  int connections = 1;  // concurrent client connections in the serve phase
};

// nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name);

// One random tensor per kInput node, in ascending node-id order (the
// operand order of every executor).
std::vector<serenity::runtime::Tensor> MakeInputs(
    const serenity::graph::Graph& graph, std::uint64_t seed);

// Seed mixing for independent streams drawn from one --seed.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
