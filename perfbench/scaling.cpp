// perfbench_scaling: how workflow loading and simulation grow with width.
//
// For each workflow file, times util::Json::parse of its text, the graph
// build dag::load_workflow_json on the parsed value, and
// sim::run_workflow on the given system, each as one call, and prints one
// line per file.  The README's width-scaling figures come from this
// program run on `wfr archetype` outputs of growing size.
//
// usage: perfbench_scaling --system SYSTEM.json WORKFLOW.json...

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system_spec.hpp"
#include "dag/wdl.hpp"
#include "sim/runner.hpp"
#include "util/file.hpp"
#include "util/json.hpp"

namespace {

using namespace wfr;

template <typename F>
double seconds_of(F&& f) {
  const auto begin = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

int run(int argc, char** argv) {
  if (argc < 4 || std::string(argv[1]) != "--system")
    throw std::runtime_error(
        "usage: perfbench_scaling --system SYSTEM.json WORKFLOW.json...");
  const sim::MachineConfig machine =
      core::SystemSpec::from_json(util::Json::parse(util::read_file(argv[2])))
          .to_machine();
  std::printf("%-40s %7s %10s %10s %10s %10s\n", "workflow", "tasks", "MB",
              "parse_s", "build_s", "simulate_s");
  for (int i = 3; i < argc; ++i) {
    const std::string text = util::read_file(argv[i]);
    util::Json json;
    const double parse_s = seconds_of([&] { json = util::Json::parse(text); });
    dag::WorkflowGraph graph;
    const double build_s =
        seconds_of([&] { graph = dag::load_workflow_json(json); });
    const double simulate_s =
        seconds_of([&] { (void)sim::run_workflow(graph, machine); });
    std::printf("%-40s %7zu %10.2f %10.4f %10.4f %10.4f\n", argv[i],
                graph.task_count(), static_cast<double>(text.size()) / 1e6,
                parse_s, build_s, simulate_s);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_scaling: %s\n", e.what());
    return 1;
  }
}
