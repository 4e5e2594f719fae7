// perfbench_layers: the benchmark's traced run.
//
// Calls each module's public functions directly, on the inputs gen.py
// generated for the four workloads, and times every call from here (the
// program itself is not instrumented).  The same work runs seven times: a
// warm-up pass, then three traced and three untraced passes in turn; the
// fastest pass of each kind gives the tracing overhead.  The first traced pass keeps
// its spans in memory and writes them as Trace Event JSON at the end; per
// layer it reports calls, busy seconds and the median call.
//
// Spans nest three deep: a workload's stage, one operation of it (a grid
// point, a request, a check scenario, a wide DAG) and the layer calls the
// operation made.  Every span carries its own id and its parent's in
// "args", and every span of one operation its stage and operation id.
//
// usage: perfbench_layers --dir INPUTS --check-base-seed N --check-seeds S
//                         --jobs J --trace-out FILE
//
// Prints one JSON object of per-layer metrics on its last line.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "check/scenario_gen.hpp"
#include "core/characterization.hpp"
#include "core/model.hpp"
#include "core/system_spec.hpp"
#include "dag/wdl.hpp"
#include "exec/sweep.hpp"
#include "obs/observation.hpp"
#include "obs/trace_event.hpp"
#include "schedule.hpp"
#include "serve/app.hpp"
#include "sim/runner.hpp"
#include "util/file.hpp"
#include "util/http.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "workflows/wfcommons.hpp"

namespace {

using namespace wfr;
using Clock = std::chrono::steady_clock;

// Per-call timing of the first kSweepCalls grid points.
constexpr std::size_t kSweepCalls = 20000;
// Traced and untraced passes each, for the tracing overhead.
constexpr int kOverheadPasses = 3;
// Operations per stage whose spans go to the trace file (all calls are
// measured).
constexpr long kTraceOpsPerStage = 1000;

const char* const kLayers[] = {
    "util.json_parse",         "util.json_dump",
    "util.append_double",      "util.http_parse",
    "core.build_model",        "exec.evaluate_model_summary",
    "exec.append_result_line", "exec.grid_at",
    "sim.run_workflow.wide",   "sim.run_workflow.check",
    "dag.load_workflow",       "check.scenario_gen",
    "check.differential",      "workflows.import_wfcommons",
    "serve.roofline_from_bytes", "serve.sweep_from_bytes",
    "serve.import_from_bytes"};

struct Span {
  std::string name;   // a layer, an operation kind or a stage
  std::string stage;
  long op;            // operation id within the stage; -1 outside one
  std::uint64_t id;
  std::uint64_t parent;  // 0 for a stage
  double begin_s;
  double seconds;
};

// Times calls into the program.  Untraced, it only runs them.
class Recorder {
 public:
  explicit Recorder(bool traced) : traced_(traced), origin_(Clock::now()) {
    for (const char* name : kLayers) {
      index_[name] = durations_.size();
      durations_.emplace_back();
    }
  }

  template <typename F>
  decltype(auto) time(const char* layer, F&& f) {
    if (!traced_) return f();
    struct Stop {
      Recorder* self;
      const char* layer;
      Clock::time_point begin;
      ~Stop() {
        const Clock::time_point end = Clock::now();
        self->durations_[self->index_.at(layer)].push_back(
            std::chrono::duration<double>(end - begin).count());
        self->close(layer, begin, end);
      }
    } stop{this, layer, open()};
    return f();
  }

  /// Runs one operation of the current stage; its layer calls nest in it.
  template <typename F>
  void op(const char* kind, long id, F&& f) {
    op_ = id;
    const Clock::time_point begin = traced_ ? open() : Clock::time_point{};
    f();
    if (traced_) close(kind, begin, Clock::now());
    op_ = -1;
  }

  /// Starts a stage; the previous one (if any) ends here.
  void stage(const std::string& name) {
    end_stage();
    stage_ = name;
    stage_begin_ = traced_ ? open() : Clock::time_point{};
  }
  void end_stage() {
    if (traced_ && !stage_.empty()) {
      op_ = -1;
      close(stage_.c_str(), stage_begin_, Clock::now());
    }
    stage_.clear();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<double>& durations(const char* layer) const {
    return durations_[index_.at(layer)];
  }

 private:
  // Opens a span nested in the innermost open one; returns its start.
  Clock::time_point open() {
    open_.push_back(++last_id_);
    return Clock::now();
  }

  // Closes the innermost span and keeps it for the trace file if it
  // belongs to a stage or to one of its first kTraceOpsPerStage operations.
  void close(const char* name, Clock::time_point begin, Clock::time_point end) {
    const std::uint64_t id = open_.back();
    open_.pop_back();
    if (op_ >= kTraceOpsPerStage) return;
    spans_.push_back({name, stage_, op_, id, open_.empty() ? 0 : open_.back(),
                      std::chrono::duration<double>(begin - origin_).count(),
                      std::chrono::duration<double>(end - begin).count()});
  }

  bool traced_;
  Clock::time_point origin_;
  std::vector<std::uint64_t> open_;  // ids of the open spans, innermost last
  std::uint64_t last_id_ = 0;
  std::string stage_;
  Clock::time_point stage_begin_;
  long op_ = -1;
  std::map<std::string, std::size_t, std::less<>> index_;
  std::vector<std::vector<double>> durations_;
  std::vector<Span> spans_;
};

struct Options {
  std::string dir;
  std::uint64_t check_base_seed = 0;
  std::size_t check_seeds = 0;
  int jobs = 1;
  std::string trace_out;
};

struct StageResults {
  double stream_1job_pps = 0.0;
  double stream_jobs_pps = 0.0;
  exec::SweepStats campaign_cache;
  double serve_cache_hits = 0.0;
  double serve_cache_misses = 0.0;
  double engine_events = 0.0;
};

std::string path_in(const Options& o, const char* name) {
  return o.dir + "/" + name;
}

// --- sweep-campaign: grid materialization, evaluation, row formatting -------

void sweep_stage(const Options& o, Recorder& rec, StageResults& out) {
  rec.stage("sweep-campaign");
  const core::SystemSpec system = core::SystemSpec::from_json(
      util::Json::parse(util::read_file(path_in(o, "sweep-system.json"))));
  const core::WorkflowCharacterization workflow =
      core::WorkflowCharacterization::from_json(util::Json::parse(
          util::read_file(path_in(o, "sweep-workflow.json"))));
  const util::Json axes_json =
      util::Json::parse(util::read_file(path_in(o, "sweep-axes.json")));
  std::vector<exec::ParamAxis> axes;
  for (const util::Json& axis : axes_json.as_array()) {
    exec::ParamAxis a;
    a.name = axis.at(std::size_t{0}).as_string();
    for (const util::Json& v : axis.at(std::size_t{1}).as_array())
      a.values.push_back(v.as_number());
    axes.push_back(std::move(a));
  }
  const exec::SweepGrid grid(system, workflow, axes);

  exec::Scenario scenario;
  std::vector<core::CeilingSpec> scratch;
  std::string line, number;
  const std::size_t calls = std::min(kSweepCalls, grid.size());
  for (std::size_t flat = 0; flat < calls; ++flat) {
    rec.op("grid_point", static_cast<long>(flat), [&] {
      rec.time("exec.grid_at", [&] { grid.at_into(flat, scenario); });
      const exec::ModelSummary s =
          rec.time("exec.evaluate_model_summary", [&] {
            return exec::evaluate_model_summary(scenario, scratch);
          });
      line.clear();
      rec.time("exec.append_result_line", [&] {
        exec::append_result_line(line, scenario.label, scenario.params,
                                 s.parallelism_wall, s.attainable_tps_at_wall,
                                 s.binding_label, s.binding_channel,
                                 s.slot_seconds, s.campaign_makespan_seconds);
      });
      std::vector<double> doubles{s.attainable_tps_at_wall, s.slot_seconds,
                                  s.campaign_makespan_seconds};
      for (const auto& param : scenario.params)
        doubles.push_back(param.second);
      for (double v : doubles) {
        number.clear();
        rec.time("util.append_double",
                 [&] { util::append_double(number, v); });
      }
    });
  }

  // The campaign path end to end, minus process and file I/O: stream the
  // whole grid into a discarding sink at 1 job and at the traced run's job
  // count.
  auto stream = [&](int jobs, exec::SweepStats* stats) {
    exec::SweepRunner runner(exec::SweepOptions{.jobs = jobs});
    std::size_t bytes = 0;
    const Clock::time_point begin = Clock::now();
    runner.stream_lines(grid, {}, [&](std::size_t, std::string_view l) {
      bytes += l.size();
    });
    const double seconds =
        std::chrono::duration<double>(Clock::now() - begin).count();
    if (bytes == 0) throw std::runtime_error("stream_lines emitted nothing");
    if (stats != nullptr) *stats = runner.stats();
    return static_cast<double>(grid.size()) / seconds;
  };
  out.stream_1job_pps = stream(1, nullptr);
  out.stream_jobs_pps = stream(o.jobs, &out.campaign_cache);
}

// --- serve-mixed: HTTP parse, JSON parse/dump, handlers, model, import -----

double metric_value(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const std::size_t at = text.find(key);
  if (at == std::string::npos)
    throw std::runtime_error("/metrics lacks " + name);
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

void serve_stage(const Options& o, Recorder& rec, StageResults& out) {
  rec.stage("serve-mixed");
  const perfbench::Schedule schedule =
      perfbench::load_schedule(path_in(o, "serve-schedule.txt"));
  std::vector<std::string> wire;
  for (const perfbench::RequestBody& b : schedule.bodies)
    wire.push_back(perfbench::wire_request(b));

  serve::App app;
  long sent = 0;
  for (int id : schedule.round) {
    rec.op("request", sent++, [&] {
      const perfbench::RequestBody& b =
          schedule.bodies[static_cast<std::size_t>(id)];
      util::HttpRequest request;
      rec.time("util.http_parse", [&] {
        util::HttpParser parser;
        parser.feed(wire[static_cast<std::size_t>(id)]);
        if (parser.next(&request) != util::HttpParser::Status::kComplete)
          throw std::runtime_error("request did not parse");
      });
      const util::Json body = rec.time(
          "util.json_parse", [&] { return util::Json::parse(b.body); });

      util::HttpResponse response;
      if (b.endpoint == "/v1/roofline") {
        response = rec.time("serve.roofline_from_bytes",
                            [&] { return app.roofline_from_bytes(b.body); });
        const core::SystemSpec system =
            core::SystemSpec::from_json(body.at("system"));
        const core::WorkflowCharacterization workflow =
            core::WorkflowCharacterization::from_json(body.at("workflow"));
        rec.time("core.build_model",
                 [&] { return core::build_model(system, workflow); });
      } else if (b.endpoint == "/v1/sweep") {
        response = rec.time("serve.sweep_from_bytes",
                            [&] { return app.sweep_from_bytes(b.body); });
      } else {
        response = rec.time("serve.import_from_bytes",
                            [&] { return app.import_from_bytes(b.body); });
        const util::Json& doc =
            body.as_object().contains("system") ? body.at("workflow") : body;
        rec.time("workflows.import_wfcommons",
                 [&] { return workflows::import_wfcommons_json(doc); });
      }
      if (response.status != 200)
        throw std::runtime_error(b.endpoint + " answered " +
                                 std::to_string(response.status) + ": " +
                                 response.body);
      const util::Json tree = util::Json::parse(response.body);
      rec.time("util.json_dump", [&] { return tree.dump(); });
    });
  }
  const std::string metrics = app.handle_metrics(util::HttpRequest{}).body;
  out.serve_cache_hits = metric_value(metrics, "sweep_cache_hits");
  out.serve_cache_misses = metric_value(metrics, "sweep_cache_misses");
}

// --- check-differential: scenario generation, model, simulator --------------

void check_stage(const Options& o, Recorder& rec) {
  rec.stage("check-differential");
  const check::ScenarioGen gen(o.check_base_seed, check::GenMode::kIrregular);
  check::CheckOptions options;
  options.base_seed = o.check_base_seed;
  options.mode = check::GenMode::kIrregular;
  options.jobs = 1;
  const check::DifferentialRunner runner(options);
  for (std::size_t i = 0; i < o.check_seeds; ++i) {
    rec.op("scenario", static_cast<long>(i), [&] {
      const check::GenScenario scenario =
          rec.time("check.scenario_gen", [&] { return gen.generate(i); });
      const check::CaseResult result = rec.time(
          "check.differential", [&] { return runner.run_case(scenario); });
      if (!result.passed())
        throw std::runtime_error("check scenario " + std::to_string(i) +
                                 " diverged");
      const dag::WorkflowGraph graph = scenario.build_graph();
      const core::WorkflowCharacterization c = core::characterize_graph(graph);
      rec.time("core.build_model",
               [&] { return core::build_model(scenario.system, c); });
      rec.time("sim.run_workflow.check", [&] {
        return sim::run_workflow(graph, scenario.system.to_machine());
      });
    });
  }
}

// --- simulate-wide: workflow loading and the wide simulation ----------------

void wide_stage(const Options& o, Recorder& rec, StageResults& out) {
  rec.stage("simulate-wide");
  const sim::MachineConfig machine =
      core::SystemSpec::from_json(util::Json::parse(util::read_file(
                                      path_in(o, "wide-system.json"))))
          .to_machine();
  long dag_id = 0;
  for (const char* name : {"wide-waves.json", "wide-fan.json",
                           "wide-layered.json"}) {
    rec.op("dag", dag_id++, [&] {
      const std::string text = util::read_file(path_in(o, name));
      const util::Json json =
          rec.time("util.json_parse", [&] { return util::Json::parse(text); });
      const dag::WorkflowGraph graph = rec.time(
          "dag.load_workflow", [&] { return dag::load_workflow_json(json); });
      obs::Observation observation;
      sim::RunOptions options;
      options.observe = &observation;
      rec.time("sim.run_workflow.wide", [&] {
        return sim::run_workflow_detailed(graph, machine, options);
      });
      if (const obs::Counter* events =
              observation.registry.find_counter("engine.events_processed"))
        out.engine_events += events->value();
    });
  }
}

double run_pass(const Options& o, Recorder& rec, StageResults& out) {
  const Clock::time_point begin = Clock::now();
  sweep_stage(o, rec, out);
  serve_stage(o, rec, out);
  check_stage(o, rec);
  wide_stage(o, rec, out);
  rec.end_stage();
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

void write_trace(const Recorder& rec, const std::string& path) {
  util::JsonArray events;
  events.push_back(obs::trace_metadata_event(1, 0, "process_name",
                                             "perfbench traced run"));
  for (const Span& s : rec.spans()) {
    util::JsonObject args;
    args.set("id", util::Json(static_cast<double>(s.id)));
    args.set("parent", util::Json(static_cast<double>(s.parent)));
    args.set("stage", s.stage);
    if (s.op >= 0) args.set("op", util::Json(static_cast<double>(s.op)));
    events.push_back(obs::trace_complete_event(1, 1, s.name, s.stage,
                                               s.begin_s, s.seconds,
                                               std::move(args)));
  }
  obs::sort_trace_events(events);
  util::write_file(path,
                   obs::trace_events_envelope(std::move(events)).dump() + "\n");
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--dir") o.dir = value;
    else if (flag == "--check-base-seed")
      o.check_base_seed = std::stoull(value);
    else if (flag == "--check-seeds") o.check_seeds = std::stoul(value);
    else if (flag == "--jobs") o.jobs = std::stoi(value);
    else if (flag == "--trace-out") o.trace_out = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (o.dir.empty() || o.trace_out.empty() || o.jobs < 1 ||
      o.check_seeds == 0)
    throw std::runtime_error(
        "usage: perfbench_layers --dir INPUTS --check-base-seed N "
        "--check-seeds S --jobs J --trace-out FILE");
  return o;
}

int run(const Options& o) {
  // The first pass only warms the process (page cache, allocator, code).
  // Traced and untraced passes then alternate, so both see the same share
  // of the machine's slow spells; the faster pass of each kind counts.
  StageResults results, scratch;
  {
    Recorder warm(false);
    run_pass(o, warm, scratch);
  }
  Recorder traced(true);
  double traced_wall = run_pass(o, traced, results);
  double untraced_wall = 0.0;
  for (int pass = 0; pass < kOverheadPasses; ++pass) {
    Recorder untraced(false);
    const double u = run_pass(o, untraced, scratch);
    untraced_wall = pass == 0 ? u : std::min(untraced_wall, u);
    if (pass + 1 < kOverheadPasses) {
      Recorder again(true);
      traced_wall = std::min(traced_wall, run_pass(o, again, scratch));
    }
  }
  write_trace(traced, o.trace_out);

  util::JsonObject metrics;
  for (const char* layer : kLayers) {
    const std::vector<double>& d = traced.durations(layer);
    double busy = 0.0;
    for (double s : d) busy += s;
    const std::string name = layer;
    metrics.set(name + ".calls", util::Json(d.size()));
    metrics.set(name + ".busy_s", util::Json(busy));
    metrics.set(name + ".p50_us",
                util::Json(d.empty() ? 0.0 : median(d) * 1e6));
  }
  double wide_busy = 0.0;
  for (double s : traced.durations("sim.run_workflow.wide")) wide_busy += s;
  metrics.set("exec.stream_lines.points_per_s_1job",
              util::Json(results.stream_1job_pps));
  metrics.set("exec.stream_lines.points_per_s_jobs",
              util::Json(results.stream_jobs_pps));
  metrics.set("exec.stream_lines.scaling",
              util::Json(results.stream_jobs_pps / results.stream_1job_pps));
  const exec::SweepStats& cc = results.campaign_cache;
  metrics.set("exec.cache.sweep_campaign.hits", util::Json(
      static_cast<double>(cc.cache_hits)));
  metrics.set("exec.cache.sweep_campaign.misses", util::Json(
      static_cast<double>(cc.cache_misses)));
  metrics.set("exec.cache.sweep_campaign.hit_ratio", util::Json(
      static_cast<double>(cc.cache_hits) /
      static_cast<double>(std::max<std::uint64_t>(1, cc.scenarios))));
  metrics.set("exec.cache.serve_mixed.hits",
              util::Json(results.serve_cache_hits));
  metrics.set("exec.cache.serve_mixed.misses",
              util::Json(results.serve_cache_misses));
  metrics.set("exec.cache.serve_mixed.hit_ratio",
              util::Json(results.serve_cache_hits /
                         std::max(1.0, results.serve_cache_hits +
                                           results.serve_cache_misses)));
  metrics.set("sim.engine.events", util::Json(results.engine_events));
  metrics.set("sim.engine.events_per_s",
              util::Json(results.engine_events / wide_busy));
  metrics.set("trace.wall_s", util::Json(traced_wall));
  metrics.set("trace.untraced_wall_s", util::Json(untraced_wall));
  metrics.set("trace.overhead", util::Json(traced_wall / untraced_wall - 1.0));
  std::printf("%s\n", util::Json(std::move(metrics)).dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
    return 1;
  }
}
