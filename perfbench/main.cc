// The repo benchmark's measuring process: one workload, one seed, one run.
//
//   perfbench --workload=paper-table4 --seed=1 --seconds=36 --trace=0
//       --out=result.json [--trace_out=spans.json]
//       [--la_backend=parallel] [--la_threads=4]
//
// Untraced (--trace=0): set-up runs 3 to 60 times (setup_s is the median), then
// max(1, floor(--seconds / the workload's nominal unit length)) units of work
// run (wall_s is the median). Traced (--trace=1): a traced set-up, an untraced,
// a traced and an untraced unit, and the layer probes; the spans go to
// --trace_out.
//
// Writes one JSON object to --out and stdout: the host fingerprint,
// workload, seed, units, attempted, failed, checks (every output check that
// did not hold) and metrics. Exits 1 when any check failed, 2 on a usage
// error. perfbench/run.py drives it; see README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/flags.h"
#include "common/json_writer.h"
#include "la/backend.h"
#include "la/matrix.h"
#include "la/simd_kernels.h"
#include "nn/trainer.h"

namespace ppfr::perfbench {
namespace {

// Set-up repeats at least kMinSetupReps times and until it has taken
// kSetupSeconds, at most kMaxSetupReps times; setup_s is the median. A set-up
// of tens of ms (paper-table4) gets about 2 s of repeats, so a burst of host
// load over a few of them does not move the median.
constexpr size_t kMinSetupReps = 3;
constexpr size_t kMaxSetupReps = 60;
constexpr double kSetupSeconds = 2.0;

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void WriteHost(JsonWriter* out) {
  JsonWriter& json = *out;
  json.Key("host").BeginObject();
  json.Key("cores").Int(std::thread::hardware_concurrency());
  json.Key("cpu_model").String(CpuModel());
  json.Key("avx2_fma").Bool(la::simd::CpuSupportsAvx2Fma());
  json.Key("avx512").Bool(la::simd::CpuSupportsAvx512());
  json.Key("backend").String(la::ActiveBackend().name());
  json.Key("la_threads").Int(la::ActiveBackend().num_threads());
  json.Key("simd_active").Bool(la::ActiveBackend().simd_active());
  json.Key("runner_threads").Int(1);
  json.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  json.EndObject();
}

double PeakRssMb() {
  return static_cast<double>(la::ProcessPeakRssBytes()) / (1 << 20);
}

int RunUntraced(Workload* workload, double seconds, Report* report) {
  std::vector<double> setup, wall;
  double setup_total = 0.0, peak_rss_mb = 0.0;
  while (setup.size() < kMinSetupReps ||
         (setup_total < kSetupSeconds && setup.size() < kMaxSetupReps)) {
    const double start = NowSeconds();
    workload->Setup(nullptr);
    setup.push_back(NowSeconds() - start);
    setup_total += setup.back();
  }
  const int units = std::max(
      1, static_cast<int>(std::floor(seconds / workload->NominalUnitSeconds())));
  for (int unit = 0; unit < units; ++unit) {
    if (unit > 0 && workload->SetupPerUnit()) {
      const double start = NowSeconds();
      workload->Setup(nullptr);
      setup.push_back(NowSeconds() - start);
    }
    const double start = NowSeconds();
    workload->RunUnit(nullptr, report);
    wall.push_back(NowSeconds() - start);
    std::fprintf(stderr, "unit %d: %.3f s\n", unit, wall.back());
    // The peak of a process that sets up and runs one unit, as a user's run
    // does: over repeated paper-table4 grids the resident set keeps growing,
    // by 27 to 64 MB over three grids depending on the seed.
    if (unit == 0) peak_rss_mb = PeakRssMb();
  }
  report->metrics["setup_s"] = Median(setup);
  report->metrics["wall_s"] = Median(wall);
  report->metrics["peak_rss_mb"] = peak_rss_mb;
  return units;
}

void RunTraced(Workload* workload, Tracer* tracer, Report* report) {
  const int64_t train0 = nn::TrainInvocationCount();
  {
    ScopedSpan root(tracer, "bench.setup");
    workload->Setup(tracer);
  }
  const int64_t setup_trains = nn::TrainInvocationCount() - train0;

  // The traced unit sits between two untraced ones through the same code
  // path; their mean is the untraced time the overhead is taken against, so
  // drift and the first unit's coldness do not land on the tracer. The
  // second runs after the probes, which read the traced unit's state.
  const auto untraced_unit = [&] {
    const double start = NowSeconds();
    workload->RunUnit(nullptr, report);
    return NowSeconds() - start;
  };
  const double untraced_before = untraced_unit();
  if (workload->SetupPerUnit()) workload->Setup(nullptr);

  const int64_t allocs0 = la::MatrixAllocCount();
  const int64_t train1 = nn::TrainInvocationCount();
  la::ResetArenaPeakBytes();
  {
    ScopedSpan root(tracer, "bench.unit");
    workload->RunUnit(tracer, report);
  }
  auto& m = report->metrics;
  m["la.matrix_allocs"] = static_cast<double>(la::MatrixAllocCount() - allocs0);
  m["la.arena_peak_mb"] = static_cast<double>(la::ArenaPeakBytes()) / (1 << 20);
  m["nn.train_calls"] =
      static_cast<double>(setup_trains + nn::TrainInvocationCount() - train1);

  const double traced_wall = tracer->RootSeconds("bench.unit");
  for (const auto& [layer, self] : tracer->LayerSelfSeconds("bench.unit")) {
    m["trace.self_s." + layer] = self;
  }
  m["trace.top_level_frac"] = tracer->RootChildSeconds("bench.unit") / traced_wall;
  m["trace.unaccounted_s"] = traced_wall - tracer->RootChildSeconds("bench.unit");
  {
    ScopedSpan root(tracer, "bench.probe");
    workload->Probe(tracer, report);
  }
  if (workload->SetupPerUnit()) workload->Setup(nullptr);
  m["trace.overhead_s"] = traced_wall - 0.5 * (untraced_before + untraced_unit());
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::vector<std::string> known = {"workload",   "seed",      "seconds",
                                          "trace",      "trace_out", "out",
                                          "la_backend", "la_threads"};
  for (const std::string& name : flags.UnknownFlags(known)) {
    std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    return 2;
  }
  la::ConfigureBackendFromFlags(flags);

  WorkloadOptions options;
  options.seed = flags.GetUint64("seed", 1);
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string name = flags.GetString("workload", "");
  std::unique_ptr<Workload> workload;
  if (name == "paper-table4") {
    workload = MakePaperTable4(options);
  } else if (name == "influence-functions") {
    workload = MakeInfluenceFunctions(options);
  } else if (name == "scale-1e5") {
    workload = MakeScale1e5(options);
  } else {
    std::fprintf(stderr,
                 "--workload must be paper-table4, influence-functions or "
                 "scale-1e5 (got '%s')\n",
                 name.c_str());
    return 2;
  }
  if (seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out=<result file> is required\n");
    return 2;
  }

  Report report;
  Tracer tracer(trace);
  int units = 1;
  if (trace) {
    RunTraced(workload.get(), &tracer, &report);
    const std::string trace_out = flags.GetString("trace_out", "");
    if (!trace_out.empty()) WriteFileOrDie(trace_out, tracer.ToJson());
  } else {
    units = RunUntraced(workload.get(), seconds, &report);
  }
  for (const auto& [metric, value] : report.metrics) {
    report.Check(std::isfinite(value), "metric " + metric + " is not finite");
  }

  JsonWriter json;
  json.BeginObject();
  WriteHost(&json);
  json.Key("workload").String(name);
  json.Key("seed").Uint(options.seed);
  json.Key("units").Int(units);
  json.Key("attempted").Int(report.attempted);
  json.Key("failed").Int(report.failed);
  json.Key("checks").BeginArray();
  for (const std::string& check : report.check_failures) json.String(check);
  json.EndArray();
  json.Key("metrics").BeginObject();
  for (const auto& [metric, value] : report.metrics) json.Key(metric).Number(value);
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.ToString().c_str());
  WriteFileOrDie(out, json.ToString());
  return report.check_failures.empty() ? 0 : 1;
}

}  // namespace ppfr::perfbench

int main(int argc, char** argv) { return ppfr::perfbench::Main(argc, argv); }
