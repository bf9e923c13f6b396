#ifndef PPFR_PERFBENCH_BENCH_H_
#define PPFR_PERFBENCH_BENCH_H_

// Shared scaffolding of the repo benchmark (see README.md in this directory):
// the span recorder behind the traced run, the per-run report, and the
// workload interface main.cc loops over.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "influence/influence.h"
#include "nn/graph_context.h"
#include "nn/models.h"

namespace ppfr::perfbench {

// Seconds on the monotonic clock since the first call in the process.
double NowSeconds();

// Median of a non-empty sample (mean of the middle two for even sizes).
double Median(std::vector<double> values);

// In-memory spans: name, start, end and the enclosing span, recorded around
// the calls this benchmark makes into each layer and written out at exit.
// A span name is "<layer>.<what>[.<detail>]"; the layer is the src/ module
// the call enters ("core", "influence", ...), or "bench" for the roots.
// A disabled tracer records nothing, so untraced runs pay one branch per call.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  // index into spans(), -1 for a root
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int Begin(const std::string& name);
  void End(int id);

  // Sum over spans called `name` of their duration minus the time their
  // direct children cover.
  double SelfSeconds(const std::string& name) const;
  // Sum of the durations of spans called `name`.
  double TotalSeconds(const std::string& name) const;
  // Self time per layer over the spans below the last root span called
  // `root`.
  std::map<std::string, double> LayerSelfSeconds(const std::string& root) const;
  // Duration of the last root span called `root` and the part of it its
  // direct children cover.
  double RootSeconds(const std::string& root) const;
  double RootChildSeconds(const std::string& root) const;

  std::string ToJson() const;

 private:
  int LastRoot(const std::string& root) const;
  double ChildSeconds(int id) const;

  bool enabled_;
  std::vector<Span> spans_;
  int open_ = -1;
};

// Scoped span; a no-op when the tracer is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// What one benchmark process reports: metrics by name, the counted units of
// work and which of them failed, and every output check that did not hold.
struct Report {
  std::map<std::string, double> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;

  // Counts one attempted unit (a cell, a solve, a stage); a failed unit is
  // also recorded as a failed check naming it.
  void CountUnit(bool ok, const std::string& what);
  // Records a failed output check; ok == true records nothing.
  void Check(bool ok, const std::string& what);
};

// Every inverse-HVP solve the workloads issue runs a fixed number of block
// iterations (tolerance 0), short of where the residuals reach round-off and
// the block solver's breakdown fallback takes over. Solved to tolerance, the
// iteration count, and with it a unit's time, varies by about 2x from seed to
// seed, which would drown the bounds; fixed, every seed does the same solver
// work and a solver change shows as fewer or cheaper gradient evaluations
// per iteration. kFrCgIterations serves the FR and Table II solves (damping
// 0.01, far from converged after 10).
inline constexpr int kFrCgIterations = 10;
influence::InfluenceConfig FixedWorkSolves(influence::InfluenceConfig config,
                                           int iterations);

// Training epochs of the Table IV cells (paper-table4) and of the vanilla
// models (influence-functions). At 40 one grid takes about 16 s, so a run
// times two grids; at the paper's 150 not even one would fit the run
// length. Training is still about 70% of a grid.
inline constexpr int kTrainEpochs = 40;

struct WorkloadOptions {
  uint64_t seed = 1;
};

// One workload: inputs built by Setup (timed as setup_s), then units of work
// repeated for the run's duration (each timed into wall_s).
class Workload {
 public:
  virtual ~Workload() = default;
  // Rough length of one unit on a 4-core host. A run of S seconds does
  // max(1, floor(S / NominalUnitSeconds())) units: a count fixed by S rather
  // than by how fast the units happen to go, so runs that differ only in
  // speed compare the same medians (the first unit of a process is colder).
  virtual double NominalUnitSeconds() const = 0;
  // Builds the inputs, replacing any previous ones.
  virtual void Setup(Tracer* tracer) = 0;
  // True when a unit consumes its inputs, so Setup runs again before the next.
  virtual bool SetupPerUnit() const { return false; }
  // One timed unit. Records the workload's quality metrics, counted units
  // and output checks into `report`.
  virtual void RunUnit(Tracer* tracer, Report* report) = 0;
  // Traced run only: per-layer metrics, from the spans of the traced setup
  // and unit plus probes timed here.
  virtual void Probe(Tracer* tracer, Report* report) = 0;
};

std::unique_ptr<Workload> MakePaperTable4(const WorkloadOptions& options);
std::unique_ptr<Workload> MakeInfluenceFunctions(const WorkloadOptions& options);
std::unique_ptr<Workload> MakeScale1e5(const WorkloadOptions& options);

// ---- Layer probes shared by the workloads (probes.cc) ----

// GFLOP/s of the feature-transform GEMM (features · W) at the given shape,
// on backends of the active kind with one thread per core and with one
// thread: the pool's scaling, whatever thread count the run is pinned to.
void ProbeGemm(int rows, int inner, int cols, Tracer* tracer, Report* report);
// Milliseconds of one SpMM of the context's GCN operator with its features.
double ProbeSpmmMs(const nn::GraphContext& ctx, Tracer* tracer);
// autograd.{record,replay,backward}_ms.<kind> and nn.train_epoch_ms.<kind>
// for a fresh model of every kind on `ctx`.
void ProbeModelKinds(const nn::GraphContext& ctx, const std::vector<int>& train_nodes,
                     const std::vector<int>& labels, int num_classes, uint64_t seed,
                     Tracer* tracer, Report* report);

// Short lower-case name of a model kind, used in metric names.
std::string KindTag(nn::ModelKind kind);

// True when every value is finite.
bool AllFinite(const std::vector<double>& values);

}  // namespace ppfr::perfbench

#endif  // PPFR_PERFBENCH_BENCH_H_
