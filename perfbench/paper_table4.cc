// paper-table4: the Table IV grid (3 datasets x 3 models x 5 methods, one
// seed) through runner::RunSweep with the in-memory stage cache — the sweep
// paper users run. Training dominates it; FR (the influence solve plus the
// QCLP) is the next largest stage, its solves at a fixed iteration count.

#include <cmath>

#include "bench.h"
#include "core/methods.h"
#include "data/datasets.h"
#include "fairness/bias_metric.h"
#include "la/matrix.h"
#include "privacy/attack/link_stealing.h"
#include "privacy/defense/heterophilic_perturbation.h"
#include "privacy/defense/lap_graph.h"
#include "runner/runner.h"

namespace ppfr::perfbench {
namespace {

// The runner's stage cache with a span around every stage getter RunSweep
// and RunMethod call, so the traced run sees vanilla training, the DP/PP contexts and the
// FR solve separately. Every call delegates; the FR stage's inverse-HVP
// solves run the fixed iteration count (FixedWorkSolves).
class TimedRunCache : public runner::RunCache {
 public:
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  std::unique_ptr<nn::GnnModel> VanillaModel(nn::ModelKind kind,
                                             const core::ExperimentEnv& env,
                                             const core::MethodConfig& config) override {
    ScopedSpan span(tracer_, "core.vanilla");
    return RunCache::VanillaModel(kind, env, config);
  }
  core::EvalResult VanillaEval(nn::ModelKind kind, const core::ExperimentEnv& env,
                               const core::MethodConfig& config) override {
    ScopedSpan span(tracer_, "core.vanilla");
    return RunCache::VanillaEval(kind, env, config);
  }
  std::shared_ptr<const nn::GraphContext> DpContext(
      const core::ExperimentEnv& env, const core::MethodConfig& config) override {
    ScopedSpan span(tracer_, "core.dp_context");
    return RunCache::DpContext(env, config);
  }
  std::shared_ptr<const nn::GraphContext> PpContext(
      nn::ModelKind kind, const core::ExperimentEnv& env,
      const core::MethodConfig& config) override {
    ScopedSpan span(tracer_, "core.pp_context");
    return RunCache::PpContext(kind, env, config);
  }
  std::shared_ptr<const core::FrOutput> FrWeights(
      nn::ModelKind kind, const core::ExperimentEnv& env,
      const core::MethodConfig& config) override {
    ScopedSpan span(tracer_, "core.fr");
    core::MethodConfig fixed = config;
    fixed.fr.influence = FixedWorkSolves(config.fr.influence, kFrCgIterations);
    return RunCache::FrWeights(kind, env, fixed);
  }

 private:
  Tracer* tracer_ = nullptr;
};

class PaperTable4 final : public Workload {
 public:
  explicit PaperTable4(const WorkloadOptions& options) : options_(options) {
    sweep_ = *runner::RegistrySweep("table4");
    for (runner::Scenario& cell : sweep_.cells) {
      cell.overrides.epochs = kTrainEpochs;
      cell.overrides.seed = options.seed;
    }
  }

  double NominalUnitSeconds() const override { return 16.0; }

  // The envs of the three datasets, in a fresh cache (each unit trains
  // every stage again). The previous unit's models are released first.
  void Setup(Tracer* tracer) override {
    result_ = {};
    cache_.reset();
    cache_ = std::make_unique<TimedRunCache>();
    for (data::DatasetId id : data::StrongHomophilyDatasets()) {
      ScopedSpan span(tracer, "core.env");
      cache_->Env(id, options_.seed);
    }
  }
  bool SetupPerUnit() const override { return true; }

  void RunUnit(Tracer* tracer, Report* report) override {
    runner::RunnerOptions runner_options;
    runner_options.threads = 1;
    runner_options.env_seed = options_.seed;
    runner_options.verbose = false;
    // Traced, the cache's stage getters record their spans; the sweep's own
    // span keeps the rest, which is RunMethod training and evaluating the
    // method models (core.method_rest_s).
    cache_->set_tracer(tracer);
    {
      ScopedSpan span(tracer, "core.run_sweep");
      result_ = runner::RunSweep(sweep_, cache_.get(), runner_options);
    }
    cache_->set_tracer(nullptr);

    double accuracy = 0.0, bias = 0.0, risk = 0.0;
    int ppfr_cells = 0;
    for (const runner::CellResult& cell : result_.cells) {
      const std::string what = "cell " + data::DatasetName(cell.scenario.dataset) +
                               "/" + nn::ModelKindName(cell.scenario.model) + "/" +
                               cell.scenario.DisplayLabel();
      report->CountUnit(!cell.failed, what);
      if (cell.failed) continue;
      const core::EvalResult& eval = cell.run->eval;
      report->Check(eval.accuracy > 0.0 && eval.accuracy <= 1.0,
                    what + ": accuracy outside (0, 1]");
      report->Check(std::isfinite(eval.bias) && eval.bias >= 0.0,
                    what + ": bias not finite and >= 0");
      report->Check(eval.risk_auc >= 0.0 && eval.risk_auc <= 1.0,
                    what + ": risk AUC outside [0, 1]");
      report->Check(AllFinite(cell.run->fr_weights),
                    what + ": non-finite FR weights");
      if (cell.scenario.method != core::MethodKind::kPpFr) continue;
      accuracy += eval.accuracy;
      bias += eval.bias;
      risk += eval.risk_auc;
      ++ppfr_cells;
    }
    report->Check(ppfr_cells == 9, "expected 9 finished PPFR cells");
    if (ppfr_cells > 0) {
      report->metrics["accuracy"] = accuracy / ppfr_cells;
      report->metrics["fairness.bias"] = bias / ppfr_cells;
      report->metrics["privacy.risk_auc"] = risk / ppfr_cells;
    }
  }

  void Probe(Tracer* tracer, Report* report) override {
    auto& m = report->metrics;
    m["core.env_s"] = tracer->TotalSeconds("core.env");
    m["core.vanilla_s"] = tracer->SelfSeconds("core.vanilla");
    m["core.fr_s"] = tracer->SelfSeconds("core.fr");
    m["core.dp_context_s"] = tracer->SelfSeconds("core.dp_context");
    m["core.pp_context_s"] = tracer->SelfSeconds("core.pp_context");
    m["core.method_rest_s"] = tracer->SelfSeconds("core.run_sweep");

    const runner::RunCache::Stats stats = cache_->stats();
    int64_t hits = 0, attempts = 0;
    for (const runner::RunCache::StageStats& s :
         {stats.env, stats.vanilla, stats.dp_context, stats.pp_context, stats.fr,
          stats.cell}) {
      hits += s.hits;
      attempts += s.hits + s.misses;
    }
    m["runner.cache_hit_frac"] =
        attempts > 0 ? static_cast<double>(hits) / static_cast<double>(attempts) : 0.0;

    // Evaluation, attack and perturbation calls on the PPFR models, timed
    // outside the grid (RunMethod makes them internally).
    std::vector<double> eval_ms;
    const nn::GraphContext* pubmed_ctx = nullptr;
    std::shared_ptr<const core::ExperimentEnv> pubmed;
    nn::GnnModel* pubmed_model = nullptr;
    for (const runner::CellResult& cell : result_.cells) {
      if (cell.failed || cell.scenario.method != core::MethodKind::kPpFr) continue;
      const auto env = cache_->Env(cell.scenario.dataset, options_.seed);
      const double start = NowSeconds();
      {
        ScopedSpan span(tracer, "core.eval");
        core::EvaluateModel(cell.run->model.get(), env->Eval());
      }
      eval_ms.push_back(1e3 * (NowSeconds() - start));
      if (cell.scenario.dataset == data::DatasetId::kPubmedLike &&
          cell.scenario.model == nn::ModelKind::kGcn) {
        pubmed = env;
        pubmed_ctx = &env->ctx;
        pubmed_model = cell.run->model.get();
      }
    }
    if (!eval_ms.empty()) m["core.eval_ms"] = Median(eval_ms);
    if (pubmed_model == nullptr) return;

    const la::Matrix probs = pubmed_model->PredictProbs(*pubmed_ctx);
    const core::MethodConfig config =
        core::DefaultMethodConfig(data::DatasetId::kPubmedLike, nn::ModelKind::kGcn);
    std::vector<double> attack, bias, dp, pp;
    for (int r = 0; r < 5; ++r) {
      double start = NowSeconds();
      {
        ScopedSpan span(tracer, "privacy.attack");
        privacy::LinkStealingAttack(probs, pubmed->attack_pairs);
      }
      attack.push_back(1e3 * (NowSeconds() - start));
      start = NowSeconds();
      {
        ScopedSpan span(tracer, "fairness.bias");
        fairness::Bias(probs, *pubmed->similarity.laplacian);
      }
      bias.push_back(1e3 * (NowSeconds() - start));
      start = NowSeconds();
      {
        // PubmedLike's DP mechanism is LapGraph (core::MakeDpContext).
        ScopedSpan span(tracer, "privacy.dp_perturb");
        privacy::LapGraph(pubmed->dataset.data.graph, config.dp_epsilon,
                          options_.seed ^ 0xd9ULL);
      }
      dp.push_back(1e3 * (NowSeconds() - start));
      start = NowSeconds();
      {
        ScopedSpan span(tracer, "privacy.pp_perturb");
        privacy::AddHeterophilicEdges(pubmed->dataset.data.graph, la::ArgmaxRows(probs),
                                      config.pp_gamma, options_.seed ^ 0x99ULL);
      }
      pp.push_back(1e3 * (NowSeconds() - start));
    }
    m["privacy.attack_ms"] = Median(attack);
    m["fairness.bias_ms"] = Median(bias);
    m["privacy.dp_perturb_ms"] = Median(dp);
    m["privacy.pp_perturb_ms"] = Median(pp);

    const nn::GraphContext& ctx = *pubmed_ctx;
    const std::vector<ag::Parameter*> params = pubmed_model->Params();
    ProbeGemm(ctx.num_nodes(), ctx.feature_dim(), params.front()->value.cols(), tracer,
              report);
    m["la.spmm_ms"] = ProbeSpmmMs(ctx, tracer);
    ProbeModelKinds(ctx, pubmed->train_nodes(), pubmed->labels(),
                    pubmed->dataset.data.num_classes, options_.seed, tracer, report);
  }

 private:
  WorkloadOptions options_;
  runner::Sweep sweep_;
  std::unique_ptr<TimedRunCache> cache_;
  runner::SweepResult result_;
};

}  // namespace

std::unique_ptr<Workload> MakePaperTable4(const WorkloadOptions& options) {
  return std::make_unique<PaperTable4>(options);
}

}  // namespace ppfr::perfbench
