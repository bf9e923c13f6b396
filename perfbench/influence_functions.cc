// influence-functions: for the 9 Table IV (dataset, model) vanilla models,
// trained during set-up, the FR influences (Bias + Utility block solve), the
// Table II influences (Bias + Risk block solve) and the FR QCLP. The
// functions read every node, so this stresses the influence and autograd
// layers where a support-local path has nothing to exploit. The solves run a
// fixed number of iterations (kFrCgIterations).

#include <cmath>

#include "bench.h"
#include "core/methods.h"
#include "data/datasets.h"
#include "influence/influence.h"
#include "common/recoverable.h"
#include "influence/param_vector.h"
#include "la/stats.h"
#include "solver/qclp.h"

namespace ppfr::perfbench {
namespace {

struct TrainedModel {
  std::shared_ptr<const core::ExperimentEnv> env;
  nn::ModelKind kind = nn::ModelKind::kGcn;
  core::MethodConfig config;
  influence::InfluenceConfig influence;  // config.fr.influence, fixed work
  std::unique_ptr<nn::GnnModel> model;
  core::EvalResult eval;
};

class InfluenceFunctions final : public Workload {
 public:
  explicit InfluenceFunctions(const WorkloadOptions& options) : options_(options) {}

  double NominalUnitSeconds() const override { return 8.0; }

  void Setup(Tracer* tracer) override {
    models_.clear();
    for (data::DatasetId id : data::StrongHomophilyDatasets()) {
      std::shared_ptr<const core::ExperimentEnv> env;
      {
        ScopedSpan span(tracer, "core.env");
        env = std::make_shared<const core::ExperimentEnv>(core::MakeEnv(id, options_.seed));
      }
      for (nn::ModelKind kind :
           {nn::ModelKind::kGcn, nn::ModelKind::kGat, nn::ModelKind::kGraphSage}) {
        TrainedModel m;
        m.env = env;
        m.kind = kind;
        m.config = core::DefaultMethodConfig(id, kind);
        m.config.train.epochs = kTrainEpochs;
        m.config.seed = options_.seed;
        m.influence = FixedWorkSolves(m.config.fr.influence, kFrCgIterations);
        {
          ScopedSpan span(tracer, "core.vanilla");
          m.model = core::TrainFresh(kind, *env, env->ctx, m.config, /*lambda=*/0.0);
        }
        {
          ScopedSpan span(tracer, "core.eval");
          m.eval = core::EvaluateModel(m.model.get(), env->Eval());
        }
        models_.push_back(std::move(m));
      }
    }
  }

  void RunUnit(Tracer* tracer, Report* report) override {
    stats_.Reset();
    qclp_iterations_ = 0;
    double accuracy = 0.0, bias = 0.0, risk = 0.0;
    for (TrainedModel& m : models_) {
      const std::string tag = KindTag(m.kind);
      const std::string what =
          data::DatasetName(m.env->id) + "/" + nn::ModelKindName(m.kind);
      const core::ExperimentEnv& env = *m.env;
      accuracy += m.eval.accuracy;
      bias += m.eval.bias;
      risk += m.eval.risk_auc;

      // FR: core::ComputeFairnessWeights, one layer call at a time.
      std::vector<double> bias_influence, util_influence;
      {
        influence::ReplayCache replay_cache;
        influence::InfluenceConfig config = m.influence;
        config.replay_cache = &replay_cache;
        influence::InfluenceCalculator calc(m.model.get(), env.ctx, env.train_nodes(),
                                            env.labels(), config);
        const bool ok = Solve(&calc, tag, tracer,
                              {influence::InfluenceCalculator::BiasFunction(
                                   env.similarity.laplacian),
                               calc.UtilityFunction()},
                              &bias_influence, &util_influence);
        report->CountUnit(ok, what + ": FR bias+utility solve");
        if (!ok) continue;
      }
      solver::QclpProblem problem;
      problem.objective = bias_influence;
      problem.ball_radius_sq =
          m.config.fr.alpha * static_cast<double>(env.train_nodes().size());
      problem.halfspace_u = util_influence;
      double positive_util = 0.0;
      for (double u : util_influence) {
        if (u > 0.0) positive_util += u;
      }
      problem.halfspace_offset = m.config.fr.beta * positive_util;
      problem.zero_sum = m.config.fr.zero_sum;
      solver::QclpResult solution;
      {
        ScopedSpan span(tracer, "solver.qclp");
        solution = solver::SolveQclp(problem);
      }
      qclp_iterations_ += solution.iterations;
      report->CountUnit(AllFinite(solution.w) && std::isfinite(solution.objective_value) &&
                            solution.w.size() == bias_influence.size(),
                        what + ": FR QCLP");
      report->Check(solver::IsFeasible(problem, solution.w, 1e-3),
                    what + ": QCLP solution infeasible");

      // Table II: Bias and Risk influences through a fresh calculator.
      std::vector<double> t2_bias, t2_risk;
      influence::InfluenceCalculator calc(m.model.get(), env.ctx, env.train_nodes(),
                                          env.labels(), m.influence);
      const bool ok = Solve(
          &calc, tag, tracer,
          {influence::InfluenceCalculator::BiasFunction(env.similarity.laplacian),
           influence::InfluenceCalculator::RiskFunction(env.attack_pairs)},
          &t2_bias, &t2_risk);
      report->CountUnit(ok, what + ": Table II bias+risk solve");
      if (ok) {
        report->Check(std::isfinite(la::PearsonCorrelation(t2_bias, t2_risk)),
                      what + ": non-finite Table II correlation");
      }
    }
    const double n = static_cast<double>(models_.size());
    report->metrics["accuracy"] = accuracy / n;
    report->metrics["fairness.bias"] = bias / n;
    report->metrics["privacy.risk_auc"] = risk / n;
  }

  void Probe(Tracer* tracer, Report* report) override {
    auto& m = report->metrics;
    m["core.env_s"] = tracer->TotalSeconds("core.env");
    m["core.vanilla_s"] = tracer->TotalSeconds("core.vanilla");
    m["core.eval_ms"] = 1e3 * tracer->TotalSeconds("core.eval") /
                        static_cast<double>(models_.size());
    m["influence.per_node_grads_s"] = tracer->TotalSeconds("influence.per_node_grads");
    for (nn::ModelKind kind :
         {nn::ModelKind::kGcn, nn::ModelKind::kGat, nn::ModelKind::kGraphSage}) {
      m["influence.solve_s." + KindTag(kind)] =
          tracer->TotalSeconds("influence.solve." + KindTag(kind));
    }
    m["influence.grad_evals"] = stats_.grad_evals;
    m["influence.block_iterations"] = stats_.block_iterations;
    m["influence.algebra_s"] = stats_.algebra_seconds;
    // Bias reads every node's prediction, so the union support is the graph.
    m["influence.support_frac"] = 1.0;
    m["solver.qclp_s"] = tracer->TotalSeconds("solver.qclp");
    m["solver.qclp_iterations"] = qclp_iterations_;

    // One BatchTrainGrad() call on 2·cg_block points (one block iteration's
    // probe gradients) per PubmedLike model.
    const core::ExperimentEnv* pubmed = nullptr;
    for (TrainedModel& tm : models_) {
      if (tm.env->id != data::DatasetId::kPubmedLike) continue;
      pubmed = tm.env.get();
      influence::InfluenceCalculator calc(tm.model.get(), pubmed->ctx,
                                          pubmed->train_nodes(), pubmed->labels(),
                                          tm.influence);
      const std::vector<double> theta = influence::FlattenValues(tm.model->Params());
      std::vector<std::vector<double>> points(2 * calc.ResolvedCgBlock(), theta);
      for (size_t p = 0; p < points.size(); ++p) {
        points[p][p % theta.size()] += 1e-4 * static_cast<double>(p + 1);
      }
      const influence::BatchGradFn batch_grad = calc.BatchTrainGrad();
      batch_grad(points);
      std::vector<double> ms;
      ScopedSpan span(tracer, "influence.probe_grad." + KindTag(tm.kind));
      for (int r = 0; r < 5; ++r) {
        const double start = NowSeconds();
        batch_grad(points);
        ms.push_back(1e3 * (NowSeconds() - start));
      }
      m["influence.probe_grad_ms." + KindTag(tm.kind)] = Median(ms);
    }
    if (pubmed == nullptr) return;
    const nn::GraphContext& ctx = pubmed->ctx;
    for (TrainedModel& tm : models_) {
      if (tm.env.get() != pubmed || tm.kind != nn::ModelKind::kGcn) continue;
      ProbeGemm(ctx.num_nodes(), ctx.feature_dim(),
                tm.model->Params().front()->value.cols(), tracer, report);
    }
    m["la.spmm_ms"] = ProbeSpmmMs(ctx, tracer);
    ProbeModelKinds(ctx, pubmed->train_nodes(), pubmed->labels(),
                    pubmed->dataset.data.num_classes, options_.seed, tracer, report);
  }

 private:
  // Per-node gradients, then one block solve of both functions; false when
  // the solve throws or returns a non-finite row.
  bool Solve(influence::InfluenceCalculator* calc, const std::string& tag,
             Tracer* tracer, const std::vector<influence::FunctionBuilder>& functions,
             std::vector<double>* first, std::vector<double>* second) {
    try {
      {
        ScopedSpan span(tracer, "influence.per_node_grads");
        calc->PerNodeLossGrads();
      }
      std::vector<std::vector<double>> rows;
      {
        ScopedSpan span(tracer, "influence.solve." + tag);
        rows = calc->InfluenceOnFunctions(functions);
      }
      const influence::BlockSolveStats& s = calc->block_stats();
      stats_.block_iterations += s.block_iterations;
      stats_.grad_evals += s.grad_evals;
      stats_.algebra_seconds += s.algebra_seconds;
      const size_t n = static_cast<size_t>(calc->num_train_nodes());
      if (rows.size() != 2 || rows[0].size() != n || rows[1].size() != n ||
          !AllFinite(rows[0]) || !AllFinite(rows[1])) {
        return false;
      }
      *first = std::move(rows[0]);
      *second = std::move(rows[1]);
      return true;
    } catch (const RecoverableError&) {
      return false;
    }
  }

  WorkloadOptions options_;
  std::vector<TrainedModel> models_;
  influence::BlockSolveStats stats_;
  int64_t qclp_iterations_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeInfluenceFunctions(const WorkloadOptions& options) {
  return std::make_unique<InfluenceFunctions>(options);
}

}  // namespace ppfr::perfbench
