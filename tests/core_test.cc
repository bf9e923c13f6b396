#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/experiment.h"
#include "core/fr.h"
#include "core/methods.h"
#include "core/metrics.h"
#include "influence/influence.h"

namespace ppfr::core {
namespace {

// One small shared environment for the heavier pipeline tests.
const ExperimentEnv& SmallEnv() {
  static const ExperimentEnv* env = [] {
    auto* e = new ExperimentEnv(MakeEnv(data::DatasetId::kEnzymesLike, 7));
    return e;
  }();
  return *env;
}

MethodConfig SmallConfig() {
  MethodConfig cfg = DefaultMethodConfig(data::DatasetId::kEnzymesLike,
                                         nn::ModelKind::kGcn);
  cfg.train.epochs = 80;
  return cfg;
}

TEST(MetricsTest, DeltaFormulaMatchesEq22) {
  EvalResult vanilla;
  vanilla.accuracy = 0.8;
  vanilla.bias = 0.5;
  vanilla.risk_auc = 0.9;
  EvalResult method;
  method.accuracy = 0.76;  // -5%
  method.bias = 0.4;       // -20%
  method.risk_auc = 0.855;  // -5%
  const DeltaMetrics d = ComputeDeltas(method, vanilla);
  EXPECT_NEAR(d.d_acc, -0.05, 1e-12);
  EXPECT_NEAR(d.d_bias, -0.20, 1e-12);
  EXPECT_NEAR(d.d_risk, -0.05, 1e-12);
  EXPECT_NEAR(d.combined, (-0.20) * (-0.05) / 0.05, 1e-9);
  EXPECT_GT(d.combined, 0.0);  // bias & risk both down -> positive
}

TEST(MetricsTest, DeltaSignConventions) {
  EvalResult vanilla;
  vanilla.accuracy = 0.8;
  vanilla.bias = 0.5;
  vanilla.risk_auc = 0.9;
  // Bias down but risk up -> negative combined delta.
  EvalResult method = vanilla;
  method.bias = 0.4;
  method.risk_auc = 0.95;
  method.accuracy = 0.79;
  EXPECT_LT(ComputeDeltas(method, vanilla).combined, 0.0);
}

TEST(ExperimentEnvTest, BuildsConsistentViews) {
  const ExperimentEnv& env = SmallEnv();
  EXPECT_EQ(env.ctx.num_nodes(), env.dataset.data.graph.num_nodes());
  EXPECT_EQ(env.labels().size(), static_cast<size_t>(env.ctx.num_nodes()));
  EXPECT_FALSE(env.attack_pairs.connected.empty());
  const EvalInputs inputs = env.Eval();
  EXPECT_EQ(inputs.ctx, &env.ctx);
  EXPECT_NE(inputs.laplacian, nullptr);
}

TEST(MethodsTest, NamesAndComparisonSet) {
  EXPECT_EQ(MethodName(MethodKind::kVanilla), "Vanilla");
  EXPECT_EQ(MethodName(MethodKind::kPpFr), "PPFR");
  const auto methods = ComparisonMethods();
  EXPECT_EQ(methods.size(), 4u);
  EXPECT_EQ(methods.front(), MethodKind::kReg);
  EXPECT_EQ(methods.back(), MethodKind::kPpFr);
}

TEST(MethodsTest, VanillaRunIsDeterministic) {
  const ExperimentEnv& env = SmallEnv();
  const MethodConfig cfg = SmallConfig();
  const MethodRun a = RunMethod(MethodKind::kVanilla, nn::ModelKind::kGcn, env, cfg);
  const MethodRun b = RunMethod(MethodKind::kVanilla, nn::ModelKind::kGcn, env, cfg);
  EXPECT_DOUBLE_EQ(a.eval.accuracy, b.eval.accuracy);
  EXPECT_DOUBLE_EQ(a.eval.bias, b.eval.bias);
  EXPECT_DOUBLE_EQ(a.eval.risk_auc, b.eval.risk_auc);
}

TEST(MethodsTest, VanillaBeatsChanceAndLeaks) {
  const ExperimentEnv& env = SmallEnv();
  const MethodRun run =
      RunMethod(MethodKind::kVanilla, nn::ModelKind::kGcn, env, SmallConfig());
  EXPECT_GT(run.eval.accuracy, 1.5 / env.dataset.data.num_classes);
  // A trained homophilous GNN leaks edges well above chance.
  EXPECT_GT(run.eval.risk_auc, 0.55);
  EXPECT_GT(run.eval.bias, 0.0);
}

TEST(MethodsTest, RegReducesBias) {
  const ExperimentEnv& env = SmallEnv();
  const MethodConfig cfg = SmallConfig();
  const MethodRun vanilla =
      RunMethod(MethodKind::kVanilla, nn::ModelKind::kGcn, env, cfg);
  const MethodRun reg = RunMethod(MethodKind::kReg, nn::ModelKind::kGcn, env, cfg);
  EXPECT_LT(reg.eval.bias, vanilla.eval.bias);
}

TEST(MethodsTest, DpContextPerturbsStructure) {
  const ExperimentEnv& env = SmallEnv();
  MethodConfig cfg = SmallConfig();
  cfg.dp_epsilon = 4.0;
  const nn::GraphContext dp_ctx = MakeDpContext(env, cfg);
  EXPECT_EQ(dp_ctx.num_nodes(), env.ctx.num_nodes());
  // EdgeRand at eps=4 flips a noticeable number of cells.
  int64_t differences = 0;
  for (const auto& e : env.dataset.data.graph.Edges()) {
    differences += !dp_ctx.graph.HasEdge(e.u, e.v);
  }
  for (const auto& e : dp_ctx.graph.Edges()) {
    differences += !env.dataset.data.graph.HasEdge(e.u, e.v);
  }
  EXPECT_GT(differences, 0);
}

TEST(MethodsTest, PpContextAddsHeterophilicEdgesOnly) {
  const ExperimentEnv& env = SmallEnv();
  const MethodConfig cfg = SmallConfig();
  auto model = TrainFresh(nn::ModelKind::kGcn, env, env.ctx, cfg, 0.0);
  const nn::GraphContext pp_ctx = MakePpContext(env, model.get(), 0.5, 11);
  EXPECT_GT(pp_ctx.graph.num_edges(), env.dataset.data.graph.num_edges());
  // Original edges are all preserved (PP only ADDS).
  for (const auto& e : env.dataset.data.graph.Edges()) {
    EXPECT_TRUE(pp_ctx.graph.HasEdge(e.u, e.v));
  }
}

TEST(FrTest, WeightsAreFeasibleAndNontrivial) {
  const ExperimentEnv& env = SmallEnv();
  const MethodConfig cfg = SmallConfig();
  auto model = TrainFresh(nn::ModelKind::kGcn, env, env.ctx, cfg, 0.0);
  const FrOutput fr = ComputeFr(model.get(), env, cfg);
  ASSERT_EQ(fr.w.size(), env.train_nodes().size());
  double norm_sq = 0.0, sum = 0.0, max_abs = 0.0;
  for (double w : fr.w) {
    EXPECT_GE(w, -1.0 - 1e-12);
    EXPECT_LE(w, 1.0 + 1e-12);
    norm_sq += w * w;
    sum += w;
    max_abs = std::max(max_abs, std::fabs(w));
  }
  EXPECT_LE(norm_sq, cfg.fr.alpha * static_cast<double>(fr.w.size()) +
                        1e-10 * static_cast<double>(fr.w.size()));
  if (cfg.fr.zero_sum) {
    EXPECT_NEAR(sum, 0.0, 1e-10);
  }
  EXPECT_GT(max_abs, 0.05) << "reweighting should actually move some weights";
  // sample_weights = 1 + w.
  for (size_t i = 0; i < fr.w.size(); ++i) {
    EXPECT_DOUBLE_EQ(fr.sample_weights[i], 1.0 + fr.w[i]);
  }
}

TEST(FrTest, PredictedObjectiveIsNonPositive) {
  // The QCLP minimises Σ w·I_bias starting from w = 0, so the optimum is <= 0
  // (predicting a bias decrease).
  const ExperimentEnv& env = SmallEnv();
  const MethodConfig cfg = SmallConfig();
  auto model = TrainFresh(nn::ModelKind::kGcn, env, env.ctx, cfg, 0.0);
  const FrOutput fr = ComputeFr(model.get(), env, cfg);
  EXPECT_LE(fr.objective, 1e-9);
}

// A 4-epoch CoraLike GAT is not at a minimum: the damped finite-difference
// Hessian has negative curvature along the first CG direction of both FR
// solves, which then stop at x = 0, so every influence is exactly 0 and FR
// reduces to a plain fine-tune. The stop reason and a warning make that
// visible instead of silent.
TEST(FrTest, ZeroInfluenceFromNonPositiveCurvatureIsReported) {
  const ExperimentEnv env = MakeEnv(data::DatasetId::kCoraLike, 1);
  MethodConfig cfg = DefaultMethodConfig(data::DatasetId::kCoraLike, nn::ModelKind::kGat);
  cfg.train.epochs = 4;
  auto model = TrainFresh(nn::ModelKind::kGat, env, env.ctx, cfg, 0.0);

  influence::InfluenceCalculator calc(model.get(), env.ctx, env.train_nodes(),
                                      env.labels(), cfg.fr.influence);
  calc.InfluenceOnFunctions(
      {influence::InfluenceCalculator::BiasFunction(env.similarity.laplacian),
       calc.UtilityFunction()});
  EXPECT_EQ(calc.block_stats().total_rhs, 2);
  EXPECT_EQ(calc.block_stats().converged_rhs, 0);
  EXPECT_EQ(calc.block_stats().nonpositive_curvature_rhs, 2);

  ::testing::internal::CaptureStderr();
  const FrOutput fr = ComputeFr(model.get(), env, cfg);
  const std::string log = ::testing::internal::GetCapturedStderr();
  for (double v : fr.bias_influence) ASSERT_EQ(v, 0.0);
  for (double v : fr.util_influence) ASSERT_EQ(v, 0.0);
  EXPECT_EQ(fr.cg_unconverged, 2);
  EXPECT_NE(log.find("every bias and utility influence is exactly 0 (2 of 2"),
            std::string::npos)
      << log;
}

TEST(FrTest, NonzeroInfluenceLogsNoWarning) {
  const ExperimentEnv& env = SmallEnv();
  const MethodConfig cfg = SmallConfig();
  auto model = TrainFresh(nn::ModelKind::kGcn, env, env.ctx, cfg, 0.0);
  ::testing::internal::CaptureStderr();
  const FrOutput fr = ComputeFr(model.get(), env, cfg);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(std::any_of(fr.bias_influence.begin(), fr.bias_influence.end(),
                          [](double v) { return v != 0.0; }));
  EXPECT_EQ(log.find("influence is exactly 0"), std::string::npos) << log;
}

TEST(MethodsTest, PpfrProducesFrWeights) {
  const ExperimentEnv& env = SmallEnv();
  const MethodRun run =
      RunMethod(MethodKind::kPpFr, nn::ModelKind::kGcn, env, SmallConfig());
  EXPECT_EQ(run.fr_weights.size(), env.train_nodes().size());
  EXPECT_NE(run.model, nullptr);
}

TEST(DefaultConfigTest, CoversAllDatasets) {
  for (data::DatasetId id :
       {data::DatasetId::kCoraLike, data::DatasetId::kCiteseerLike,
        data::DatasetId::kPubmedLike, data::DatasetId::kEnzymesLike,
        data::DatasetId::kCreditLike}) {
    for (nn::ModelKind kind :
         {nn::ModelKind::kGcn, nn::ModelKind::kGat, nn::ModelKind::kGraphSage}) {
      const MethodConfig cfg = DefaultMethodConfig(id, kind);
      EXPECT_GT(cfg.train.epochs, 0);
      EXPECT_GT(cfg.lambda, 0.0);
      EXPECT_GT(cfg.dp_epsilon, 0.0);
      EXPECT_GT(cfg.finetune_scale, 0.0);
    }
  }
  EXPECT_TRUE(
      DefaultMethodConfig(data::DatasetId::kPubmedLike, nn::ModelKind::kGcn)
          .use_lap_graph);
}

}  // namespace
}  // namespace ppfr::core
