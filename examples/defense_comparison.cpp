// Compares the three structure-perturbation defenses in this library as
// standalone mechanisms: how much does each reduce the link-stealing risk of
// an already-trained GNN when it is fine-tuned on the perturbed graph, and at
// what accuracy cost?
//   - EdgeRand (randomised response, ε-edge-DP)
//   - LapGraph (Laplace mechanism,   ε-edge-DP)
//   - PP       (the paper's heterophilic perturbation, prediction-guided)
//
//   ./example_defense_comparison [--dataset=CoraLike] [--epochs=150]

#include <cstdio>

#include "common/flags.h"
#include "la/backend.h"
#include "common/table_printer.h"
#include "core/experiment.h"
#include "core/methods.h"
#include "privacy/defense/edge_rand.h"
#include "privacy/defense/heterophilic_perturbation.h"
#include "privacy/defense/lap_graph.h"
#include "runner/scenario.h"

int main(int argc, char** argv) {
  using namespace ppfr;
  Flags flags(argc, argv);
  la::ConfigureBackendFromFlags(flags);
  const data::DatasetId dataset_id =
      runner::ParseDatasetOrDie(flags.GetString("dataset", "CoraLike"));
  core::ExperimentEnv env = core::MakeEnv(dataset_id, core::kDefaultEnvSeed);
  core::MethodConfig cfg = core::DefaultMethodConfig(dataset_id, nn::ModelKind::kGcn);
  cfg.train.epochs = flags.GetInt("epochs", cfg.train.epochs);

  auto vanilla = core::TrainFresh(nn::ModelKind::kGcn, env, env.ctx, cfg, 0.0);
  const core::EvalResult base = core::EvaluateModel(vanilla.get(), env.Eval());
  std::printf("vanilla GCN on %s: acc %.2f%%, attack AUC %.4f\n\n",
              env.dataset.data.name.c_str(), 100.0 * base.accuracy, base.risk_auc);

  const la::Matrix probs = vanilla->PredictProbs(env.ctx);
  const std::vector<int> predicted = la::ArgmaxRows(probs);

  struct Variant {
    std::string name;
    graph::Graph perturbed;
  };
  std::vector<Variant> variants;
  for (double eps : {2.0, 4.0, 6.0}) {
    variants.push_back({"EdgeRand eps=" + TablePrinter::Num(eps, 0),
                        privacy::EdgeRand(env.dataset.data.graph, eps, 7)});
    variants.push_back({"LapGraph eps=" + TablePrinter::Num(eps, 0),
                        privacy::LapGraph(env.dataset.data.graph, eps, 7)});
  }
  for (double gamma : {0.25, 0.5, 1.0}) {
    variants.push_back(
        {"PP gamma=" + TablePrinter::Num(gamma, 2),
         privacy::AddHeterophilicEdges(env.dataset.data.graph, predicted, gamma, 7)});
  }

  TablePrinter table({"Defense", "Edges", "Acc%", "dAcc%", "Risk AUC", "dRisk%"});
  table.AddRow({"(none)", std::to_string(env.dataset.data.graph.num_edges()),
                TablePrinter::Num(100.0 * base.accuracy), "-",
                TablePrinter::Num(base.risk_auc, 4), "-"});
  table.AddSeparator();

  const int finetune_epochs =
      std::max(1, static_cast<int>(cfg.finetune_scale * cfg.train.epochs));
  for (const Variant& variant : variants) {
    const nn::GraphContext ctx =
        nn::GraphContext::Build(variant.perturbed, env.dataset.data.features);
    auto clone = vanilla->Clone();
    const std::vector<double> uniform(env.train_nodes().size(), 1.0);
    core::Finetune(clone.get(), env, ctx, uniform, finetune_epochs, cfg);
    const core::EvalResult eval = core::EvaluateModel(clone.get(), env.Eval());
    table.AddRow({variant.name, std::to_string(variant.perturbed.num_edges()),
                  TablePrinter::Num(100.0 * eval.accuracy),
                  TablePrinter::Pct((eval.accuracy - base.accuracy) / base.accuracy),
                  TablePrinter::Num(eval.risk_auc, 4),
                  TablePrinter::Pct((eval.risk_auc - base.risk_auc) / base.risk_auc)});
  }
  table.Print();
  std::printf(
      "\nReading guide: with a short uniform fine-tune all defenses move the\n"
      "risk only slightly — what matters is the exchange rate. PP targets the\n"
      "inter-class prediction gap the attack exploits (Eq. 20) using FAR fewer\n"
      "edges than EdgeRand needs at comparable risk (compare the Edges\n"
      "column), which is why PPFR pairs PP (not DP) with the reweighting.\n"
      "The full-strength comparison, where defenses enter training itself,\n"
      "is bench_runner --scenarios=table4,fig5.\n");
  return 0;
}
