#ifndef PPFR_BENCH_PAPER_TABLES_H_
#define PPFR_BENCH_PAPER_TABLES_H_

// The paper's Tables II–V and Figs. 4–7 as renderers over their registry
// sweeps (src/runner/scenario.cc). bench_runner looks one up for every
// --scenarios= name after a run or a --merge; each renderer
//   1. attaches the cell extras its table needs (table2's Pearson r, fig4's
//      per-distance AUCs) before the artifact is written, and
//   2. prints the paper table from the cells of its own sweep.
// A cell belongs to a sweep when its (dataset, model, method, label) is in
// that sweep's grid, so a merged result (--scenarios=table3,table5) gives
// each renderer exactly its own cells. Cells without numbers (failed,
// skipped by an interrupt, missing from a merge or from this shard) print
// their status instead of being read.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "influence/influence.h"
#include "la/stats.h"
#include "privacy/distance.h"
#include "runner/runner.h"

namespace ppfr::bench {

// What a renderer may use beyond the cells.
struct PaperContext {
  runner::RunCache* cache = nullptr;  // table2's vanilla models, table5's envs
  uint64_t env_seed = core::kDefaultEnvSeed;
  int threads = 1;  // --runner_threads, for table2's influence solves
};

struct PaperTable {
  const char* name;  // canonical registry sweep name
  // Attaches extras to result->cells[i] for i in `own`; null when the table
  // needs none.
  void (*attach)(const PaperContext& ctx, runner::SweepResult* result,
                 const std::vector<size_t>& own);
  // Renders the table from a result holding only the sweep's own cells.
  std::string (*render)(const runner::SweepResult& own);
};

// ---- Cell access -----------------------------------------------------------

inline bool Finished(const runner::CellResult* cell) {
  return cell != nullptr && !cell->failed && !cell->skipped && !cell->missing;
}

// What a cell without numbers prints in their place; empty for a finished
// cell. A cell absent from the result (another shard's) is MISSING.
inline std::string CellStatus(const runner::CellResult* cell) {
  if (cell == nullptr || cell->missing) return "MISSING";
  if (cell->failed) return "FAILED";
  if (cell->skipped) return "SKIPPED";
  return "";
}

// A table flags an unfinished cell with CellStatus in the first slot it
// gives the cell and prints "-" in the others, so each one is flagged
// exactly once.
inline std::string AccOrStatus(const runner::CellResult* cell) {
  return Finished(cell) ? TablePrinter::Num(100.0 * cell->run->eval.accuracy)
                        : CellStatus(cell);
}

// Distinct values of a Scenario field in first-appearance cell order.
template <typename T>
std::vector<T> DistinctInOrder(const runner::SweepResult& result,
                               T runner::Scenario::* field) {
  std::vector<T> out;
  for (const runner::CellResult& cell : result.cells) {
    const T value = cell.scenario.*field;
    if (std::find(out.begin(), out.end(), value) == out.end()) out.push_back(value);
  }
  return out;
}

inline std::vector<data::DatasetId> DatasetsIn(const runner::SweepResult& result) {
  return DistinctInOrder(result, &runner::Scenario::dataset);
}

inline std::vector<nn::ModelKind> ModelsIn(const runner::SweepResult& result) {
  return DistinctInOrder(result, &runner::Scenario::model);
}

// Delta tables leave out the vanilla baselines; flag the ones that did not
// finish below the table so every cell of the sweep is accounted for.
inline std::string UnfinishedBaselines(const runner::SweepResult& own,
                                       data::DatasetId dataset,
                                       const std::vector<nn::ModelKind>& models) {
  std::string out;
  for (nn::ModelKind kind : models) {
    const runner::CellResult* cell =
        runner::FindCell(own, dataset, kind, core::MethodKind::kVanilla);
    if (Finished(cell)) continue;
    out += "  " + data::DatasetName(dataset) + " " + nn::ModelKindName(kind) +
           " Vanilla: " + CellStatus(cell) + "\n";
  }
  return out;
}

// ---- Table II: I_fbias / I_frisk correlation --------------------------------

// Influence correlations on the stage-cached vanilla models (never
// cell.run->model, which a journal-restored cell does not carry). The CG
// solves dominate, so they fan across the cell scheduler's worker discipline;
// each finished cell works on a private model clone and writes only itself.
inline void AttachPearson(const PaperContext& ctx, runner::SweepResult* result,
                          const std::vector<size_t>& own) {
  std::vector<size_t> finished;
  for (size_t i : own) {
    if (Finished(&result->cells[i])) finished.push_back(i);
  }
  runner::ParallelCells(finished.size(), ctx.threads, [&](size_t j) {
    runner::CellResult& cell = result->cells[finished[j]];
    const auto env = ctx.cache->Env(cell.scenario.dataset, ctx.env_seed);
    const core::MethodConfig cfg = cell.scenario.ResolvedConfig();
    const std::unique_ptr<nn::GnnModel> model =
        ctx.cache->VanillaModel(cell.scenario.model, *env, cfg);
    influence::InfluenceCalculator calculator(model.get(), env->ctx,
                                              env->train_nodes(), env->labels(),
                                              cfg.fr.influence);
    // One 2-RHS block inverse-HVP solve for both influence vectors.
    const std::vector<std::vector<double>> batched = calculator.InfluenceOnFunctions(
        {influence::InfluenceCalculator::BiasFunction(env->similarity.laplacian),
         influence::InfluenceCalculator::RiskFunction(env->attack_pairs)});
    const double r = la::PearsonCorrelation(batched[0], batched[1]);
    cell.extra["pearson_r"] = r;
    std::fprintf(stderr, "  [%s/%s] r = %.3f\n",
                 data::DatasetName(cell.scenario.dataset).c_str(),
                 nn::ModelKindName(cell.scenario.model).c_str(), r);
  });
}

inline std::string RenderTable2(const runner::SweepResult& own) {
  std::string out =
      "Table II — correlation r between I_fbias and I_frisk\n"
      "(|r| < 0.3 or r < 0 indicates fairness/privacy inconformity in the\n"
      " reweighting space; the paper reports mixed signs across cells)\n\n";
  const auto models = ModelsIn(own);
  std::vector<std::string> header{"Dataset"};
  for (nn::ModelKind kind : models) header.push_back(nn::ModelKindName(kind));
  TablePrinter table(header);
  for (data::DatasetId dataset : DatasetsIn(own)) {
    std::vector<std::string> row{data::DatasetName(dataset)};
    for (nn::ModelKind kind : models) {
      const runner::CellResult* cell =
          runner::FindCell(own, dataset, kind, core::MethodKind::kVanilla);
      row.push_back(Finished(cell) ? TablePrinter::Num(cell->extra.at("pearson_r"), 2)
                                   : CellStatus(cell));
    }
    table.AddRow(std::move(row));
  }
  return out + table.ToString();
}

// ---- Table III: Reg accuracy / bias ----------------------------------------

inline std::string RenderTable3(const runner::SweepResult& own) {
  std::string out = "Table III — accuracy and bias of GCN, Vanilla vs Reg\n\n";
  TablePrinter table({"Datasets", "Methods", "Acc (up)", "Bias (down)"});
  for (data::DatasetId dataset : DatasetsIn(own)) {
    for (core::MethodKind method :
         {core::MethodKind::kVanilla, core::MethodKind::kReg}) {
      const runner::CellResult* cell =
          runner::FindCell(own, dataset, nn::ModelKind::kGcn, method);
      table.AddRow({data::DatasetName(dataset), core::MethodName(method),
                    AccOrStatus(cell),
                    Finished(cell) ? TablePrinter::Num(cell->run->eval.bias, 4) : "-"});
    }
    table.AddSeparator();
  }
  return out + table.ToString() +
         "\nExpected shape (paper): bias drops under Reg on every dataset while\n"
         "accuracy decreases slightly — fairness costs performance.\n";
}

// ---- Table IV: PPFR effectiveness ------------------------------------------

inline std::string RenderTable4(const runner::SweepResult& own) {
  std::string out =
      "Table IV — effectiveness of PPFR (all values vs vanilla, %)\n"
      "(smaller Δbias = fairer, smaller Δrisk = more private,\n"
      " larger positive Δ = better fairness/privacy balance)\n\n";
  const auto models = ModelsIn(own);
  for (data::DatasetId dataset : DatasetsIn(own)) {
    out += data::DatasetName(dataset) + ":\n";
    std::vector<std::string> header{"Methods"};
    for (nn::ModelKind kind : models) {
      const std::string name = nn::ModelKindName(kind);
      header.push_back(name + " dBias%");
      header.push_back(name + " dRisk%");
      header.push_back(name + " D");
    }
    TablePrinter table(header);
    for (core::MethodKind method : core::ComparisonMethods()) {
      std::vector<std::string> row{core::MethodName(method)};
      for (nn::ModelKind kind : models) {
        const runner::CellResult* cell = runner::FindCell(own, dataset, kind, method);
        const bool ok = Finished(cell);
        row.push_back(ok ? TablePrinter::Pct(cell->delta.d_bias) : CellStatus(cell));
        row.push_back(ok ? TablePrinter::Pct(cell->delta.d_risk) : "-");
        row.push_back(ok ? TablePrinter::Num(cell->delta.combined, 3) : "-");
      }
      table.AddRow(std::move(row));
    }
    out += table.ToString() + UnfinishedBaselines(own, dataset, models) + "\n";
  }
  return out +
         "Expected shape (paper): Reg rows show Δrisk > 0 (trade-off);\n"
         "PPFR rows show Δbias < 0 AND Δrisk <= 0 with positive Δ.\n";
}

// ---- Table V: weak homophily -----------------------------------------------

// No extras; logs each dataset's edge homophily (the study's premise) from
// the stage-cached environment its finished cells ran on.
inline void LogHomophily(const PaperContext& ctx, runner::SweepResult* result,
                         const std::vector<size_t>& own) {
  std::vector<data::DatasetId> logged;
  for (size_t i : own) {
    const runner::CellResult& cell = result->cells[i];
    const data::DatasetId dataset = cell.scenario.dataset;
    if (!Finished(&cell) ||
        std::find(logged.begin(), logged.end(), dataset) != logged.end()) {
      continue;
    }
    logged.push_back(dataset);
    const auto env = ctx.cache->Env(dataset, ctx.env_seed);
    std::fprintf(stderr, "  [%s] homophily %.2f\n", data::DatasetName(dataset).c_str(),
                 env->dataset.data.graph.EdgeHomophily(env->labels()));
  }
}

inline std::string RenderTable5(const runner::SweepResult& own) {
  std::string out = "Table V — GCN on weak-homophily datasets (all values %, Δ raw)\n\n";
  TablePrinter table(
      {"Dataset", "Methods", "dAcc%", "dBias% (down)", "dRisk% (down)", "D (up)"});
  std::string baselines;
  for (data::DatasetId dataset : DatasetsIn(own)) {
    for (core::MethodKind method : core::ComparisonMethods()) {
      const runner::CellResult* cell =
          runner::FindCell(own, dataset, nn::ModelKind::kGcn, method);
      const bool ok = Finished(cell);
      table.AddRow({data::DatasetName(dataset), core::MethodName(method),
                    ok ? TablePrinter::Pct(cell->delta.d_acc) : CellStatus(cell),
                    ok ? TablePrinter::Pct(cell->delta.d_bias) : "-",
                    ok ? TablePrinter::Pct(cell->delta.d_risk) : "-",
                    ok ? TablePrinter::Num(cell->delta.combined, 3) : "-"});
    }
    table.AddSeparator();
    baselines += UnfinishedBaselines(own, dataset, {nn::ModelKind::kGcn});
  }
  return out + table.ToString() + baselines +
         "\nExpected shape (paper): the Reg trade-off is weaker here than on\n"
         "strong-homophily graphs; DP and PP are comparable when combined\n"
         "with FR.\n";
}

// ---- Fig. 4: attack AUC per distance ---------------------------------------

// The per-distance AUC breakdown rides along in the artifact; journal-
// restored cells carry it in their eval.
inline void AttachDistanceAucs(const PaperContext&, runner::SweepResult* result,
                               const std::vector<size_t>& own) {
  const auto& kinds = privacy::AllDistanceKinds();
  for (size_t i : own) {
    runner::CellResult& cell = result->cells[i];
    if (!Finished(&cell)) continue;
    for (size_t k = 0; k < kinds.size(); ++k) {
      cell.extra["auc_" + privacy::DistanceName(kinds[k])] =
          cell.run->eval.attack.auc_per_distance.at(k);
    }
  }
}

inline std::string RenderFig4(const runner::SweepResult& own) {
  std::string out =
      "Fig. 4 — attack AUC per distance, GCN vanilla vs Reg\n"
      "(smaller AUC = better privacy; the paper observes AUC increases\n"
      " when fairness is promoted)\n\n";
  const auto& kinds = privacy::AllDistanceKinds();
  for (data::DatasetId dataset : DatasetsIn(own)) {
    const runner::CellResult* vanilla = runner::FindCell(
        own, dataset, nn::ModelKind::kGcn, core::MethodKind::kVanilla);
    const runner::CellResult* reg =
        runner::FindCell(own, dataset, nn::ModelKind::kGcn, core::MethodKind::kReg);
    const bool both = Finished(vanilla) && Finished(reg);
    const auto auc = [](const runner::CellResult* cell, size_t k) {
      return Finished(cell)
                 ? TablePrinter::Num(cell->run->eval.attack.auc_per_distance.at(k), 4)
                 : "-";
    };

    out += data::DatasetName(dataset) + ":\n";
    TablePrinter table({"Distance", "AUC vanilla", "AUC Reg", "change"});
    int increased = 0;
    for (size_t k = 0; k < kinds.size(); ++k) {
      std::string change = "-";
      if (both) {
        const bool riskier = reg->run->eval.attack.auc_per_distance[k] >
                             vanilla->run->eval.attack.auc_per_distance[k];
        increased += riskier;
        change = riskier ? "riskier" : "safer";
      }
      table.AddRow({privacy::DistanceName(kinds[k]), auc(vanilla, k), auc(reg, k),
                    change});
    }
    table.AddSeparator();
    const auto mean = [](const runner::CellResult* cell) {
      return Finished(cell) ? TablePrinter::Num(cell->run->eval.risk_auc, 4)
                            : CellStatus(cell);
    };
    table.AddRow({"MEAN", mean(vanilla), mean(reg),
                  !both ? "-"
                  : reg->run->eval.risk_auc > vanilla->run->eval.risk_auc ? "riskier"
                                                                          : "safer"});
    out += table.ToString() + "  distances with increased AUC: " +
           (both ? std::to_string(increased) : "-") + " / " +
           std::to_string(kinds.size()) + "\n\n";
  }
  return out;
}

// ---- Figs. 5 and 7: accuracy cost ------------------------------------------

// One row per dataset: the vanilla accuracy, then each comparison method's
// dAcc%; fig7 adds DPReg's dRisk%.
inline std::vector<std::string> AccuracyCostRow(const runner::SweepResult& own,
                                                data::DatasetId dataset,
                                                nn::ModelKind kind, bool dp_risk) {
  std::vector<std::string> row{
      data::DatasetName(dataset),
      AccOrStatus(runner::FindCell(own, dataset, kind, core::MethodKind::kVanilla))};
  for (core::MethodKind method : core::ComparisonMethods()) {
    const runner::CellResult* cell = runner::FindCell(own, dataset, kind, method);
    row.push_back(Finished(cell) ? TablePrinter::Pct(cell->delta.d_acc)
                                 : CellStatus(cell));
  }
  if (dp_risk) {
    const runner::CellResult* dp =
        runner::FindCell(own, dataset, kind, core::MethodKind::kDpReg);
    row.push_back(Finished(dp) ? TablePrinter::Pct(dp->delta.d_risk) : "-");
  }
  return row;
}

inline std::vector<std::string> AccuracyCostHeader() {
  std::vector<std::string> header{"Dataset", "Vanilla Acc%"};
  for (core::MethodKind method : core::ComparisonMethods()) {
    header.push_back(core::MethodName(method) + " dAcc%");
  }
  return header;
}

inline std::string RenderFig5(const runner::SweepResult& own) {
  std::string out = "Fig. 5 — accuracy cost dAcc (%) per method (higher = better)\n\n";
  for (nn::ModelKind kind : ModelsIn(own)) {
    out += nn::ModelKindName(kind) + " panel:\n";
    TablePrinter table(AccuracyCostHeader());
    for (data::DatasetId dataset : DatasetsIn(own)) {
      table.AddRow(AccuracyCostRow(own, dataset, kind, /*dp_risk=*/false));
    }
    out += table.ToString() + "\n";
  }
  return out +
         "Expected shape (paper): DPReg has the largest accuracy drop;\n"
         "PPFR's drop stays small (two-phase design protects performance).\n";
}

inline std::string RenderFig7(const runner::SweepResult& own) {
  std::string out = "Fig. 7 — accuracy cost dAcc (%) on GraphSAGE (higher = better)\n\n";
  std::vector<std::string> header = AccuracyCostHeader();
  header.push_back("DPReg dRisk%");
  TablePrinter table(header);
  for (data::DatasetId dataset : DatasetsIn(own)) {
    table.AddRow(
        AccuracyCostRow(own, dataset, nn::ModelKind::kGraphSage, /*dp_risk=*/true));
  }
  return out + table.ToString() +
         "\nExpected shape (paper): DPReg's |dRisk| on GraphSAGE is much smaller\n"
         "than on GCN/GAT (sampling dilutes the DP edge noise), while PPFR's\n"
         "accuracy cost stays small.\n";
}

// ---- Fig. 6: PPFR ablation -------------------------------------------------

inline std::vector<std::string> AblationRow(std::string x,
                                            const runner::CellResult* cell) {
  const bool ok = Finished(cell);
  return {std::move(x), AccOrStatus(cell),
          ok ? TablePrinter::Num(cell->run->eval.bias, 4) : "-",
          ok ? TablePrinter::Num(cell->run->eval.risk_auc, 4) : "-"};
}

// One panel: the cells labelled `<prefix><x>` (labels come from the registry
// sweep, the one source of truth), x parsed from the suffix, under the
// vanilla reference row. An unfinished vanilla cell is flagged in the first
// panel only.
inline std::string AblationPanel(const runner::SweepResult& own,
                                 const std::string& title, const std::string& x_name,
                                 const std::string& label_prefix,
                                 const runner::CellResult* vanilla, bool flag_vanilla) {
  TablePrinter table({x_name, "Acc%", "Bias", "Risk AUC"});
  table.AddRow(Finished(vanilla) || flag_vanilla
                   ? AblationRow("(vanilla)", vanilla)
                   : std::vector<std::string>{"(vanilla)", "-", "-", "-"});
  table.AddSeparator();
  for (const runner::CellResult& cell : own.cells) {
    const std::string& label = cell.scenario.label;
    if (label.rfind(label_prefix, 0) != 0) continue;
    const double x = std::atof(label.c_str() + label_prefix.size());
    table.AddRow(AblationRow(TablePrinter::Num(x, 2), &cell));
  }
  return title + "\n" + table.ToString() + "\n";
}

inline std::string RenderFig6(const runner::SweepResult& own) {
  const runner::CellResult* vanilla = runner::FindCell(
      own, data::DatasetId::kCoraLike, nn::ModelKind::kGat, core::MethodKind::kVanilla);
  std::string out = "Fig. 6 — PPFR ablation on (CoraLike, GAT)\n\n";
  out += AblationPanel(own,
                       "(left) FR only — fine-tune epoch sweep, zero edge perturbations",
                       "#epochs", "fr_only_ep", vanilla, /*flag_vanilla=*/true);
  out += AblationPanel(own, "(middle) PP ratio sweep, fixed FR epochs", "gamma",
                       "pp_gamma_", vanilla, false);
  out += AblationPanel(own, "(right) fixed PP + FR — fine-tune epoch sweep", "#epochs",
                       "ppfr_ep", vanilla, false);

  out += "(extra) QCLP zero-sum constraint ablation (30 fine-tune epochs)\n";
  TablePrinter zs_table({"zero_sum", "Acc%", "Bias", "Risk AUC"});
  zs_table.AddRow(AblationRow("on", runner::FindCellByLabel(own, "zero_sum_on")));
  zs_table.AddRow(AblationRow("off", runner::FindCellByLabel(own, "zero_sum_off")));
  return out + zs_table.ToString() +
         "\nExpected shape (paper): left panel degrades privacy as fairness\n"
         "improves; right panel holds Risk AUC near the vanilla line.\n";
}

// ---- Registry --------------------------------------------------------------

inline const std::vector<PaperTable>& PaperTables() {
  static const std::vector<PaperTable> tables{
      {"table2", AttachPearson, RenderTable2},
      {"table3", nullptr, RenderTable3},
      {"table4", nullptr, RenderTable4},
      {"table5", LogHomophily, RenderTable5},
      {"fig4", AttachDistanceAucs, RenderFig4},
      {"fig5", nullptr, RenderFig5},
      {"fig6", nullptr, RenderFig6},
      {"fig7", nullptr, RenderFig7},
  };
  return tables;
}

// The renderer of a registry sweep name or alias (weak-homophily -> table5);
// nullptr for sweeps without a paper table (smoke, smoke-multiseed) and for
// unknown names.
inline const PaperTable* FindPaperTable(const std::string& name) {
  const std::optional<runner::Sweep> sweep = runner::RegistrySweep(name);
  if (!sweep) return nullptr;
  for (const PaperTable& table : PaperTables()) {
    if (sweep->name == table.name) return &table;
  }
  return nullptr;
}

// The renderers for a --scenarios= list, in order, each once.
inline std::vector<const PaperTable*> PaperTablesFor(
    const std::vector<std::string>& names) {
  std::vector<const PaperTable*> out;
  for (const std::string& name : names) {
    const PaperTable* table = FindPaperTable(name);
    if (table != nullptr && std::find(out.begin(), out.end(), table) == out.end()) {
      out.push_back(table);
    }
  }
  return out;
}

// Indices of the cells of `result` that belong to `table`'s sweep: those
// whose (dataset, model, method, label) is in its registry grid. A cell two
// merged sweeps share belongs to both.
inline std::vector<size_t> OwnCells(const PaperTable& table,
                                    const runner::SweepResult& result) {
  const std::vector<runner::Scenario> grid = runner::RegistrySweep(table.name)->cells;
  std::vector<size_t> own;
  for (size_t i = 0; i < result.cells.size(); ++i) {
    const runner::Scenario& s = result.cells[i].scenario;
    const bool member = std::any_of(grid.begin(), grid.end(), [&](const auto& g) {
      return g.dataset == s.dataset && g.model == s.model && g.method == s.method &&
             g.label == s.label;
    });
    if (member) own.push_back(i);
  }
  return own;
}

inline void AttachPaperExtras(const std::vector<const PaperTable*>& tables,
                              const PaperContext& ctx, runner::SweepResult* result) {
  for (const PaperTable* table : tables) {
    if (table->attach != nullptr) table->attach(ctx, result, OwnCells(*table, *result));
  }
}

// The paper table of `table`'s sweep from its own cells of `result`; empty
// when the result holds none (e.g. filtered away in a merged sweep).
inline std::string RenderPaperTable(const PaperTable& table,
                                    const runner::SweepResult& result) {
  runner::SweepResult own;
  own.name = table.name;
  for (size_t i : OwnCells(table, result)) own.cells.push_back(result.cells[i]);
  return own.cells.empty() ? std::string{} : table.render(own);
}

inline std::string RenderPaperTables(const std::vector<const PaperTable*>& tables,
                                     const runner::SweepResult& result) {
  std::string out;
  for (const PaperTable* table : tables) {
    const std::string text = RenderPaperTable(*table, result);
    if (!text.empty()) out += "\n" + text;
  }
  // The paper tables address cells by (dataset, model, method) and therefore
  // show the FIRST seed instance; under a seed list, say so and point at the
  // aggregated numbers instead of letting a single-seed slice read as the
  // paper's averaged table.
  if (!out.empty() && result.seeds.size() > 1) {
    out += "note: " + std::to_string(result.seeds.size()) +
           " seed instances per cell ran; the paper tables above show the first "
           "seed only — cross-seed mean/stddev per metric are in the aggregates "
           "table and the artifact's 'aggregates'\n";
  }
  return out;
}

}  // namespace ppfr::bench

#endif  // PPFR_BENCH_PAPER_TABLES_H_
