// Tests for the paper-table renderers (bench/paper_tables.h): every paper
// sweep has one, cells without numbers print their status instead of being
// read, extras attach only to finished cells, and a renderer sees only the
// cells of its own sweep inside a merged result.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/paper_tables.h"
#include "privacy/distance.h"

namespace ppfr::bench {
namespace {

// The registry sweep's cells as results; `make` fills in each one.
template <typename F>
runner::SweepResult ResultOf(const std::string& name, F make) {
  runner::SweepResult result;
  result.name = name;
  const std::vector<runner::Scenario> cells = runner::RegistrySweep(name)->cells;
  for (size_t i = 0; i < cells.size(); ++i) {
    runner::CellResult cell;
    cell.scenario = cells[i];
    make(i, &cell);
    result.cells.push_back(std::move(cell));
  }
  return result;
}

// Distinct, finite numbers per cell so a renderer reading the wrong cell
// shows up as different text.
void MakeFinished(size_t i, runner::CellResult* cell) {
  auto run = std::make_shared<core::MethodRun>();
  const double x = 0.01 * static_cast<double>(i + 1);
  run->eval.accuracy = 0.5 + x;
  run->eval.bias = 0.1 * x;
  run->eval.risk_auc = 0.8 + x;
  run->eval.attack.auc_per_distance.assign(privacy::AllDistanceKinds().size(),
                                           0.7 + x);
  cell->run = std::move(run);
  cell->delta = {-x, -2 * x, x, 3 * x};
  cell->extra["pearson_r"] = x;
}

size_t Count(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(PaperTablesTest, EveryPaperSweepNameResolvesToARenderer) {
  for (const std::string& name : runner::RegistrySweepNames()) {
    const PaperTable* table = FindPaperTable(name);
    if (name == "smoke" || name == "smoke-multiseed") {
      EXPECT_EQ(table, nullptr) << name;
      continue;
    }
    ASSERT_NE(table, nullptr) << name;
    EXPECT_EQ(table->name, name);
  }
  EXPECT_STREQ(FindPaperTable("weak-homophily")->name, "table5");
  EXPECT_STREQ(FindPaperTable("ablation")->name, "fig6");
  EXPECT_EQ(FindPaperTable("no-such-sweep"), nullptr);
  // Aliases of one sweep render it once.
  EXPECT_EQ(PaperTablesFor({"table5", "weak-homophily", "smoke", "fig6"}).size(), 2u);
}

// Failed, skipped and missing cells carry NaN placeholders without the
// per-distance AUCs; every renderer must flag each one exactly once and
// attach nothing to it.
TEST(PaperTablesTest, UnfinishedCellsRenderOneStatusMarkerEach) {
  const char* kStatuses[] = {"FAILED", "SKIPPED", "MISSING"};
  for (const PaperTable& table : PaperTables()) {
    runner::SweepResult result = ResultOf(table.name, [](size_t i, runner::CellResult* c) {
      c->run = runner::PlaceholderRun();
      c->vanilla_eval = runner::NanEvalResult();
      c->delta = runner::NanDeltaMetrics();
      c->failed = i % 3 == 0;
      c->skipped = i % 3 == 1;
      c->missing = i % 3 == 2;
    });
    AttachPaperExtras({&table}, PaperContext{}, &result);
    for (const runner::CellResult& cell : result.cells) {
      EXPECT_TRUE(cell.extra.empty()) << table.name;
    }

    const std::string text = RenderPaperTable(table, result);
    size_t markers = 0;
    for (const char* status : kStatuses) markers += Count(text, status);
    EXPECT_EQ(markers, result.cells.size()) << table.name << "\n" << text;
    EXPECT_EQ(Count(text, "nan"), 0u) << table.name;
  }
}

TEST(PaperTablesTest, DistanceAucsAttachToFinishedCellsOnly) {
  runner::SweepResult result = ResultOf("fig4", [](size_t i, runner::CellResult* c) {
    MakeFinished(i, c);
    c->extra.clear();
    if (i == 0) {
      c->failed = true;
      c->run = runner::PlaceholderRun();
    }
  });
  AttachPaperExtras({FindPaperTable("fig4")}, PaperContext{}, &result);
  const size_t distances = privacy::AllDistanceKinds().size();
  EXPECT_TRUE(result.cells[0].extra.empty());
  for (size_t i = 1; i < result.cells.size(); ++i) {
    EXPECT_EQ(result.cells[i].extra.size(), distances);
    EXPECT_EQ(result.cells[i].extra.at("auc_Cosine"),
              result.cells[i].run->eval.attack.auc_per_distance[0]);
  }
}

TEST(PaperTablesTest, MergedResultRendersEachSweepFromItsOwnCells) {
  const runner::SweepResult table3 = ResultOf("table3", MakeFinished);
  const runner::SweepResult table5 = ResultOf("table5", MakeFinished);
  runner::SweepResult merged = table3;
  merged.name = "table3+table5";
  merged.cells.insert(merged.cells.end(), table5.cells.begin(), table5.cells.end());

  const PaperTable& t3 = *FindPaperTable("table3");
  const std::string alone = RenderPaperTable(t3, table3);
  EXPECT_EQ(RenderPaperTable(t3, merged), alone);
  EXPECT_NE(alone.find("Table III"), std::string::npos);
  EXPECT_NE(alone.find("CoraLike"), std::string::npos);
  EXPECT_EQ(alone.find("EnzymesLike"), std::string::npos);
  EXPECT_EQ(Count(alone, "FAILED") + Count(alone, "MISSING"), 0u);

  const PaperTable& t5 = *FindPaperTable("table5");
  EXPECT_EQ(RenderPaperTable(t5, merged), RenderPaperTable(t5, table5));
  // A sweep with no cells in the result renders nothing.
  EXPECT_EQ(RenderPaperTable(*FindPaperTable("fig6"), merged), "");
}

}  // namespace
}  // namespace ppfr::bench
