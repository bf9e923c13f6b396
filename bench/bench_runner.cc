// The scenario-runner front-end: runs any registered sweep (or several,
// sharing one stage cache so e.g. table4 + fig5 never retrain a model the
// other already produced) or an ad-hoc grid, and emits the uniform
// BENCH_<name>.json artifact. Each paper sweep (table2-5, fig4-7) also
// prints its paper table (paper_tables.h) after the per-cell table.
//
//   ./bench_runner --scenarios=table4 [--epochs=150]   # Table IV
//   ./bench_runner --scenarios=table4,fig5 [--epochs=150]
//   ./bench_runner --grid='CoraLike,CiteseerLike;GCN,GAT;Vanilla,PPFR'
//   ./bench_runner --scenarios=smoke --epochs=8 --runner_threads=2
//
// --grid takes three ';'-separated comma-lists (datasets;models;methods);
// an empty or '*' component means the default grid for that axis. All names
// are matched exactly and die with the valid list on a typo.
//
// Fleet mode (see EXPERIMENTS.md "fleet protocol"):
//   ./bench_runner --scenarios=smoke --shard=0/3 --shard_dir=shards
//       --run_cache_dir=cache        # one process per shard, any machines
//   ./bench_runner --scenarios=smoke --merge=shards --stable_artifact
// Each shard journals to shards/shard-<i>of<N>.journal and writes a
// BENCH_<name>.shard-<i>of<N>.json artifact; a SIGKILL'd shard re-runs with
// --resume added. --merge reassembles the full artifact from the journals:
// exit 0 and a bitwise-unsharded artifact when every shard arrived, exit 3
// with missing_shards/missing_cells/conflicting_cells reported when
// degraded. SIGTERM/SIGINT on a running sweep stops gracefully: in-flight
// cells finish and journal, the artifact is written with interrupted:true,
// and the exit code is 4.

#include <cstdio>

#include "bench_util.h"
#include "common/table_printer.h"
#include "paper_tables.h"
#include "runner/shard_merge.h"

namespace {

// --merge=DIR mode: no cells run; the sweep definition (same flags as the
// shard runs) pins the grid and the journals supply the results.
int RunMergeMode(const ppfr::Flags& flags, const ppfr::runner::Sweep& sweep,
                 const std::vector<const ppfr::bench::PaperTable*>& tables) {
  using namespace ppfr;
  const std::string dir = flags.GetString("merge", "");
  if (dir.empty() || dir == "true") {
    std::fprintf(stderr, "--merge wants the shard directory (e.g. --merge=shards)\n");
    return bench::kExitUsage;
  }
  if (flags.Has("shard") || flags.Has("journal") || flags.GetBool("resume", false)) {
    std::fprintf(stderr, "--merge cannot be combined with --shard/--journal/--resume\n");
    return bench::kExitUsage;
  }
  runner::ShardMergeOptions options;
  options.shard_dir = dir;
  options.env_seed = flags.GetUint64("env_seed", core::kDefaultEnvSeed);
  runner::ShardMergeReport report;
  runner::SweepResult result = runner::MergeShards(sweep, options, &report);
  runner::RunCache cache(bench::RunCacheDir(flags));
  bench::AttachPaperExtras(
      tables, {&cache, options.env_seed, flags.GetInt("runner_threads", 1)}, &result);
  bench::EmitArtifact(flags, result);
  std::fputs(bench::RenderPaperTables(tables, result).c_str(), stdout);

  std::printf("merged %zu of %d shard journal(s): %zu cells",
              report.present_shards.size(), report.shard_count,
              result.cells.size());
  if (report.complete) {
    std::printf(", complete\n");
    return 0;
  }
  std::printf(", DEGRADED —");
  if (!result.missing_shards.empty()) {
    std::printf(" missing shards:");
    for (int s : result.missing_shards) std::printf(" %d", s);
    std::printf(" (re-run them against the same --shard_dir, then merge again);");
  }
  std::printf(" %lld missing cell(s), %lld conflicting cell(s)\n",
              static_cast<long long>(result.missing_cells),
              static_cast<long long>(result.conflicting_cells));
  return bench::kExitDegradedMerge;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppfr;
  Flags flags(argc, argv);
  bench::RejectUnknownFlags(
      flags, {"datasets", "models", "epochs", "seed", "seeds", "env_seed",
              "la_backend", "la_threads", "runner_threads", "json_dir",
              "run_cache_dir", "stable_artifact", "cell_retries", "scenarios",
              "grid", "journal", "resume", "shard", "shard_dir", "merge",
              "cache_gc_bytes", "cache_gc_age_s"});
  la::ConfigureBackendFromFlags(flags);

  runner::Sweep sweep = runner::SweepFromFlags(flags, /*default_name=*/"smoke");
  runner::ApplyCommonOverrides(flags, &sweep);
  const std::vector<const bench::PaperTable*> tables =
      bench::PaperTablesFor(runner::SplitList(flags.GetString("scenarios", "")));

  bench::PreflightOutputPaths(flags);
  if (flags.Has("merge")) return RunMergeMode(flags, sweep, tables);

  runner::RunnerOptions opts = bench::RunnerOptionsFromFlags(flags);
  const bench::ShardSpec shard = bench::ShardFromFlags(flags);
  std::string artifact_suffix;
  if (shard.count > 1) {
    opts.shard_index = shard.index;
    opts.shard_count = shard.count;
    opts.journal_path =
        shard.dir + "/" + runner::ShardJournalFilename(shard.index, shard.count);
    artifact_suffix = ".shard-" + std::to_string(shard.index) + "of" +
                      std::to_string(shard.count);
  }
  opts.stop = bench::InstallGracefulStop();

  std::printf("sweep %s — %s (%zu cells%s)\n\n", sweep.name.c_str(),
              sweep.title.c_str(),
              runner::ExpandCells(sweep).size(),
              shard.count > 1
                  ? (", shard " + std::to_string(shard.index) + "/" +
                     std::to_string(shard.count))
                        .c_str()
                  : "");

  runner::RunCache cache(bench::RunCacheDir(flags));
  runner::SweepResult result = runner::RunSweep(sweep, &cache, opts);
  bench::AttachPaperExtras(tables, {&cache, opts.env_seed, opts.threads}, &result);
  bench::EmitArtifact(flags, result, artifact_suffix);

  TablePrinter table({"Dataset", "Model", "Cell", "Seed", "Acc%", "Bias",
                      "Risk AUC", "dAcc%", "dBias%", "dRisk%", "D", "sec"});
  for (const runner::CellResult& cell : result.cells) {
    if (cell.failed || cell.skipped) {
      table.AddRow({data::DatasetName(cell.scenario.dataset),
                    nn::ModelKindName(cell.scenario.model),
                    cell.scenario.DisplayLabel(), std::to_string(cell.seed),
                    cell.failed ? "FAILED" : "SKIPPED", "-", "-", "-", "-", "-",
                    "-", TablePrinter::Num(cell.seconds, 1)});
      continue;
    }
    const bool vanilla = cell.scenario.method == core::MethodKind::kVanilla;
    table.AddRow({data::DatasetName(cell.scenario.dataset),
                  nn::ModelKindName(cell.scenario.model), cell.scenario.DisplayLabel(),
                  std::to_string(cell.seed),
                  TablePrinter::Num(100.0 * cell.run->eval.accuracy),
                  TablePrinter::Num(cell.run->eval.bias, 4),
                  TablePrinter::Num(cell.run->eval.risk_auc, 4),
                  vanilla ? "-" : TablePrinter::Pct(cell.delta.d_acc),
                  vanilla ? "-" : TablePrinter::Pct(cell.delta.d_bias),
                  vanilla ? "-" : TablePrinter::Pct(cell.delta.d_risk),
                  vanilla ? "-" : TablePrinter::Num(cell.delta.combined, 3),
                  TablePrinter::Num(cell.seconds, 1)});
  }
  table.Print();

  if (result.failed_cells > 0 || result.resumed_cells > 0) {
    std::printf("\n%lld cell(s) resumed from the journal, %lld FAILED",
                static_cast<long long>(result.resumed_cells),
                static_cast<long long>(result.failed_cells));
    for (const runner::CellResult& cell : result.cells) {
      if (!cell.failed) continue;
      std::printf("\n  FAILED %s seed %llu: %s", cell.scenario.DisplayLabel().c_str(),
                  static_cast<unsigned long long>(cell.seed), cell.error.c_str());
    }
    std::printf("\n");
  }

  // Cross-seed mean ± stddev per logical cell (the numbers the paper's
  // tables actually report) whenever the sweep was seed-expanded.
  if (result.seeds.size() > 1) {
    std::printf("\naggregates over %zu seeds (mean +/- stddev):\n",
                result.seeds.size());
    TablePrinter agg_table(
        {"Dataset", "Model", "Cell", "Acc%", "+/-", "Bias", "+/-", "Risk AUC", "+/-"});
    for (const runner::CellAggregate& g : runner::AggregateCells(result)) {
      agg_table.AddRow(
          {data::DatasetName(g.scenario.dataset), nn::ModelKindName(g.scenario.model),
           g.scenario.DisplayLabel(),
           TablePrinter::Num(100.0 * g.metrics.at("accuracy").mean),
           TablePrinter::Num(100.0 * g.metrics.at("accuracy").stddev),
           TablePrinter::Num(g.metrics.at("bias").mean, 4),
           TablePrinter::Num(g.metrics.at("bias").stddev, 4),
           TablePrinter::Num(g.metrics.at("risk_auc").mean, 4),
           TablePrinter::Num(g.metrics.at("risk_auc").stddev, 4)});
    }
    agg_table.Print();
  }
  std::fputs(bench::RenderPaperTables(tables, result).c_str(), stdout);

  const runner::RunCache::Stats stats = cache.stats();
  std::printf(
      "\n%zu cells in %.1fs (%d runner threads) — vanilla trains %lld "
      "(+%lld from disk), stage hits: vanilla %lld, dp %lld, pp %lld, "
      "fr %lld, cell %lld, disk loads %lld\n",
      result.cells.size(), result.wall_seconds, result.threads,
      static_cast<long long>(stats.vanilla.misses - stats.vanilla.disk_hits),
      static_cast<long long>(stats.vanilla.disk_hits),
      static_cast<long long>(stats.vanilla.hits),
      static_cast<long long>(stats.dp_context.hits),
      static_cast<long long>(stats.pp_context.hits),
      static_cast<long long>(stats.fr.hits),
      static_cast<long long>(stats.cell.hits),
      static_cast<long long>(stats.vanilla.disk_hits + stats.dp_context.disk_hits +
                             stats.pp_context.disk_hits + stats.fr.disk_hits +
                             stats.cell.disk_hits));

  bench::MaybeRunCacheGc(flags, cache);

  if (result.interrupted) {
    std::printf("sweep interrupted: %lld cell(s) skipped — resume with the "
                "same journal to finish\n",
                static_cast<long long>(result.skipped_cells));
    return bench::kExitInterrupted;
  }
  return 0;
}
