#ifndef PPFR_BENCH_BENCH_UTIL_H_
#define PPFR_BENCH_BENCH_UTIL_H_

// Shared scaffolding for the bench binaries: strict flag handling, the
// exit-code contract, output-path preflight, fleet sharding and the sweep
// artifact writer. bench_runner drives every registered sweep through the
// scenario runner (src/runner/); the paper tables it prints on top live in
// paper_tables.h.

#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/serialize.h"
#include "core/experiment.h"
#include "core/methods.h"
#include "la/backend.h"
#include "runner/runner.h"
#include "runner/shard_merge.h"

namespace ppfr::bench {

// Exit-code contract of the runner-driven binaries. 0 = clean completion
// (including a COMPLETE merge); 2 = usage error (the long-standing repo
// convention); the fleet codes are distinct so a driver script can tell
// "re-run the missing shard and merge again" from "a signal stopped this
// shard, resume it" without parsing output.
inline constexpr int kExitUsage = 2;
inline constexpr int kExitDegradedMerge = 3;  // merge wrote a partial artifact
inline constexpr int kExitInterrupted = 4;    // SIGTERM/SIGINT stopped the sweep

// Directory for the disk-persisted run cache: --run_cache_dir= beats the
// PPFR_RUN_CACHE_DIR environment variable; absent (the default) keeps the
// cache in-memory only. A bare `--run_cache_dir` (which Flags stores as
// "true") or an empty value is a malformed request for caching, not a
// request for a directory named "true" — die naming the flag.
inline std::string RunCacheDir(const Flags& flags) {
  if (flags.Has("run_cache_dir")) {
    const std::string dir = flags.GetString("run_cache_dir", "");
    if (dir.empty() || dir == "true") {
      std::fprintf(stderr,
                   "--run_cache_dir wants a directory path "
                   "(e.g. --run_cache_dir=.ppfr-cache)\n");
      std::exit(2);
    }
    return dir;
  }
  const char* env = std::getenv("PPFR_RUN_CACHE_DIR");
  return env == nullptr ? std::string{} : std::string(env);
}

// Rejects flags outside `known` with a usage listing and exits — a typo
// like --epoch=10 must fail loudly, never silently run the defaults.
inline void RejectUnknownFlags(const Flags& flags,
                               const std::vector<std::string>& known) {
  const std::vector<std::string> unknown = flags.UnknownFlags(known);
  if (unknown.empty()) return;
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
  }
  std::fprintf(stderr, "known flags:");
  for (const std::string& name : known) std::fprintf(stderr, " --%s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

// Parsed --shard=i/N + --shard_dir=DIR (bench_runner only). count == 1 means
// unsharded. A sharded run's journal is ALWAYS the canonical
// DIR/shard-<i>of<N>.journal — an explicit --journal is rejected, because
// the merge discovers shards purely by that naming contract and a renamed
// journal would silently drop its shard from every future merge.
struct ShardSpec {
  int index = 0;
  int count = 1;
  std::string dir;
};

inline ShardSpec ShardFromFlags(const Flags& flags) {
  ShardSpec spec;
  if (!flags.Has("shard")) {
    if (flags.Has("shard_dir")) {
      std::fprintf(stderr, "--shard_dir only makes sense with --shard=i/N\n");
      std::exit(kExitUsage);
    }
    return spec;
  }
  const std::string raw = flags.GetString("shard", "");
  char tail = '\0';
  if (std::sscanf(raw.c_str(), "%d/%d%c", &spec.index, &spec.count, &tail) != 2 ||
      spec.count < 1 || spec.index < 0 || spec.index >= spec.count) {
    std::fprintf(stderr,
                 "--shard wants i/N with 0 <= i < N (e.g. --shard=0/3), got "
                 "'%s'\n",
                 raw.c_str());
    std::exit(kExitUsage);
  }
  spec.dir = flags.GetString("shard_dir", "");
  if (spec.dir.empty() || spec.dir == "true") {
    std::fprintf(stderr,
                 "--shard=i/N needs --shard_dir=DIR (where the shard journals "
                 "and per-shard artifacts live)\n");
    std::exit(kExitUsage);
  }
  if (flags.Has("journal")) {
    std::fprintf(stderr,
                 "--journal cannot be combined with --shard: a shard's journal "
                 "is always <shard_dir>/%s so --merge can discover it\n",
                 runner::ShardJournalFilename(spec.index, spec.count).c_str());
    std::exit(kExitUsage);
  }
  return spec;
}

// Installs SIGTERM/SIGINT handlers for a graceful sweep stop and returns the
// flag to hand to RunnerOptions::stop: the first signal sets the flag (cells
// not yet started are skipped, in-flight cells finish and journal, the
// binary writes an `interrupted:true` artifact and exits kExitInterrupted);
// SA_RESETHAND restores the default disposition, so a SECOND signal kills
// the process immediately — an operator double-Ctrl-C must never be argued
// with. Async-signal-safe: the handler only stores to a lock-free atomic.
inline const std::atomic<bool>* InstallGracefulStop() {
  static std::atomic<bool> stop{false};
  static_assert(std::atomic<bool>::is_always_lock_free);
  struct sigaction action = {};
  action.sa_handler = [](int) { stop.store(true, std::memory_order_relaxed); };
  action.sa_flags = SA_RESETHAND;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  return &stop;
}

inline runner::RunnerOptions RunnerOptionsFromFlags(const Flags& flags) {
  runner::RunnerOptions opts;
  opts.threads = flags.GetInt("runner_threads", 1);
  opts.env_seed = flags.GetUint64("env_seed", core::kDefaultEnvSeed);
  opts.max_cell_retries = flags.GetInt("cell_retries", opts.max_cell_retries);
  // --journal/--resume work for every sweep, paper tables included: they
  // read only journaled evals, and table2 takes its models from the cache.
  if (flags.Has("journal")) {
    const std::string path = flags.GetString("journal", "");
    if (path.empty() || path == "true") {
      std::fprintf(stderr,
                   "--journal wants a file path "
                   "(e.g. --journal=sweep.journal)\n");
      std::exit(2);
    }
    opts.journal_path = path;
  }
  opts.resume = flags.GetBool("resume", false);
  // A sharded run's journal path is derived from --shard_dir AFTER this
  // parse (see ShardFromFlags), so --resume is valid there too.
  if (opts.resume && opts.journal_path.empty() && !flags.Has("shard")) {
    std::fprintf(stderr,
                 "--resume needs --journal=<path> (or --shard=i/N "
                 "--shard_dir=DIR) to replay from\n");
    std::exit(kExitUsage);
  }
  return opts;
}

// Fails fast, BEFORE any training runs, if an output location the run will
// eventually write to is not writable: --json_dir (artifact) and the
// --journal parent directory. Probes by creating the directory and atomically
// writing + removing a scratch file — the same code path the real writes
// take. A sweep that trains for an hour and then dies on its artifact write
// is the failure mode this removes.
inline void PreflightOutputPaths(const Flags& flags) {
  const auto probe_dir = [](const std::string& dir, const char* what) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // ok if it already exists
    const std::string probe =
        (std::filesystem::path(dir) / ".ppfr_preflight").string();
    std::string error;
    if (!WriteFileAtomic(probe, "probe", &error)) {
      std::fprintf(stderr, "%s '%s' is not writable: %s\n", what, dir.c_str(),
                   error.c_str());
      std::exit(2);
    }
    std::remove(probe.c_str());
  };
  probe_dir(flags.GetString("json_dir", "."), "--json_dir");
  if (flags.Has("journal")) {
    const std::filesystem::path parent =
        std::filesystem::path(flags.GetString("journal", "")).parent_path();
    probe_dir(parent.empty() ? "." : parent.string(), "--journal directory");
  }
  // The shard dir receives this shard's journal AND its per-shard artifact;
  // the merge dir must at least exist before we bother resolving the sweep.
  if (flags.Has("shard_dir")) {
    const std::string dir = flags.GetString("shard_dir", "");
    if (!dir.empty() && dir != "true") probe_dir(dir, "--shard_dir");
  }
  if (flags.Has("merge")) {
    const std::string dir = flags.GetString("merge", "");
    std::error_code ec;
    if (!dir.empty() && dir != "true" && !std::filesystem::is_directory(dir, ec)) {
      std::fprintf(stderr, "--merge directory '%s' does not exist\n", dir.c_str());
      std::exit(kExitUsage);
    }
  }
  // A GC request writes the cache index file into the cache dir at sweep
  // end; an unwritable index must die NOW, not after the training finished.
  if (flags.Has("cache_gc_bytes") || flags.Has("cache_gc_age_s")) {
    const std::string cache_dir = RunCacheDir(flags);
    if (cache_dir.empty()) {
      std::fprintf(stderr,
                   "--cache_gc_bytes/--cache_gc_age_s need --run_cache_dir "
                   "(there is no disk cache to collect)\n");
      std::exit(kExitUsage);
    }
    probe_dir(cache_dir, "--run_cache_dir (cache GC index)");
  }
}

// Writes the sweep artifact into --json_dir (default "."), honouring
// --stable_artifact (zeroes the run-varying fields — timings, cache
// counters — so repeated runs with identical results produce identical
// files). Every bench that writes an artifact must come through here so the
// flag is never silently ignored.
inline std::string EmitArtifact(const Flags& flags,
                                const runner::SweepResult& result,
                                const std::string& filename_suffix = "") {
  runner::ArtifactOptions artifact;
  artifact.stable = flags.GetBool("stable_artifact", false);
  artifact.filename_suffix = filename_suffix;
  const std::string path =
      runner::WriteArtifact(result, flags.GetString("json_dir", "."), artifact);
  std::printf("wrote %s\n", path.c_str());
  return path;
}

// Runs the size/age-bounded cache GC when --cache_gc_bytes / --cache_gc_age_s
// were given (after the sweep, so this run's own entries carry fresh access
// stamps and survive an LRU pass that evicts genuinely cold entries).
// Misuse (no disk cache configured) already died in PreflightOutputPaths.
inline void MaybeRunCacheGc(const Flags& flags, const runner::RunCache& cache) {
  if (!flags.Has("cache_gc_bytes") && !flags.Has("cache_gc_age_s")) return;
  runner::CacheStore::GcOptions gc;
  gc.max_bytes = static_cast<int64_t>(flags.GetUint64("cache_gc_bytes", 0));
  gc.max_age_seconds = static_cast<int64_t>(flags.GetUint64("cache_gc_age_s", 0));
  const runner::CacheStore::GcResult r = cache.store().GarbageCollect(gc);
  std::printf(
      "cache gc: %lld of %lld entries evicted (%lld of %lld bytes), "
      "%lld spared by live claims\n",
      static_cast<long long>(r.evicted_entries),
      static_cast<long long>(r.entries_before),
      static_cast<long long>(r.evicted_bytes),
      static_cast<long long>(r.bytes_before),
      static_cast<long long>(r.kept_claimed));
}

}  // namespace ppfr::bench

#endif  // PPFR_BENCH_BENCH_UTIL_H_
