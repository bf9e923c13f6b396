#ifndef PPFR_RUNNER_CACHE_STORE_H_
#define PPFR_RUNNER_CACHE_STORE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ppfr::runner {

// Disk layer under RunCache: one file per (stage, key) holding a versioned,
// checksummed binary payload, so repeated bench invocations across processes
// share trained models, DP/PP contexts and FR solves instead of recomputing
// them. The keys are RunCache's process-stable FNV content hashes, which is
// what makes cross-process sharing sound in the first place.
//
// File contract (all failure modes recover, never crash):
//  * Writes are atomic: payload goes to a unique temp file that is flushed,
//    checked and rename(2)d into place — a concurrent reader sees either
//    the old entry or the complete new one, never a torn file.
//  * Every entry carries a magic/format-version header, the producing
//    build's fingerprint (serialization version + active la::Backend kind —
//    backends are bitwise-deterministic internally but NOT
//    bitwise-equal to each other, so mixing them through one cache would
//    silently break the "identical to a cold run" guarantee), the entry's
//    own key, and an FNV-1a checksum of the payload.
//  * A missing file is a miss. A file with a foreign magic is not ours and
//    is left alone (plain miss; a recompute's Store overwrites it), as is a
//    structurally-intact entry with a different format version, fingerprint
//    or key. A magic-matching file that is truncated or checksum-failing is
//    CORRUPT: it is deleted before reporting the miss so a crashed writer
//    or bit rot can never wedge a key permanently.
//
// Multi-process contention contract (the sharded-fleet hardening):
//  * A compute slot is claimed through an O_CREAT|O_EXCL claim file
//    (`<entry>.claim` holding pid + fingerprint + wall time). Exactly one
//    process wins the create; the rest poll for the entry to appear under
//    bounded backoff instead of recomputing — two shards sharing a cache dir
//    never double-train one vanilla stage.
//  * A claim whose owner pid is dead (same machine) or whose file is older
//    than the staleness bound is STALE: a waiting process breaks it
//    (unlink) and re-contends for the O_EXCL create. The unlink-based
//    takeover has a benign race — in the worst interleaving two processes
//    compute the same deterministic entry and the atomic Store makes the
//    last rename win — it can waste work, never corrupt the cache.
//  * A claim is always released through the RAII ClaimGuard, including on a
//    RecoverableError unwinding out of the compute, so a failed compute
//    never wedges a key behind a claim until the staleness bound.
class CacheStore {
 public:
  // Empty dir = disabled (every Load misses, Store is a no-op). A non-empty
  // dir is created (recursively) on first use; an uncreatable dir dies
  // loudly — a requested-but-unusable cache must not silently degrade to
  // retraining everything.
  explicit CacheStore(std::string dir);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  // Reads the payload stored under (stage, key). False on miss; corrupt
  // entries are deleted first (see class contract). Hits refresh the entry's
  // last-access stamp in the in-memory index (flushed by GarbageCollect).
  bool Load(const char* stage, uint64_t key, std::string* payload) const;

  // Persists the payload under (stage, key) atomically. Write failures (disk
  // full, permissions) warn on stderr and leave the cache entry absent; the
  // in-memory result is unaffected.
  void Store(const char* stage, uint64_t key, const std::string& payload) const;

  // ---- Cross-process claims -----------------------------------------------

  enum class ClaimState {
    kNone,   // no claim file
    kHeld,   // live claim (young enough, owner not provably dead)
    kStale,  // dead owner pid or older than the staleness bound
  };

  // Attempts to create the claim file for (stage, key) with O_EXCL. True =
  // this process now owns the compute slot and must ReleaseClaim (use
  // ClaimGuard). Always true when the store is disabled (no cross-process
  // concern). The fault::kCacheStoreClaim site models a spuriously failing
  // create (e.g. NFS close-to-open races): the caller re-enters its poll
  // loop and re-contends.
  bool TryClaim(const char* stage, uint64_t key) const;

  // Unlinks the claim file. Idempotent.
  void ReleaseClaim(const char* stage, uint64_t key) const;

  // Classifies the current claim file (see ClaimState). stale_ms bounds the
  // age of a live claim; <= 0 uses claim_stale_ms().
  ClaimState ProbeClaim(const char* stage, uint64_t key, int64_t stale_ms = 0) const;

  // Unlinks a stale claim so the breaker (and everyone else) can re-contend
  // the O_EXCL create. See the takeover race note in the class contract.
  void BreakClaim(const char* stage, uint64_t key) const;

  // RAII ownership of a claim slot; releases on destruction.
  class ClaimGuard {
   public:
    ClaimGuard(const CacheStore* store, const char* stage, uint64_t key)
        : store_(store), stage_(stage), key_(key) {}
    ~ClaimGuard() { store_->ReleaseClaim(stage_, key_); }
    ClaimGuard(const ClaimGuard&) = delete;
    ClaimGuard& operator=(const ClaimGuard&) = delete;

   private:
    const CacheStore* store_;
    const char* stage_;
    uint64_t key_;
  };

  // The staleness bound for claim takeover, resolved once per process:
  // PPFR_CACHE_CLAIM_STALE_MS (strictly parsed, > 0) or the 120 s default.
  // Must exceed the longest single stage compute, or a slow trainer gets
  // "taken over" and the stage computes twice (still correct, just wasted).
  static int64_t claim_stale_ms();

  // ---- Size/age-bounded garbage collection --------------------------------

  struct GcOptions {
    int64_t max_bytes = 0;        // total entry bytes to keep; 0 = unbounded
    int64_t max_age_seconds = 0;  // evict entries idle longer; 0 = unbounded
  };
  struct GcResult {
    int64_t entries_before = 0;
    int64_t bytes_before = 0;
    int64_t evicted_entries = 0;
    int64_t evicted_bytes = 0;
    int64_t kept_claimed = 0;  // eviction candidates spared by a live claim
  };

  // Evicts least-recently-used entries until the directory fits the bounds.
  // Last-access times come from the persisted index file (updated from this
  // process's Load/Store traffic and each entry's mtime, whichever is
  // newer); the refreshed index is rewritten atomically afterwards. Entries
  // with ANY claim file present are never evicted — a claimant is about to
  // rewrite them. Claim files themselves are not entries and are left alone.
  // No-op (all zeros) when the store is disabled.
  GcResult GarbageCollect(const GcOptions& options) const;

  // The GC index: "<file> <last_access_unix>" lines under dir(). Exposed so
  // the preflight can probe its writability before a sweep trains.
  std::string IndexPath() const;

  // "<serialize version>|backend=<kind>" of the calling process.
  static std::string Fingerprint();

  // Path of the entry file for (stage, key) — exposed for the corruption
  // tests.
  std::string EntryPath(const char* stage, uint64_t key) const;
  // Path of the claim file for (stage, key).
  std::string ClaimPath(const char* stage, uint64_t key) const;

 private:
  // Records a Load/Store touch of `file` (basename) for the GC index.
  void Touch(const std::string& file) const;

  std::string dir_;
  // Last-access stamps observed by THIS process, merged into the index file
  // at GarbageCollect time. Guarded: Load/Store run on scheduler workers.
  mutable std::mutex touch_mu_;
  mutable std::unordered_map<std::string, int64_t> touched_;
};

}  // namespace ppfr::runner

#endif  // PPFR_RUNNER_CACHE_STORE_H_
