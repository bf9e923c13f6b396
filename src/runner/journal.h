#ifndef PPFR_RUNNER_JOURNAL_H_
#define PPFR_RUNNER_JOURNAL_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/metrics.h"

namespace ppfr::runner {

// Everything the runner needs to reconstruct a finished cell's CellResult
// without recomputing it: full eval scorecards (bitwise, via the
// common/serialize double round trip), deltas, bench extras and the failure
// bookkeeping. Keyed by RunCache::CellKey of the resolved scenario — the
// same content hash the stage cache uses, so a journal record can only ever
// replay onto the exact cell configuration that produced it.
struct JournalRecord {
  uint64_t cell_key = 0;
  uint64_t seed = 0;      // resolved method seed of the instance
  bool failed = false;
  int32_t retries = 0;
  bool cache_hit = false;
  std::string error;      // empty unless failed
  core::EvalResult eval;
  core::EvalResult vanilla_eval;
  core::DeltaMetrics delta;
  std::map<std::string, double> extra;
};

// Append-only sweep journal: one checksummed, length-framed record per
// completed (or failed) cell, so a SIGKILL'd sweep rerun with --resume
// replays the finished cells from disk and only recomputes the rest —
// combined with the disk run cache this reproduces the interrupted sweep's
// stable artifact bitwise.
//
// File contract (shares the framing philosophy of runner::CacheStore — all
// failure modes recover, never crash):
//  * The file is a sequence of frames [u32 body_len][u64 fnv1a(body)][body].
//    Frame 0's body is the header: journal magic, format version, the
//    CacheStore fingerprint (serialization version + backend kind —
//    results are only bitwise comparable within one fingerprint),
//    the sweep name and the env seed. Every later body is one JournalRecord.
//  * Appends write a complete frame and flush. A crash mid-append leaves a
//    torn tail frame; replay parses the longest valid prefix, drops the
//    tail, and the constructor truncates the file back to that prefix (via
//    the atomic-write idiom) before appending resumes.
//  * A journal whose header is unreadable or belongs to a different
//    (version, fingerprint, sweep, env_seed) identity replays NOTHING — it
//    is overwritten with a fresh header, and the sweep recomputes (the
//    CacheStore corrupt-entry discipline, applied to the journal).
//  * Duplicate keys replay last-wins, so a record appended by a resumed run
//    supersedes the crashed run's earlier record for the same cell.
//  * A journal that was REQUESTED but cannot be created/written at open
//    dies loudly (like an uncreatable --run_cache_dir): silently running
//    unjournaled would forfeit exactly the crash-safety that was asked for.
//    Append failures after open only warn — a full disk must not kill a
//    sweep that can still finish.
// Read-only replay of a journal file for the (sweep_name, env_seed)
// identity. Unlike constructing a SweepJournal, this never rewrites or
// truncates the file — it is what `--merge` uses to read SHARD journals it
// does not own (a merge must never mutate a shard's crash-recovery state; the
// shard may still be running or about to resume). header_ok=false covers
// both "no such file" and "foreign identity" — the caller treats either as
// the whole journal missing. The fault::kJournalReplay site fires per record
// and truncates the replay at that record (it and everything after it read
// as never-finished), modelling a record that fails validation in the field.
struct JournalReplay {
  bool header_ok = false;  // file exists and the header matches the identity
  bool torn = false;       // a torn/corrupt/fault-truncated tail was dropped
  std::unordered_map<uint64_t, JournalRecord> records;
};
JournalReplay ReplayJournalFile(const std::string& path,
                                const std::string& sweep_name,
                                uint64_t env_seed);

// Bitwise equivalence under the canonical record serialization (doubles
// compare by bit pattern, so 0.0 != -0.0 and NaN == NaN exactly like the
// artifact bytes would). This is how the merge decides whether two shards'
// records for the same cell key agree or conflict.
bool RecordsEquivalent(const JournalRecord& a, const JournalRecord& b);

class SweepJournal {
 public:
  // Opens `path` for the (sweep_name, env_seed) identity. resume=false
  // starts a fresh journal (truncating any previous file); resume=true
  // replays existing valid records first (see class contract).
  SweepJournal(std::string path, std::string sweep_name, uint64_t env_seed,
               bool resume);

  // Valid replayed records by cell key (empty unless resume found a matching
  // journal). Immutable after construction.
  const std::unordered_map<uint64_t, JournalRecord>& replayed() const {
    return replayed_;
  }

  // Appends one record frame; thread-safe (concurrent scheduler workers
  // journal their cells as they finish). The fault::kJournalAppend site
  // drops the record (the cell is recomputed on the next resume), modelling
  // a crash between cell completion and the journal write.
  void Append(const JournalRecord& record);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::string sweep_name_;
  uint64_t env_seed_;
  std::mutex mu_;
  std::unordered_map<uint64_t, JournalRecord> replayed_;
};

}  // namespace ppfr::runner

#endif  // PPFR_RUNNER_JOURNAL_H_
