#include "runner/cache_store.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/serialize.h"
#include "la/backend.h"

namespace ppfr::runner {
namespace {

// Bumped whenever any stage payload layout or this header layout changes, or
// when the values a stage computes change; old entries then read as plain
// misses and are rewritten.
// v2: FrOutput/MethodRun payloads gained the block-CG convergence counters.
// v3: influence gradients run over exact 2-hop blocks, so FR values (and the
//     cells trained on them) move in the last bits.
// v4: the FR QCLP is solved exactly through its dual, so FR weights (and the
//     DPFR/PPFR cells fine-tuned on them) change.
constexpr uint32_t kFormatVersion = 4;
constexpr uint64_t kMagic = 0x31435252524650ULL;  // "PFRRRC1" little-endian

constexpr const char* kIndexFile = "cache-index.txt";
constexpr int64_t kDefaultClaimStaleMs = 120000;

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string HexKey(uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(key));
  return buf;
}

int64_t NowUnixSeconds() { return static_cast<int64_t>(std::time(nullptr)); }

// mtime of `path` as unix seconds, or -1 when unreadable.
int64_t FileMtime(const std::string& path) {
  std::error_code ec;
  const auto t = std::filesystem::last_write_time(path, ec);
  if (ec) return -1;
  // file_clock → system_clock; C++17 has no clock_cast, so convert via the
  // now() offset (second-level precision is all the GC/staleness logic needs).
  const auto sys = std::chrono::time_point_cast<std::chrono::seconds>(
      t - std::filesystem::file_time_type::clock::now() +
      std::chrono::system_clock::now());
  return std::chrono::duration_cast<std::chrono::seconds>(sys.time_since_epoch())
      .count();
}

// True when `pid` provably no longer exists ON THIS MACHINE. kill(pid, 0)
// with EPERM means "exists but not ours" — treated as alive. A cache dir on
// shared storage sees pids from other machines; those fall back to the age
// bound, never the pid probe.
bool PidProvablyDead(long pid) {
  if (pid <= 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH;
}

}  // namespace

CacheStore::CacheStore(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  PPFR_CHECK(!ec && std::filesystem::is_directory(dir_))
      << "run cache dir '" << dir_ << "' cannot be created: " << ec.message();
}

std::string CacheStore::Fingerprint() {
  const la::Backend& backend = la::ActiveBackend();
  std::string fp = "v";
  fp += std::to_string(kFormatVersion);
  fp += "|backend=";
  fp += backend.name();
  fp += "|simd=";
  fp += backend.simd_active() ? "1" : "0";
  return fp;
}

std::string CacheStore::EntryPath(const char* stage, uint64_t key) const {
  return dir_ + "/" + stage + "-" + HexKey(key) + ".bin";
}

std::string CacheStore::ClaimPath(const char* stage, uint64_t key) const {
  return EntryPath(stage, key) + ".claim";
}

std::string CacheStore::IndexPath() const { return dir_ + "/" + kIndexFile; }

void CacheStore::Touch(const std::string& file) const {
  const int64_t now = NowUnixSeconds();
  std::lock_guard<std::mutex> lock(touch_mu_);
  touched_[file] = now;
}

bool CacheStore::Load(const char* stage, uint64_t key, std::string* payload) const {
  if (!enabled()) return false;
  const std::string path = EntryPath(stage, key);
  std::string bytes;
  if (!ReadFileToString(path, &bytes)) return false;  // absent: plain miss

  const auto corrupt = [&] {
    std::fprintf(stderr,
                 "run cache: deleting corrupt entry %s (recomputing stage)\n",
                 path.c_str());
    std::remove(path.c_str());
    return false;
  };

  BinaryReader r(bytes);
  const uint64_t magic = r.ReadU64();
  // A foreign magic means the file is not ours (another tool, or a future
  // format that re-keys the magic): a plain miss, never deleted — the next
  // Store overwrites it in place if this process recomputes the stage.
  if (magic != kMagic) return false;
  const uint32_t version = r.ReadU32();
  const std::string fingerprint = r.ReadString();
  const uint64_t stored_key = r.ReadU64();
  const uint64_t checksum = r.ReadU64();
  std::string body = r.ReadString();
  // A magic-matching entry that is truncated, has trailing junk or fails
  // its checksum is corruption: delete so the recompute rewrites it clean.
  if (!r.AtEnd() || Fnv1a(body) != checksum) return corrupt();
  // An intact entry from another format version, backend or fingerprint is a
  // plain miss — the next Store overwrites it.
  if (version != kFormatVersion || fingerprint != Fingerprint() ||
      stored_key != key) {
    return false;
  }
  *payload = std::move(body);
  Touch(std::string(stage) + "-" + HexKey(key) + ".bin");
  return true;
}

void CacheStore::Store(const char* stage, uint64_t key,
                       const std::string& payload) const {
  if (!enabled()) return;
  BinaryWriter w;
  w.WriteU64(kMagic);
  w.WriteU32(kFormatVersion);
  w.WriteString(Fingerprint());
  w.WriteU64(key);
  w.WriteU64(Fnv1a(payload));
  w.WriteString(payload);
  std::string error;
  if (!WriteFileAtomic(EntryPath(stage, key), w.data(), &error)) {
    // Persisting is an optimisation; a full disk must not kill the sweep.
    std::fprintf(stderr, "run cache: %s (entry not persisted)\n", error.c_str());
    return;
  }
  Touch(std::string(stage) + "-" + HexKey(key) + ".bin");
}

// ---- Claims ----------------------------------------------------------------

int64_t CacheStore::claim_stale_ms() {
  static const int64_t ms =
      EnvInt64OrDie("PPFR_CACHE_CLAIM_STALE_MS", kDefaultClaimStaleMs, 1,
                    std::numeric_limits<int64_t>::max());
  return ms;
}

bool CacheStore::TryClaim(const char* stage, uint64_t key) const {
  if (!enabled()) return true;
  if (fault::ShouldFail(fault::kCacheStoreClaim)) return false;
  const std::string path = ClaimPath(stage, key);
  // O_EXCL is the atom: exactly one process creates the file, even over NFS
  // v3+ (where O_EXCL create is honoured by modern servers).
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return false;
  std::ostringstream body;
  body << "pid=" << ::getpid() << "\nfingerprint=" << Fingerprint()
       << "\ncreated_unix=" << NowUnixSeconds() << "\n";
  const std::string s = body.str();
  // Short/failed writes leave an empty-ish claim; ProbeClaim treats a claim
  // without a parseable pid as live-until-stale, which is safe (bounded).
  (void)!::write(fd, s.data(), s.size());
  ::close(fd);
  return true;
}

void CacheStore::ReleaseClaim(const char* stage, uint64_t key) const {
  if (!enabled()) return;
  std::remove(ClaimPath(stage, key).c_str());
}

CacheStore::ClaimState CacheStore::ProbeClaim(const char* stage, uint64_t key,
                                              int64_t stale_ms) const {
  if (!enabled()) return ClaimState::kNone;
  const std::string path = ClaimPath(stage, key);
  std::string body;
  if (!ReadFileToString(path, &body)) return ClaimState::kNone;
  if (stale_ms <= 0) stale_ms = claim_stale_ms();

  // Dead-owner fast path: a pid line naming a provably-dead local process
  // makes the claim stale immediately (no need to wait out the age bound
  // after a SIGKILL'd shard).
  const size_t pid_at = body.find("pid=");
  if (pid_at != std::string::npos) {
    const long pid = std::strtol(body.c_str() + pid_at + 4, nullptr, 10);
    if (PidProvablyDead(pid)) return ClaimState::kStale;
  }

  const int64_t mtime = FileMtime(path);
  if (mtime < 0) return ClaimState::kNone;  // vanished between read and stat
  const int64_t age_ms = (NowUnixSeconds() - mtime) * 1000;
  return age_ms > stale_ms ? ClaimState::kStale : ClaimState::kHeld;
}

void CacheStore::BreakClaim(const char* stage, uint64_t key) const {
  if (!enabled()) return;
  std::fprintf(stderr, "run cache: breaking stale claim %s\n",
               ClaimPath(stage, key).c_str());
  std::remove(ClaimPath(stage, key).c_str());
}

// ---- Garbage collection -----------------------------------------------------

CacheStore::GcResult CacheStore::GarbageCollect(const GcOptions& options) const {
  GcResult result;
  if (!enabled()) return result;

  // Last-access map: persisted index, overridden by entry mtimes when newer
  // (another process may have touched entries since the index was written),
  // overridden by this process's in-memory touches.
  std::unordered_map<std::string, int64_t> access;
  {
    std::string index;
    if (ReadFileToString(IndexPath(), &index)) {
      std::istringstream lines(index);
      std::string file;
      int64_t when = 0;
      // Malformed lines (hand-edited, torn) just drop out of the map; the
      // entry then falls back to its mtime below.
      while (lines >> file >> when) access[file] = when;
    }
  }

  struct Entry {
    std::string file;  // basename
    int64_t bytes = 0;
    int64_t last_access = 0;
    bool claimed = false;
  };
  std::vector<Entry> entries;
  std::error_code ec;
  for (const auto& it : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string file = it.path().filename().string();
    if (file.size() < 4 || file.compare(file.size() - 4, 4, ".bin") != 0) {
      continue;  // claim files, the index, temp files, foreign junk
    }
    Entry e;
    e.file = file;
    e.bytes = static_cast<int64_t>(std::filesystem::file_size(it.path(), ec));
    if (ec) continue;  // raced a delete
    const int64_t mtime = FileMtime(it.path().string());
    auto indexed = access.find(file);
    e.last_access = std::max(mtime, indexed == access.end() ? int64_t{0}
                                                            : indexed->second);
    std::error_code claim_ec;
    e.claimed = std::filesystem::exists(it.path().string() + ".claim", claim_ec);
    entries.push_back(std::move(e));
  }
  {
    std::lock_guard<std::mutex> lock(touch_mu_);
    for (auto& e : entries) {
      auto t = touched_.find(e.file);
      if (t != touched_.end()) e.last_access = std::max(e.last_access, t->second);
    }
  }

  result.entries_before = static_cast<int64_t>(entries.size());
  for (const auto& e : entries) result.bytes_before += e.bytes;

  // Oldest-first so the LRU evicts from the front.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.last_access != b.last_access ? a.last_access < b.last_access
                                          : a.file < b.file;
  });

  const int64_t now = NowUnixSeconds();
  int64_t live_bytes = result.bytes_before;
  std::vector<Entry> kept;
  for (const auto& e : entries) {
    const bool over_budget = options.max_bytes > 0 && live_bytes > options.max_bytes;
    const bool expired = options.max_age_seconds > 0 &&
                         now - e.last_access > options.max_age_seconds;
    if (!over_budget && !expired) {
      kept.push_back(e);
      continue;
    }
    if (e.claimed) {
      // A claimant is mid-compute on this entry; evicting under it would
      // waste the work it is about to persist (or already reads).
      ++result.kept_claimed;
      kept.push_back(e);
      continue;
    }
    std::remove((dir_ + "/" + e.file).c_str());
    ++result.evicted_entries;
    result.evicted_bytes += e.bytes;
    live_bytes -= e.bytes;
  }

  // Rewrite the index for the surviving entries (atomic; a torn index only
  // costs access precision, never correctness).
  std::ostringstream index;
  for (const auto& e : kept) index << e.file << " " << e.last_access << "\n";
  std::string error;
  if (!WriteFileAtomic(IndexPath(), index.str(), &error)) {
    std::fprintf(stderr, "run cache: %s (gc index not persisted)\n", error.c_str());
  }
  return result;
}

}  // namespace ppfr::runner
