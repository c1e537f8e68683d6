// ModelStore: a sharded, capacity-bounded registry of per-individual
// forecaster snapshots (DESIGN.md, "Model store & scheduler").
//
// The paper trains one model per individual; at millions of tenants the
// per-model memory cost is irreducible (MTGNN-style per-graph weights), so
// residency itself must be managed. Open() only lists the snapshot
// directory — nothing is loaded until the first Get() for an id, which
// cold-loads through the model registry (snapshot v3, embedded
// config), puts the model in eval mode once, and pins it with a
// refcounted ModelHandle. When a configurable budget is exceeded
// (`max_resident_models` models and/or `max_resident_bytes` bytes, a
// resident model being charged its actual in-memory parameter bytes), the
// least-recently-used *idle* model is evicted; a pinned model is never
// evicted, and a handle additionally co-owns the model storage, so even a
// buggy eviction could not free memory in use. Get() returns
// kResourceExhausted only when the budget is exceeded and nothing is
// evictable (every resident model pinned), or — before evicting anything
// — when the model's estimate alone exceeds `max_resident_bytes`.
//
// Determinism: a reloaded model is rebuilt from the same snapshot bytes
// (bit-exact config round-trip + raw-double weights), so its forecasts are
// bitwise identical to a never-evicted instance — any eviction/reload
// schedule serves the same bytes.
//
// Concurrency: entries are sharded by id hash over 8 shards; each shard
// has one mutex and an index of its entries that hold a model. Eviction
// scans only those indexes, one shard at a time, so a cold Get costs
// O(resident models), not O(known tenants). No path ever holds two locks,
// and disk loads run outside any lock — concurrent Get()s of one id
// coalesce on a per-shard condition variable (single-flight), concurrent
// Get()s of different ids on different shards never contend. Pin release
// is a lock-free atomic decrement.
//
// Hot swap (DESIGN.md, "Online ingestion & hot-swap"): Publish(id, path)
// atomically retargets a tenant to a new snapshot file. Requests already
// pinned on the old residency finish on it (their handles co-own the old
// model), the next Get cold-loads the new file, and the store's reference
// to the stale copy — including its PlanCache, in the same critical
// section as the eviction path — is dropped at publish time, so no
// request is ever dropped or served a mix of versions. Publish is the one
// way to retarget a tenant: Publish(id, *snapshot_path(id)) re-reads a
// snapshot rewritten in place, and an id the store does not know yet is
// added.
//
// Instrumentation: serve.store.resident_models / resident_bytes (gauges),
// serve.store.cold_loads_total / evictions_total / load_failures_total /
// exhausted_total / swaps_total (counters),
// serve.store.hit_rate / published_version (gauges), and the cold/warm
// latency split as serve.store.cold_load_seconds / warm_acquire_seconds
// histograms. Fault sites: serve.store.load/<id> fails one cold load
// (other tenants unaffected); serve.store.evict/<id> makes one victim
// non-evictable for that eviction pass.

#ifndef EMAF_SERVE_MODEL_STORE_H_
#define EMAF_SERVE_MODEL_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "models/forecaster.h"

namespace emaf::plan {
class PlanCache;
}  // namespace emaf::plan

namespace emaf::serve {

// Snapshot filename extension: the stem of `<id>.snapshot` is the
// individual id ("i07.snapshot" serves individual "i07"). Shared with
// online::SnapshotPublisher, which writes `<id>.v<N>.snapshot`.
inline constexpr char kSnapshotExtension[] = ".snapshot";

struct ModelStoreOptions {
  // Residency budget. <= 0 means unlimited. A Get() that would exceed a
  // budget evicts LRU idle models first and fails with kResourceExhausted
  // only when nothing is evictable.
  int64_t max_resident_models = 0;
  // Byte budget: a resident model is charged the in-memory bytes of its
  // parameter tensors once loaded. Admission of a first-time load uses
  // the snapshot file size as the estimate; reloads know the exact size.
  // <= 0 = unlimited.
  int64_t max_resident_bytes = 0;
};

namespace internal {
struct StoreEntry;
}  // namespace internal

// A pinned, resident model. While any handle to an entry is alive the
// model cannot be evicted; the handle also co-owns the model object, so it
// stays valid even across (hypothetical) eviction. Release is lock-free
// and refreshes the entry's LRU recency.
class ModelHandle {
 public:
  ModelHandle() = default;
  ModelHandle(ModelHandle&& other) noexcept;
  ModelHandle& operator=(ModelHandle&& other) noexcept;
  ModelHandle(const ModelHandle&) = delete;
  ModelHandle& operator=(const ModelHandle&) = delete;
  ~ModelHandle();

  explicit operator bool() const { return model_ != nullptr; }
  // The pinned model, in eval mode; callers must not mutate it.
  models::Forecaster* get() const { return model_.get(); }
  models::Forecaster* operator->() const { return model_.get(); }
  const std::string& id() const;
  // The compiled-plan cache living with this residency of the model. The
  // handle co-owns it like the model, so a plan being executed survives
  // (hypothetical) eviction; a reloaded model gets a fresh empty cache,
  // so a stale plan can never serve new weights.
  plan::PlanCache* plans() const { return plans_.get(); }

 private:
  friend class ModelStore;
  ModelHandle(std::shared_ptr<internal::StoreEntry> entry,
              std::shared_ptr<models::Forecaster> model,
              std::shared_ptr<plan::PlanCache> plans);
  void Release();

  std::shared_ptr<internal::StoreEntry> entry_;
  std::shared_ptr<models::Forecaster> model_;
  std::shared_ptr<plan::PlanCache> plans_;
};

// When this file exists inside the snapshot directory, Open() reads it
// instead of listing the directory. Each non-comment line is
// `<id>\t<relative snapshot path>`; many ids may alias one snapshot file,
// which is how the serving bench stands up 100k tenants from a handful of
// physical snapshots laid out in sharded subdirectories.
inline constexpr char kManifestFilename[] = "MANIFEST";

// The one MANIFEST reader and writer, shared by ModelStore and
// online::SnapshotPublisher so both agree on what a directory holds.
//
// Reads `dir/MANIFEST` into (id, relative path) pairs in file order; '#'
// comments and blank lines are skipped. kNotFound when the file does not
// exist; kInvalidArgument naming the line for a malformed line, a
// duplicate id, or a snapshot file that does not exist.
Result<std::vector<std::pair<std::string, std::string>>> ReadManifest(
    const std::string& dir);
// Replaces `dir/MANIFEST` with one line per (id, relative path) entry,
// under a comment header, via a tmp file and rename so readers never see
// a partial file.
Status WriteManifest(const std::string& dir,
                     const std::map<std::string, std::string>& entries);

// The one versioned-filename parser: `<id>.v<N>.snapshot` with N >= 1
// -> (id, N), the names online::SnapshotPublisher writes. nullopt for any
// other name — `a.v2.b.snapshot` is the plain tenant `a.v2.b`.
std::optional<std::pair<std::string, uint64_t>> ParseVersionedName(
    std::string_view filename);

class ModelStore {
 public:
  // Lists every `<id>.snapshot` file in `snapshot_dir` (sorted by id)
  // without loading any of them; versioned publisher files (see
  // ParseVersionedName) are versions of an id, not tenants, and are
  // skipped. Fails with kNotFound when the directory is missing or holds
  // no snapshots. The id set is fixed at Open time.
  //
  // If `snapshot_dir/MANIFEST` exists it is authoritative instead, with
  // ReadManifest's errors.
  static Result<ModelStore> Open(const std::string& snapshot_dir,
                                 const ModelStoreOptions& options = {});

  ModelStore(ModelStore&&) noexcept;
  ModelStore& operator=(ModelStore&&) noexcept;
  ~ModelStore();

  // Ids known on disk (not necessarily resident), sorted.
  int64_t num_known_models() const;
  std::vector<std::string> individual_ids() const;
  // True when `id` is currently loaded in memory.
  bool resident(const std::string& id) const;

  // The pinned model for `id`, cold-loading it on first use.
  //   kNotFound          — no snapshot for `id` in the directory;
  //   kResourceExhausted — budget exceeded and every resident model is
  //                        pinned (nothing evictable), or the model alone
  //                        is larger than max_resident_bytes (nothing is
  //                        evicted for it);
  //   kUnavailable       — fault site serve.store.load/<id> fired;
  //   kInvalidArgument   — snapshot malformed or of an unsupported format
  //                        version (the message names the file and the
  //                        version).
  Result<ModelHandle> Get(const std::string& id);

  // Evicts up to `max_to_evict` (< 0 = all) idle resident models in LRU
  // order; returns how many were evicted. Used by tests and by operators
  // to shed memory; Get() calls the same machinery on budget pressure.
  int64_t EvictIdle(int64_t max_to_evict = -1);

  // Hot-swaps `id` to the snapshot file at `path` (absolute or relative
  // to the working directory). Under the entry's shard lock the target
  // path is retargeted, the resident copy and its PlanCache are dropped
  // (in-flight handles keep the old model alive and finish on it), and
  // the stale resident-byte estimate is cleared so the swap cannot leak
  // accounting. A cold load already in flight for the old path installs
  // nothing (its request is still served the old bytes — never a mixed
  // version); the next Get() cold-loads `path`. An unknown `id` is
  // registered as a new tenant. `version` feeds the store's monotonic
  // published-version watermark; 0 derives it from a versioned filename
  // (ParseVersionedName) when present.
  //   kNotFound — `path` is not a readable file (the store is unchanged).
  Status Publish(const std::string& id, const std::string& path,
                 uint64_t version = 0);

  // Path of the snapshot file currently serving `id` (kNotFound for an
  // unknown id). The online fine-tune pipeline warm-starts from this.
  Result<std::string> snapshot_path(const std::string& id) const;

  // Highest version ever Publish()ed into this store (0 = none). Surfaced
  // in health replies so clients can detect a completed swap.
  uint64_t max_published_version() const;

  struct Stats {
    uint64_t lookups = 0;        // Get() calls for known ids
    uint64_t warm_hits = 0;      // served without touching disk
    uint64_t cold_loads = 0;     // snapshot loads (first use or reload)
    uint64_t evictions = 0;      // models dropped by LRU or EvictIdle
    uint64_t load_failures = 0;  // cold loads that errored (incl. faults)
    uint64_t exhausted = 0;      // Get() rejections with kResourceExhausted
    uint64_t swaps = 0;          // Publish() calls that landed
    uint64_t max_published_version = 0;  // watermark (0 = nothing published)
    int64_t resident_models = 0;
    // In-memory parameter bytes of resident models, not the
    // snapshot-file-size proxy earlier revisions reported.
    int64_t resident_bytes = 0;
  };
  Stats stats() const;

 private:
  struct Impl;
  ModelStore();

  std::unique_ptr<Impl> impl_;
};

}  // namespace emaf::serve

#endif  // EMAF_SERVE_MODEL_STORE_H_
