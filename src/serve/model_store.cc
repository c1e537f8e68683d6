#include "serve/model_store.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "models/registry.h"
#include "plan/plan_cache.h"

namespace emaf::serve {

namespace internal {

struct StoreEntry {
  std::string id;
  // path, file_bytes and resident_bytes are rewritten by Publish, so
  // they are read and written under the owning shard's mutex only.
  std::string path;
  int64_t file_bytes = 0;
  // Actual in-memory parameter bytes of the loaded model. 0 until the
  // first cold load; kept across eviction — the same snapshot always
  // reloads to the same size, so reload admission uses the exact figure.
  int64_t resident_bytes = 0;
  size_t shard = 0;

  // Guarded by the owning shard's mutex. The plan cache is created with
  // the model at cold load and dropped with it at eviction, so plans
  // compiled against one residency's weights die with that residency.
  std::shared_ptr<models::Forecaster> model;
  std::shared_ptr<plan::PlanCache> plans;
  bool loading = false;
  // Bumped by Publish under the shard lock. A cold load captures the
  // value when it claims `loading` and installs nothing on mismatch: its
  // own request is still served the bytes it loaded, but a superseded
  // residency never enters the store — so post-swap Gets can only ever
  // see the new snapshot.
  uint64_t generation = 0;

  // Lock-free: pins are released and recency stamped without the shard
  // lock; eviction re-reads both under it.
  std::atomic<int64_t> pins{0};
  std::atomic<uint64_t> last_used{0};

  // Shared with the store's Impl so a handle outliving the store can
  // still stamp recency on release.
  std::shared_ptr<std::atomic<uint64_t>> tick;
};

}  // namespace internal

using internal::StoreEntry;

namespace {

// Lock shards for the entry maps.
constexpr size_t kNumShards = 8;
// Seed for model construction. Irrelevant to the forecasts — every weight
// is overwritten by the snapshot load — but fixed so the store itself is
// deterministic.
constexpr uint64_t kModelSeed = 0x5e59edULL;

}  // namespace

// --- ModelHandle -----------------------------------------------------------

ModelHandle::ModelHandle(std::shared_ptr<StoreEntry> entry,
                         std::shared_ptr<models::Forecaster> model,
                         std::shared_ptr<plan::PlanCache> plans)
    : entry_(std::move(entry)),
      model_(std::move(model)),
      plans_(std::move(plans)) {}

ModelHandle::ModelHandle(ModelHandle&& other) noexcept
    : entry_(std::move(other.entry_)),
      model_(std::move(other.model_)),
      plans_(std::move(other.plans_)) {
  other.entry_.reset();
  other.model_.reset();
  other.plans_.reset();
}

ModelHandle& ModelHandle::operator=(ModelHandle&& other) noexcept {
  if (this != &other) {
    Release();
    entry_ = std::move(other.entry_);
    model_ = std::move(other.model_);
    plans_ = std::move(other.plans_);
    other.entry_.reset();
    other.model_.reset();
    other.plans_.reset();
  }
  return *this;
}

ModelHandle::~ModelHandle() { Release(); }

void ModelHandle::Release() {
  if (entry_ == nullptr) return;
  // Recency reflects end-of-use, so a model released last is evicted last.
  entry_->last_used.store(
      entry_->tick->fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  entry_->pins.fetch_sub(1, std::memory_order_release);
  entry_.reset();
  model_.reset();
  plans_.reset();
}

const std::string& ModelHandle::id() const {
  EMAF_CHECK(entry_ != nullptr) << "id() on an empty ModelHandle";
  return entry_->id;
}

// --- ModelStore::Impl ------------------------------------------------------

struct ModelStore::Impl {
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::map<std::string, std::shared_ptr<StoreEntry>> entries;
    // The entries of `entries` that hold a model: an entry is in here
    // exactly while its `model` is set. Eviction scans only these, so its
    // cost follows the resident models, not every known tenant.
    std::unordered_set<std::shared_ptr<StoreEntry>> resident;
  };

  ModelStoreOptions options;
  // Sorted; guarded by ids_mu — Publish can register new tenants after
  // Open, so readers can no longer treat the vector as immutable.
  mutable std::mutex ids_mu;
  std::vector<std::string> ids;
  std::vector<std::unique_ptr<Shard>> shards;
  std::shared_ptr<std::atomic<uint64_t>> tick =
      std::make_shared<std::atomic<uint64_t>>(0);

  std::atomic<int64_t> resident_models{0};
  std::atomic<int64_t> resident_bytes{0};
  std::atomic<uint64_t> lookups{0};
  std::atomic<uint64_t> warm_hits{0};
  std::atomic<uint64_t> cold_loads{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> load_failures{0};
  std::atomic<uint64_t> exhausted{0};
  std::atomic<uint64_t> swaps{0};
  std::atomic<uint64_t> max_published{0};

  Shard& ShardFor(const std::string& id) {
    return *shards[std::hash<std::string>{}(id) % shards.size()];
  }

  uint64_t NextTick() {
    return tick->fetch_add(1, std::memory_order_relaxed) + 1;
  }

  bool OverBudget(int64_t extra_models, int64_t extra_bytes) const {
    if (options.max_resident_models > 0 &&
        resident_models.load(std::memory_order_relaxed) + extra_models >
            options.max_resident_models) {
      return true;
    }
    if (options.max_resident_bytes > 0 &&
        resident_bytes.load(std::memory_order_relaxed) + extra_bytes >
            options.max_resident_bytes) {
      return true;
    }
    return false;
  }

  // Drops the store's reference to `entry`'s model and plans and its
  // budget charge. Caller holds `shard.mu` and has checked `entry->model`.
  void DropResident(Shard& shard, const std::shared_ptr<StoreEntry>& entry) {
    entry->model.reset();
    entry->plans.reset();
    shard.resident.erase(entry);
    resident_models.fetch_sub(1, std::memory_order_relaxed);
    resident_bytes.fetch_sub(entry->resident_bytes, std::memory_order_relaxed);
  }

  // Evicts the globally least-recently-used idle resident model (ties
  // break toward the smaller id). Entries in `skip` are passed over —
  // that's how a fault-injected eviction failure is handled without
  // retrying the same victim forever. Returns false when nothing is
  // evictable.
  bool EvictLruIdle(std::set<std::string>* skip) {
    while (true) {
      // Phase 1: scan for a candidate, one shard lock at a time (no path
      // in the store ever holds two locks).
      std::shared_ptr<StoreEntry> victim;
      uint64_t victim_tick = 0;
      for (const std::unique_ptr<Shard>& shard : shards) {
        std::lock_guard<std::mutex> lock(shard->mu);
        for (const std::shared_ptr<StoreEntry>& entry : shard->resident) {
          if (entry->loading) continue;
          if (entry->pins.load(std::memory_order_acquire) != 0) continue;
          if (skip->count(entry->id) != 0) continue;
          uint64_t t = entry->last_used.load(std::memory_order_relaxed);
          if (victim == nullptr || t < victim_tick ||
              (t == victim_tick && entry->id < victim->id)) {
            victim = entry;
            victim_tick = t;
          }
        }
      }
      if (victim == nullptr) return false;
      // Phase 2: re-validate under the victim's shard lock; a concurrent
      // Get may have pinned or refreshed it since the scan.
      bool evicted = false;
      {
        Shard& shard = *shards[victim->shard];
        std::lock_guard<std::mutex> lock(shard.mu);
        if (victim->model == nullptr || victim->loading ||
            victim->pins.load(std::memory_order_acquire) != 0 ||
            victim->last_used.load(std::memory_order_relaxed) !=
                victim_tick) {
          continue;  // state moved under us; pick again
        }
        if (EMAF_FAULT_SHOULD_FAIL(StrCat("serve.store.evict/", victim->id))) {
          skip->insert(victim->id);
          continue;  // victim is non-evictable this pass
        }
        DropResident(shard, victim);
        evicted = true;
      }
      if (evicted) {
        evictions.fetch_add(1, std::memory_order_relaxed);
        EMAF_METRIC_COUNTER_ADD("serve.store.evictions_total", 1);
        UpdateGauges();
        return true;
      }
    }
  }

  Status Exhausted(std::string message) {
    exhausted.fetch_add(1, std::memory_order_relaxed);
    EMAF_METRIC_COUNTER_ADD("serve.store.exhausted_total", 1);
    return Status::ResourceExhausted(std::move(message));
  }

  // Makes room for one more resident model of `extra_bytes`, evicting LRU
  // idle models as needed. kResourceExhausted when over budget with
  // nothing evictable, and — before evicting anything — when the model
  // alone is larger than the whole byte budget.
  Status EnsureBudgetFor(int64_t extra_bytes) {
    if (options.max_resident_bytes > 0 &&
        extra_bytes > options.max_resident_bytes) {
      return Exhausted(StrCat("model estimated at ", extra_bytes,
                              " bytes exceeds max_resident_bytes=",
                              options.max_resident_bytes));
    }
    std::set<std::string> skip;
    while (OverBudget(/*extra_models=*/1, extra_bytes)) {
      if (!EvictLruIdle(&skip)) {
        return Exhausted(StrCat(
            "model budget exhausted (resident_models=",
            resident_models.load(std::memory_order_relaxed),
            ", resident_bytes=",
            resident_bytes.load(std::memory_order_relaxed),
            ", max_resident_models=", options.max_resident_models,
            ", max_resident_bytes=", options.max_resident_bytes,
            ") and no idle model to evict"));
      }
    }
    return Status::Ok();
  }

  // Best-effort convergence after concurrent admissions raced past the
  // budget check together; never fails the request that just loaded.
  void TrimOverBudget() {
    std::set<std::string> skip;
    while (OverBudget(/*extra_models=*/0, /*extra_bytes=*/0)) {
      if (!EvictLruIdle(&skip)) return;
    }
  }

  void UpdateGauges() {
    EMAF_METRIC_GAUGE_SET(
        "serve.store.resident_models",
        static_cast<double>(resident_models.load(std::memory_order_relaxed)));
    EMAF_METRIC_GAUGE_SET(
        "serve.store.resident_bytes",
        static_cast<double>(resident_bytes.load(std::memory_order_relaxed)));
  }

  void UpdateHitRate() {
    uint64_t total = lookups.load(std::memory_order_relaxed);
    if (total == 0) return;
    EMAF_METRIC_GAUGE_SET(
        "serve.store.hit_rate",
        static_cast<double>(warm_hits.load(std::memory_order_relaxed)) /
            static_cast<double>(total));
  }
};

// --- ModelStore ------------------------------------------------------------

ModelStore::ModelStore() : impl_(std::make_unique<Impl>()) {}
ModelStore::ModelStore(ModelStore&&) noexcept = default;
ModelStore& ModelStore::operator=(ModelStore&&) noexcept = default;
ModelStore::~ModelStore() = default;

Result<std::vector<std::pair<std::string, std::string>>> ReadManifest(
    const std::string& dir) {
  namespace fs = std::filesystem;
  const fs::path manifest_path = fs::path(dir) / kManifestFilename;
  std::error_code ec;
  if (!fs::is_regular_file(manifest_path, ec) || ec) {
    return Status::NotFound(
        StrCat("manifest not found: ", manifest_path.string()));
  }
  std::ifstream in(manifest_path);
  if (!in) {
    return Status::Internal(
        StrCat("cannot read manifest ", manifest_path.string()));
  }
  std::vector<std::pair<std::string, std::string>> entries;
  std::set<std::string> seen;
  std::string line;
  int64_t lineno = 0;
  auto bad_line = [&](const auto&... what) {
    return Status::InvalidArgument(StrCat("manifest ", manifest_path.string(),
                                          " line ", lineno, ": ", what...));
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos || tab == 0 || tab + 1 >= line.size()) {
      return bad_line("expected `id<TAB>relative-path`, got \"", line, "\"");
    }
    std::string id = line.substr(0, tab);
    if (!seen.insert(id).second) {
      return bad_line("duplicate id \"", id, "\"");
    }
    std::string rel = line.substr(tab + 1);
    const fs::path full = fs::path(dir) / rel;
    if (!fs::is_regular_file(full, ec) || ec) {
      return bad_line("snapshot file not found: ", full.string());
    }
    entries.emplace_back(std::move(id), std::move(rel));
  }
  return entries;
}

Status WriteManifest(const std::string& dir,
                     const std::map<std::string, std::string>& entries) {
  namespace fs = std::filesystem;
  const fs::path manifest_path = fs::path(dir) / kManifestFilename;
  const fs::path tmp_path = fs::path(dir) / ".MANIFEST.tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) {
      return Status::Internal(
          StrCat("cannot write manifest ", tmp_path.string()));
    }
    out << "# rewritten by SnapshotPublisher; id<TAB>relative-path\n";
    for (const auto& [id, rel] : entries) {
      out << id << '\t' << rel << '\n';
    }
    out.flush();
    if (!out) {
      return Status::Internal(
          StrCat("write to manifest ", tmp_path.string(), " failed"));
    }
  }
  std::error_code ec;
  fs::rename(tmp_path, manifest_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return Status::Internal(StrCat("cannot move manifest into place: ",
                                   manifest_path.string()));
  }
  return Status::Ok();
}

std::optional<std::pair<std::string, uint64_t>> ParseVersionedName(
    std::string_view filename) {
  const std::string_view extension = kSnapshotExtension;
  if (!filename.ends_with(extension)) return std::nullopt;
  const std::string_view stem =
      filename.substr(0, filename.size() - extension.size());
  const size_t dot_v = stem.rfind(".v");
  if (dot_v == std::string_view::npos) return std::nullopt;
  const std::string_view digits = stem.substr(dot_v + 2);
  const char* end = digits.data() + digits.size();
  uint64_t version = 0;
  // from_chars refuses empty, signed and out-of-range digit strings.
  const auto [parsed_end, ec] = std::from_chars(digits.data(), end, version);
  if (ec != std::errc() || parsed_end != end || version == 0) {
    return std::nullopt;
  }
  return std::make_pair(std::string(stem.substr(0, dot_v)), version);
}

Result<ModelStore> ModelStore::Open(const std::string& snapshot_dir,
                                    const ModelStoreOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(snapshot_dir, ec) || ec) {
    return Status::NotFound(
        StrCat("snapshot directory not found: ", snapshot_dir));
  }
  // (id, snapshot path); the manifest — when present — is authoritative,
  // and lets many tenant ids alias one physical snapshot file.
  std::vector<std::pair<std::string, std::string>> listed;
  Result<std::vector<std::pair<std::string, std::string>>> manifest =
      ReadManifest(snapshot_dir);
  if (manifest.ok()) {
    listed = std::move(manifest).value();
    if (listed.empty()) {
      return Status::NotFound(
          StrCat("manifest ",
                 (fs::path(snapshot_dir) / kManifestFilename).string(),
                 " lists no snapshots"));
    }
  } else if (manifest.status().code() != StatusCode::kNotFound) {
    return manifest.status();
  } else {
    for (const fs::directory_entry& entry :
         fs::directory_iterator(snapshot_dir, ec)) {
      const fs::path& path = entry.path();
      // Publisher artifacts are versions of an id, reached via the MANIFEST
      // the publisher rewrites (authoritative above) or an explicit
      // Publish — never tenants of their own.
      if (path.extension() != kSnapshotExtension ||
          ParseVersionedName(path.filename().string())) {
        continue;
      }
      listed.emplace_back(path.stem().string(), path.filename().string());
    }
    if (ec) {
      return Status::Internal(StrCat("cannot list snapshot directory ",
                                     snapshot_dir, ": ", ec.message()));
    }
    if (listed.empty()) {
      return Status::NotFound(
          StrCat("no *", kSnapshotExtension, " snapshots in ", snapshot_dir));
    }
  }
  for (auto& [id, path] : listed) {
    path = (fs::path(snapshot_dir) / path).string();
  }
  // Listing order is unspecified (directory iteration) or author-chosen
  // (manifest); sort by id for determinism either way.
  std::sort(listed.begin(), listed.end());

  ModelStore store;
  Impl& impl = *store.impl_;
  impl.options = options;
  impl.shards.reserve(kNumShards);
  for (size_t i = 0; i < kNumShards; ++i) {
    impl.shards.push_back(std::make_unique<Impl::Shard>());
  }
  for (const auto& [id, path] : listed) {
    auto entry = std::make_shared<StoreEntry>();
    entry->id = id;
    entry->path = path;
    std::error_code size_ec;
    uintmax_t bytes = fs::file_size(path, size_ec);
    entry->file_bytes = size_ec ? 0 : static_cast<int64_t>(bytes);
    entry->shard = std::hash<std::string>{}(entry->id) %
                   impl.shards.size();
    entry->tick = impl.tick;
    impl.shards[entry->shard]->entries.emplace(entry->id, entry);
    impl.ids.push_back(entry->id);
  }
  std::sort(impl.ids.begin(), impl.ids.end());
  return store;
}

int64_t ModelStore::num_known_models() const {
  std::lock_guard<std::mutex> lock(impl_->ids_mu);
  return static_cast<int64_t>(impl_->ids.size());
}

std::vector<std::string> ModelStore::individual_ids() const {
  std::lock_guard<std::mutex> lock(impl_->ids_mu);
  return impl_->ids;
}

bool ModelStore::resident(const std::string& id) const {
  Impl::Shard& shard = impl_->ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(id);
  return it != shard.entries.end() && it->second->model != nullptr;
}

Result<ModelHandle> ModelStore::Get(const std::string& id) {
  [[maybe_unused]] std::chrono::steady_clock::time_point start;
  if constexpr (obs::kMetricsEnabled) {
    start = std::chrono::steady_clock::now();
  }
  [[maybe_unused]] auto elapsed = [&start]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  Impl::Shard& shard = impl_->ShardFor(id);
  std::shared_ptr<StoreEntry> entry;
  uint64_t load_generation = 0;
  // What the cold load reads of the entry, copied under the shard lock:
  // Publish rewrites those fields under that lock while the load runs
  // without it.
  std::string path;
  int64_t admission_bytes = 0;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(id);
    if (it == shard.entries.end()) {
      return Status::NotFound(StrCat("no snapshot for individual: ", id));
    }
    entry = it->second;
    impl_->lookups.fetch_add(1, std::memory_order_relaxed);
    while (true) {
      if (entry->model != nullptr) {
        // Warm hit: pin and refresh recency under the shard lock (the
        // only place pins are incremented, so eviction's pins==0 check
        // under the same lock cannot race with a new pin).
        entry->pins.fetch_add(1, std::memory_order_relaxed);
        entry->last_used.store(impl_->NextTick(), std::memory_order_relaxed);
        std::shared_ptr<models::Forecaster> model = entry->model;
        std::shared_ptr<plan::PlanCache> plans = entry->plans;
        lock.unlock();
        impl_->warm_hits.fetch_add(1, std::memory_order_relaxed);
        impl_->UpdateHitRate();
        if constexpr (obs::kMetricsEnabled) {
          EMAF_METRIC_HISTOGRAM_OBSERVE("serve.store.warm_acquire_seconds",
                                        elapsed(),
                                        obs::DefaultSecondsBounds());
        }
        return ModelHandle(std::move(entry), std::move(model),
                           std::move(plans));
      }
      if (!entry->loading) break;
      // Another thread is cold-loading this id; coalesce on it rather
      // than hitting the disk twice (single-flight).
      shard.cv.wait(lock);
    }
    entry->loading = true;
    load_generation = entry->generation;
    path = entry->path;
    // Admission estimate: a reload knows its exact in-memory size from the
    // previous residency; a first-time load uses the snapshot file size
    // (the payload is raw f64 weights).
    admission_bytes = entry->resident_bytes;
    if (admission_bytes == 0) admission_bytes = entry->file_bytes;
  }

  // Cold path — no locks held for admission or the disk load.
  auto fail = [&](Status status) -> Result<ModelHandle> {
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      entry->loading = false;
    }
    shard.cv.notify_all();
    return status;
  };

  Status admitted = impl_->EnsureBudgetFor(admission_bytes);
  if (!admitted.ok()) return fail(admitted);

  if (EMAF_FAULT_SHOULD_FAIL(StrCat("serve.store.load/", id))) {
    impl_->load_failures.fetch_add(1, std::memory_order_relaxed);
    EMAF_METRIC_COUNTER_ADD("serve.store.load_failures_total", 1);
    return fail(
        Status::Unavailable(StrCat("injected fault: serve.store.load/", id)));
  }
  Rng rng(kModelSeed);
  Result<std::unique_ptr<models::Forecaster>> loaded =
      models::LoadForecasterSnapshot(path, &rng);
  if (!loaded.ok()) {
    impl_->load_failures.fetch_add(1, std::memory_order_relaxed);
    EMAF_METRIC_COUNTER_ADD("serve.store.load_failures_total", 1);
    return fail(Status(loaded.status().code(),
                       StrCat("loading model ", id, ": ",
                              loaded.status().message())));
  }
  // Eval mode is set exactly once, here: the request path never writes to
  // the module tree, which is what makes concurrent requests against one
  // model race-free (core::Predict).
  loaded.value()->SetTraining(false);
  std::shared_ptr<models::Forecaster> model = std::move(loaded).value();
  std::shared_ptr<plan::PlanCache> plans = std::make_shared<plan::PlanCache>();
  // What the budget actually pays for: the loaded tensors' bytes
  // (parameters dominate a model's footprint; the few baked graph buffers
  // are not enumerable through the Module interface).
  int64_t model_bytes = 0;
  for (tensor::Tensor* t : model->Parameters()) model_bytes += t->byte_size();
  bool installed = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    entry->loading = false;
    if (entry->generation == load_generation) {
      entry->model = model;
      entry->resident_bytes = model_bytes;
      entry->plans = plans;
      shard.resident.insert(entry);
      installed = true;
    }
    // On a generation mismatch a Publish landed while the disk load ran:
    // the bytes just loaded are already superseded, so they are handed
    // only to this request (the handle below co-owns them) and the store
    // stays empty for the id — the next Get cold-loads the new path.
    entry->pins.fetch_add(1, std::memory_order_relaxed);
    entry->last_used.store(impl_->NextTick(), std::memory_order_relaxed);
  }
  shard.cv.notify_all();
  impl_->cold_loads.fetch_add(1, std::memory_order_relaxed);
  EMAF_METRIC_COUNTER_ADD("serve.store.cold_loads_total", 1);
  if (installed) {
    impl_->resident_models.fetch_add(1, std::memory_order_relaxed);
    impl_->resident_bytes.fetch_add(model_bytes, std::memory_order_relaxed);
    impl_->UpdateGauges();
  }
  impl_->UpdateHitRate();
  if constexpr (obs::kMetricsEnabled) {
    EMAF_METRIC_HISTOGRAM_OBSERVE("serve.store.cold_load_seconds", elapsed(),
                                  obs::DefaultSecondsBounds());
  }
  // Concurrent admissions can race past the budget check together; shed
  // any overshoot now (best effort — this request keeps its model).
  impl_->TrimOverBudget();
  return ModelHandle(std::move(entry), std::move(model), std::move(plans));
}

int64_t ModelStore::EvictIdle(int64_t max_to_evict) {
  std::set<std::string> skip;
  int64_t evicted = 0;
  while (max_to_evict < 0 || evicted < max_to_evict) {
    if (!impl_->EvictLruIdle(&skip)) break;
    ++evicted;
  }
  return evicted;
}

Status ModelStore::Publish(const std::string& id, const std::string& path,
                           uint64_t version) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_regular_file(path, ec) || ec) {
    return Status::NotFound(
        StrCat("Publish(", id, "): snapshot file not found: ", path));
  }
  uintmax_t bytes = fs::file_size(path, ec);
  const int64_t file_bytes = ec ? 0 : static_cast<int64_t>(bytes);
  if (version == 0) {
    const auto versioned =
        ParseVersionedName(fs::path(path).filename().string());
    if (versioned.has_value()) version = versioned->second;
  }

  Impl::Shard& shard = impl_->ShardFor(id);
  bool added = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::shared_ptr<StoreEntry> entry;
    auto it = shard.entries.find(id);
    if (it == shard.entries.end()) {
      entry = std::make_shared<StoreEntry>();
      entry->id = id;
      entry->shard = std::hash<std::string>{}(id) % impl_->shards.size();
      entry->tick = impl_->tick;
      shard.entries.emplace(id, entry);
      added = true;
    } else {
      entry = it->second;
    }
    if (entry->model != nullptr) {
      // Same critical section as the eviction path: the store's references
      // to the stale residency and its PlanCache drop here; in-flight
      // handles co-own both, so pinned requests finish on the old bytes.
      impl_->DropResident(shard, entry);
    }
    // The old residency's size says nothing about the new snapshot's, so
    // the estimate resets instead of leaking into swap-admission math.
    entry->resident_bytes = 0;
    entry->path = path;
    entry->file_bytes = file_bytes;
    ++entry->generation;  // a cold load in flight must not install
  }
  if (added) {
    std::lock_guard<std::mutex> lock(impl_->ids_mu);
    impl_->ids.insert(
        std::lower_bound(impl_->ids.begin(), impl_->ids.end(), id), id);
  }
  impl_->swaps.fetch_add(1, std::memory_order_relaxed);
  uint64_t prev = impl_->max_published.load(std::memory_order_relaxed);
  while (version > prev &&
         !impl_->max_published.compare_exchange_weak(
             prev, version, std::memory_order_relaxed)) {
  }
  EMAF_METRIC_COUNTER_ADD("serve.store.swaps_total", 1);
  EMAF_METRIC_GAUGE_SET("serve.store.published_version",
                        static_cast<double>(impl_->max_published.load(
                            std::memory_order_relaxed)));
  impl_->UpdateGauges();
  return Status::Ok();
}

Result<std::string> ModelStore::snapshot_path(const std::string& id) const {
  Impl::Shard& shard = impl_->ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) {
    return Status::NotFound(StrCat("no snapshot for individual: ", id));
  }
  return it->second->path;
}

uint64_t ModelStore::max_published_version() const {
  return impl_->max_published.load(std::memory_order_relaxed);
}

ModelStore::Stats ModelStore::stats() const {
  Stats stats;
  stats.lookups = impl_->lookups.load(std::memory_order_relaxed);
  stats.warm_hits = impl_->warm_hits.load(std::memory_order_relaxed);
  stats.cold_loads = impl_->cold_loads.load(std::memory_order_relaxed);
  stats.evictions = impl_->evictions.load(std::memory_order_relaxed);
  stats.load_failures = impl_->load_failures.load(std::memory_order_relaxed);
  stats.exhausted = impl_->exhausted.load(std::memory_order_relaxed);
  stats.swaps = impl_->swaps.load(std::memory_order_relaxed);
  stats.max_published_version =
      impl_->max_published.load(std::memory_order_relaxed);
  stats.resident_models =
      impl_->resident_models.load(std::memory_order_relaxed);
  stats.resident_bytes = impl_->resident_bytes.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace emaf::serve
