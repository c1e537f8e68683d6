#include "online/publisher.h"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "serve/model_store.h"

namespace emaf::online {

struct SnapshotPublisher::Impl {
  std::string dir;
  mutable std::mutex mu;
  std::map<std::string, uint64_t> versions;      // latest per id
  std::map<std::string, std::string> manifest;   // id -> relative path
};

SnapshotPublisher::SnapshotPublisher() : impl_(std::make_unique<Impl>()) {}
SnapshotPublisher::SnapshotPublisher(SnapshotPublisher&&) noexcept = default;
SnapshotPublisher& SnapshotPublisher::operator=(SnapshotPublisher&&) noexcept =
    default;
SnapshotPublisher::~SnapshotPublisher() = default;

Result<SnapshotPublisher> SnapshotPublisher::Open(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || !fs::is_directory(dir)) {
    return Status::Internal(StrCat("cannot create publish directory ", dir));
  }
  SnapshotPublisher publisher;
  Impl& impl = *publisher.impl_;
  impl.dir = dir;
  // Seed version counters above anything ever published here, whether or
  // not MANIFEST still mentions it — monotonicity must survive restarts.
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto versioned =
        serve::ParseVersionedName(entry.path().filename().string());
    if (!versioned.has_value()) continue;
    uint64_t& version = impl.versions[versioned->first];
    version = std::max(version, versioned->second);
  }
  if (ec) {
    return Status::Internal(
        StrCat("cannot list publish directory ", dir, ": ", ec.message()));
  }
  Result<std::vector<std::pair<std::string, std::string>>> manifest =
      serve::ReadManifest(dir);
  if (manifest.ok()) {
    impl.manifest.insert(manifest.value().begin(), manifest.value().end());
  } else if (manifest.status().code() != StatusCode::kNotFound) {
    return manifest.status();
  }
  return publisher;
}

Result<PublishedSnapshot> SnapshotPublisher::Publish(
    const std::string& id, models::Forecaster* model,
    const models::ModelConfig& config) {
  namespace fs = std::filesystem;
  if (id.empty() || id.find('/') != std::string::npos ||
      id.find('\\') != std::string::npos) {
    return Status::InvalidArgument(StrCat("invalid publish id: \"", id, "\""));
  }
  // Pre-mutation by contract: a publish fault must leave the previous
  // version — file and MANIFEST entry both — exactly as it was.
  if (EMAF_FAULT_SHOULD_FAIL(StrCat("online.publish/", id))) {
    return Status::Unavailable(StrCat("injected fault: online.publish/", id));
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  const uint64_t version = impl_->versions[id] + 1;
  const std::string filename =
      StrCat(id, ".v", version, serve::kSnapshotExtension);
  const fs::path full = fs::path(impl_->dir) / filename;
  const fs::path tmp = fs::path(impl_->dir) / StrCat(".", filename, ".tmp");
  Status saved = models::SaveForecasterSnapshot(model, config, tmp.string());
  if (!saved.ok()) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return saved;
  }
  std::error_code ec;
  fs::rename(tmp, full, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status::Internal(
        StrCat("cannot move snapshot into place: ", full.string()));
  }
  // The versioned file is durable from here on: even if the manifest
  // rewrite below fails, the version counter stays consumed and a rescan
  // at next Open seeds above it.
  impl_->versions[id] = version;
  impl_->manifest[id] = filename;
  EMAF_RETURN_IF_ERROR(serve::WriteManifest(impl_->dir, impl_->manifest));
  EMAF_METRIC_COUNTER_ADD("online.publish.published_total", 1);
  uint64_t max_version = 0;
  for (const auto& [_, v] : impl_->versions) max_version = std::max(max_version, v);
  EMAF_METRIC_GAUGE_SET("online.publish.max_version",
                        static_cast<double>(max_version));
  PublishedSnapshot out;
  out.path = full.string();
  out.version = version;
  return out;
}

uint64_t SnapshotPublisher::latest_version(const std::string& id) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->versions.find(id);
  return it == impl_->versions.end() ? 0 : it->second;
}

Result<std::string> SnapshotPublisher::latest_path(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->manifest.find(id);
  if (it == impl_->manifest.end()) {
    return Status::NotFound(StrCat("no published snapshot for: ", id));
  }
  return (std::filesystem::path(impl_->dir) / it->second).string();
}

const std::string& SnapshotPublisher::dir() const { return impl_->dir; }

}  // namespace emaf::online
