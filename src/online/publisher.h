// Versioned snapshot publication for zero-downtime hot swap (DESIGN.md,
// "Online ingestion & hot-swap").
//
// A fine-tuned model becomes servable by writing a *new* snapshot file —
// never overwriting the one in service — named with a per-individual
// monotonic version: `<id>.v<N>.snapshot`. The write goes to a `.tmp`
// sibling first and is renamed into place, so a crash mid-publish leaves
// either the complete new file or nothing; the previous version is intact
// either way. After the file lands, the directory's MANIFEST is rewritten
// the same way (tmp + rename) to map the id to its newest version, so a
// store opened on the directory later serves it; a running store picks
// the swap up through ModelStore::Publish with the returned path.
//
// Version monotonicity is an invariant, not a convention: Open() scans
// both the MANIFEST and every `<id>.v<N>.snapshot` file already in the
// directory and seeds each id's counter above anything ever published
// there, so versions never regress across process restarts — the property
// the store's max_published_version watermark (and the health probe field
// built on it) relies on.
//
// Fault site online.publish/<id> fails a Publish before any byte is
// written, proving the old version keeps serving when publication fails.
// Instrumentation: online.publish.published_total (counter),
// online.publish.max_version (gauge).

#ifndef EMAF_ONLINE_PUBLISHER_H_
#define EMAF_ONLINE_PUBLISHER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "models/registry.h"

namespace emaf::online {

struct PublishedSnapshot {
  std::string path;  // absolute-ish: `<dir>/<id>.v<N>.snapshot`
  uint64_t version = 0;
};

class SnapshotPublisher {
 public:
  // Opens (creating if needed) `dir` and seeds each id's version counter
  // from existing `<id>.v<N>.snapshot` files and MANIFEST entries. A
  // MANIFEST the store would reject (serve::ReadManifest) fails Open the
  // same way.
  static Result<SnapshotPublisher> Open(const std::string& dir);

  SnapshotPublisher(SnapshotPublisher&&) noexcept;
  SnapshotPublisher& operator=(SnapshotPublisher&&) noexcept;
  ~SnapshotPublisher();

  // Writes `model` (config embedded) as the next version of `id` and
  // rewrites MANIFEST to point at it. On any failure nothing observable
  // changes: the previous version's file and MANIFEST entry are intact.
  //   kUnavailable — fault site online.publish/<id> fired (pre-mutation);
  //   kInternal    — write/rename failed (tmp files cleaned up).
  Result<PublishedSnapshot> Publish(const std::string& id,
                                    models::Forecaster* model,
                                    const models::ModelConfig& config);

  // Latest published version of `id` (0 = never published here).
  uint64_t latest_version(const std::string& id) const;
  // Path MANIFEST currently maps `id` to; kNotFound when absent.
  Result<std::string> latest_path(const std::string& id) const;

  const std::string& dir() const;

 private:
  struct Impl;
  SnapshotPublisher();

  std::unique_ptr<Impl> impl_;
};

}  // namespace emaf::online

#endif  // EMAF_ONLINE_PUBLISHER_H_
