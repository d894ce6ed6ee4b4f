#ifndef SCENEREC_NN_SNAPSHOT_H_
#define SCENEREC_NN_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mmap_file.h"
#include "common/status_or.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace scenerec {

/// The versioned model-snapshot format, `SRSNAP1`:
///
///   magic "SRSNAP1\n" (8 bytes)
///   uint64 version id (monotonic within a SnapshotStore; 0 = unversioned)
///   int64  tag length, tag bytes (typically the model name)
///   int64  tensor count
///   per tensor (manifest entry, CollectParameters order):
///     int64 name length, name bytes
///     int64 rank, int64 dims[rank]
///     int64 data offset (bytes from file start, kSnapshotAlignment-aligned)
///     int64 float count
///   zero padding to the first aligned boundary
///   raw float32 pages, one per tensor at its manifest offset
///
/// All integers are little-endian int64 — the only layout this library
/// targets, as with the TSV/dataset formats. The alignment makes every
/// mapped page directly usable by the SIMD kernels (Arena::kAlignment), so
/// an open snapshot's pages ARE the model's tables: no copy, no fix-up
/// pass, first score possible after one mmap. See docs/serving.md.
inline constexpr int64_t kSnapshotAlignment = 64;

/// One manifest entry of an open snapshot.
struct SnapshotTensorEntry {
  std::string name;
  Shape shape;
  /// Byte offset of the tensor's page from the file start; aligned.
  int64_t offset = 0;
  int64_t num_floats = 0;
};

/// Writes `module`'s parameters (CollectParameters order) as an SRSNAP1
/// snapshot. The write is crash-safe: bytes go to a temporary file in the
/// target directory which is fsync'd and atomically renamed onto `path`, so
/// a partially written snapshot is never observable under the final name —
/// a crash mid-write leaves at most a stale *.tmp.* file.
Status WriteSnapshot(const Module& module, const std::string& tag,
                     uint64_t version, const std::string& path);

/// A read-only, memory-mapped snapshot. Open() maps the file and validates
/// the manifest without touching the data pages (no full-table read); the
/// pages fault in lazily as they are scored against. Tensors handed out by
/// View() — and everything bound via BindSnapshot() — pin the mapping
/// through shared_ptr owners, so the file is unmapped exactly when the last
/// view is dropped: the invariant the serving daemon's hot swap
/// (serve/server.h) relies on to retire old model versions with readers
/// still in flight.
class Snapshot : public std::enable_shared_from_this<Snapshot> {
 public:
  /// Maps and validates `path`. Errors name the file and, for per-tensor
  /// problems (truncated page, bad offset), the offending tensor index.
  static StatusOr<std::shared_ptr<const Snapshot>> Open(
      const std::string& path);

  const std::string& path() const { return file_.path(); }
  const std::string& tag() const { return tag_; }
  uint64_t version() const { return version_; }
  size_t file_bytes() const { return file_.size(); }
  const std::vector<SnapshotTensorEntry>& tensors() const { return entries_; }

  /// The mapped page of tensor `i` (aligned, read-only).
  const float* data(size_t i) const;

  /// Manifest index of the tensor named `name` (CollectParameters order
  /// gives "param.<i>"), or -1 if absent. Used by raw-table consumers such
  /// as `snapshot_inspect --export-index` that read known tensors without
  /// rebuilding the model.
  int64_t FindTensor(const std::string& name) const;

  /// Zero-copy read-only tensor over tensor `i`'s page. The tensor keeps
  /// this snapshot (and its mapping) alive for its own lifetime.
  Tensor View(size_t i) const;

 private:
  Snapshot() = default;

  MappedFile file_;
  std::string tag_;
  uint64_t version_ = 0;
  std::vector<SnapshotTensorEntry> entries_;
};

/// Rebinds every parameter of `module` (CollectParameters order) to the
/// snapshot's mapped pages in place: existing Tensor handles observe the
/// new storage, requires_grad drops, and each parameter pins the mapping.
/// Count and shapes must match the manifest; errors name the tensor index
/// and the snapshot path. After this, `module` is inference-only.
Status BindSnapshot(Module& module,
                    const std::shared_ptr<const Snapshot>& snapshot);

/// A directory of versioned snapshots (`snap-<version>.srsnap`) with
/// monotonic version ids and retention of the newest K files. The trainer
/// writes one snapshot per validation improvement through a store; a
/// server tails LatestPath() to pick up fresh versions.
class SnapshotStore {
 public:
  /// `retain` >= 1: how many newest snapshots survive pruning.
  explicit SnapshotStore(std::string dir, int64_t retain = 3);

  /// Writes the next version (max existing + 1; the directory is created if
  /// missing), prunes older files beyond `retain`, returns the version id.
  StatusOr<uint64_t> Write(const Module& module, const std::string& tag);

  /// Path of the highest-version snapshot, or NotFound for an empty store.
  StatusOr<std::string> LatestPath() const;

  /// The file name a given version lives under.
  std::string PathFor(uint64_t version) const;

  const std::string& dir() const { return dir_; }
  int64_t retain() const { return retain_; }

 private:
  std::string dir_;
  int64_t retain_;
  /// Next version to write; 0 until the directory has been scanned.
  uint64_t next_version_ = 0;
};

}  // namespace scenerec

#endif  // SCENEREC_NN_SNAPSHOT_H_
