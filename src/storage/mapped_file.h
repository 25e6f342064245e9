#ifndef TOPL_STORAGE_MAPPED_FILE_H_
#define TOPL_STORAGE_MAPPED_FILE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace topl {

/// \brief A read-only memory mapping of a whole file (RAII).
///
/// The backing of every mmap-loaded structure in the library: Graph,
/// PrecomputedData and TreeIndex keep a shared_ptr to the MappedFile their
/// spans point into, so the mapping lives exactly as long as any view of it.
/// The mapping is PROT_READ, so writing through a view is a segfault, not
/// silent corruption.
///
/// A read-only MAP_PRIVATE mapping still shares the page cache, so in-place
/// writes to the file ARE visible through it (a mix of old faulted and new
/// pages) and truncation raises SIGBUS in a serving process. Consistency
/// under concurrent updates therefore relies on the writer side:
/// ArtifactWriter only ever replaces artifacts via write-temp-then-rename,
/// which leaves existing mappings on the old inode untouched. Never add an
/// in-place file-update path.
/// Paging behavior for a MappedFile. Both knobs trade open latency / memory
/// for serving-time page-fault cost and are safe no-ops where the kernel
/// lacks support.
struct MapOptions {
  /// MAP_POPULATE: fault the whole file in at open (read-ahead at disk
  /// bandwidth) instead of on first touch. Turns cold-start page faults
  /// into one sequential prefetch — the right default for benchmark
  /// serving runs, wasteful for `index inspect`-style partial reads.
  bool populate = false;
  /// MADV_HUGEPAGE: ask khugepaged to back the mapping with transparent
  /// huge pages, cutting TLB pressure on multi-GB artifacts. Advisory
  /// only; errors (e.g. THP disabled) are ignored.
  bool huge_pages = false;
};

class MappedFile {
 public:
  using MapOptions = topl::MapOptions;

  /// Maps `path` read-only. Fails with IOError when the file cannot be
  /// opened, stat'ed or mapped, or is not a regular file. Empty files map
  /// to a null, zero-length view.
  static Result<std::shared_ptr<MappedFile>> Open(const std::string& path,
                                                  const MapOptions& options = {});

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Re-stats the backing path and reports Corruption when the file on disk
  /// is now smaller than the mapping taken at open time. A mapping over a
  /// truncated file raises SIGBUS on first touch of a lost page; callers
  /// that are about to walk the mapping (or that just caught an inexplicable
  /// serving error) can use this to turn the hazard into a clean Status.
  /// Rename-replaced artifacts (the only sanctioned replacement path) keep
  /// the old inode intact, so this only fires on out-of-band truncation.
  Status Revalidate() const;

  /// Typed view of `count` elements of T starting at byte `offset`. The
  /// caller must have validated that [offset, offset + count * sizeof(T))
  /// lies within the file and that `offset` is aligned for T.
  template <typename T>
  std::span<const T> ViewAt(std::size_t offset, std::size_t count) const {
    return {reinterpret_cast<const T*>(data_ + offset), count};
  }

 private:
  MappedFile(std::string path, const std::byte* data, std::size_t size)
      : path_(std::move(path)), data_(data), size_(size) {}

  std::string path_;
  const std::byte* data_;
  std::size_t size_;
};

}  // namespace topl

#endif  // TOPL_STORAGE_MAPPED_FILE_H_
