#include "storage/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault_injection.h"

namespace topl {

Result<std::shared_ptr<MappedFile>> MappedFile::Open(const std::string& path,
                                                     const MapOptions& options) {
  TOPL_FAULT_POINT("mapped_file.open");
  const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (fd < 0) {
    return Status::IOError("cannot open: " + path + ": " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("cannot stat: " + path + ": " + err);
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError("not a regular file: " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  const std::byte* data = nullptr;
  if (size > 0) {
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    if (options.populate) flags |= MAP_POPULATE;
#endif
    void* mapped = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
#ifdef MAP_POPULATE
    if (mapped == MAP_FAILED && (flags & MAP_POPULATE) != 0) {
      // Some filesystems reject MAP_POPULATE outright; retry without it
      // rather than failing the open over a prefetch hint.
      mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    }
#endif
    if (mapped == MAP_FAILED) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IOError("cannot mmap: " + path + ": " + err);
    }
#ifdef MADV_HUGEPAGE
    if (options.huge_pages) {
      // Advisory: ignore failures (THP may be disabled system-wide).
      (void)::madvise(mapped, size, MADV_HUGEPAGE);
    }
#endif
    data = static_cast<const std::byte*>(mapped);
  }
  // The mapping holds its own reference to the file; the descriptor is no
  // longer needed.
  ::close(fd);
  return std::shared_ptr<MappedFile>(new MappedFile(path, data, size));
}

Status MappedFile::Revalidate() const {
  struct stat st {};
  if (::stat(path_.c_str(), &st) != 0) {
    return Status::IOError("cannot stat: " + path_ + ": " +
                           std::strerror(errno));
  }
  if (static_cast<std::size_t>(st.st_size) < size_) {
    return Status::Corruption(
        path_ + ": file truncated after open (" + std::to_string(st.st_size) +
        " bytes on disk, " + std::to_string(size_) +
        " mapped); touching the lost pages would SIGBUS");
  }
  return Status::OK();
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
}

}  // namespace topl
