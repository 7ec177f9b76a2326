// Per-shard append-only write-ahead log (DESIGN.md section 14).
//
// One ShardLog per shard worker, which is its only appender and its only
// flusher, so the log takes no lock. append() encodes the record into an
// in-memory pending buffer and returns the record's LSN; the worker calls
// flush() when its queue drains or once `batch_max` records wait
// (serve/service.hpp), so one write() and at most one fsync cover every
// record appended since the last flush — that is group commit.
//
// Durability modes (the -durability knob):
//   kOff      no log at all (ShardLog is not even constructed)
//   kBuffered flush() write()s the tail to the page cache, no fsync.
//             Survives a process kill -9; not an OS crash.
//   kFsync    write() + fdatasync() per flush. Survives an OS crash.
//   kODirect  O_DIRECT block writes: the tail 4 KiB block is kept in an
//             aligned staging buffer and rewritten each flush, zero-padded.
//             The padding fails CRC + LSN checks, so the scan treats it as
//             torn tail — no special casing in recovery. Falls back to
//             kFsync (with a note in `fallback()`) on filesystems that
//             refuse O_DIRECT (tmpfs).
//
// The durable LSN only advances after the covering write (and fsync, in the
// sync modes) returned, which is exactly the ack-gating contract: a response
// whose LSN is <= durable_lsn() may be released to the client. The first
// I/O error is latched and the durable LSN never advances again — held acks
// stall rather than lie: the failed batch is gone, so no later flush may
// claim an LSN past it.
//
// open() on an existing file scans it (log_format.hpp), truncates the torn
// tail, and continues LSNs from the last trusted record — the post-recovery
// restart path.
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "durability/log_format.hpp"

namespace si::durability {

enum class DurabilityMode : std::uint8_t {
  kOff = 0,
  kBuffered = 1,
  kFsync = 2,
  kODirect = 3,
};

inline const char* to_string(DurabilityMode m) noexcept {
  switch (m) {
    case DurabilityMode::kOff: return "off";
    case DurabilityMode::kBuffered: return "buffered";
    case DurabilityMode::kFsync: return "fsync";
    case DurabilityMode::kODirect: return "odirect";
  }
  return "?";
}

/// Parses the -durability CLI spelling; returns false on unknown names.
inline bool mode_from_string(const std::string& s, DurabilityMode* out) {
  if (s == "off") *out = DurabilityMode::kOff;
  else if (s == "buffered") *out = DurabilityMode::kBuffered;
  else if (s == "fsync") *out = DurabilityMode::kFsync;
  else if (s == "odirect") *out = DurabilityMode::kODirect;
  else return false;
  return true;
}

/// mkdir that tolerates the directory already existing (single level — log
/// dirs are flat).
inline bool ensure_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return true;
  return false;
}

inline std::string shard_log_path(const std::string& dir, std::uint32_t shard) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%u.log", shard);
  return dir + "/" + name;
}

/// Racy-read counters for telemetry; every field is cumulative except the
/// two LSN gauges.
struct ShardLogStats {
  std::uint64_t appends = 0;
  std::uint64_t bytes = 0;      ///< record bytes appended (excludes header)
  std::uint64_t flushes = 0;    ///< flush() calls that wrote something
  std::uint64_t fsyncs = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t appended_lsn = 0;
  std::uint64_t durable_lsn = 0;
};

class ShardLog {
 public:
  static constexpr std::size_t kBlock = 4096;  ///< O_DIRECT unit

  ShardLog() = default;
  ShardLog(const ShardLog&) = delete;
  ShardLog& operator=(const ShardLog&) = delete;
  ~ShardLog() { close(); }

  /// Opens (creating if absent) `dir/shard-<shard>.log`. An existing file is
  /// scanned; its torn tail is truncated away and LSNs continue from the
  /// last trusted record. Fails (false + *err) on a header that names a
  /// different shard layout — replaying shard i's log into a j-shard
  /// service would route keys to the wrong workers.
  bool open(const std::string& dir, std::uint32_t shard, std::uint32_t shards,
            DurabilityMode mode, std::string* err) {
    mode_ = mode;
    if (mode_ == DurabilityMode::kOff) return true;
    if (!ensure_dir(dir)) {
      if (err != nullptr) *err = "mkdir " + dir + ": " + std::strerror(errno);
      return false;
    }
    path_ = shard_log_path(dir, shard);
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) {
      if (err != nullptr) *err = "open " + path_ + ": " + std::strerror(errno);
      return false;
    }
    std::vector<unsigned char> image;
    if (!read_all(fd_, &image)) {
      if (err != nullptr) *err = "read " + path_ + ": " + std::strerror(errno);
      close();
      return false;
    }
    std::size_t valid_len = 0;
    if (image.empty()) {
      unsigned char hdr[kHeaderSize];
      encode_header(hdr, shards, shard);
      if (!write_exact(fd_, hdr, kHeaderSize)) {
        if (err != nullptr) {
          *err = "write header " + path_ + ": " + std::strerror(errno);
        }
        close();
        return false;
      }
      image.assign(hdr, hdr + kHeaderSize);
      valid_len = kHeaderSize;
    } else {
      const ScanResult scan = scan_log(image.data(), image.size());
      if (!scan.header_ok()) {
        if (err != nullptr) *err = path_ + ": bad log header";
        close();
        return false;
      }
      if (scan.header.shards != shards || scan.header.shard != shard) {
        if (err != nullptr) {
          *err = path_ + ": shard layout mismatch (file " +
                 std::to_string(scan.header.shard) + "/" +
                 std::to_string(scan.header.shards) + ", service " +
                 std::to_string(shard) + "/" + std::to_string(shards) + ")";
        }
        close();
        return false;
      }
      valid_len = scan.valid_bytes;
      truncated_bytes_ = scan.torn_bytes;
      if (scan.torn_bytes > 0 && ::ftruncate(fd_, static_cast<off_t>(valid_len)) != 0) {
        if (err != nullptr) {
          *err = "ftruncate " + path_ + ": " + std::strerror(errno);
        }
        close();
        return false;
      }
      next_lsn_ = scan.last_lsn + 1;
      appended_lsn_.store(scan.last_lsn, std::memory_order_relaxed);
      durable_lsn_.store(scan.last_lsn, std::memory_order_relaxed);
    }
    if (::lseek(fd_, static_cast<off_t>(valid_len), SEEK_SET) < 0) {
      if (err != nullptr) *err = "lseek " + path_ + ": " + std::strerror(errno);
      close();
      return false;
    }
    if (mode_ == DurabilityMode::kODirect &&
        !switch_to_odirect(image, valid_len)) {
      // tmpfs & friends refuse O_DIRECT; degrade to fsync so the knob still
      // gates acks on stable storage semantics instead of failing startup.
      mode_ = DurabilityMode::kFsync;
      fell_back_ = true;
    }
    return true;
  }

  DurabilityMode mode() const noexcept { return mode_; }
  bool fallback() const noexcept { return fell_back_; }
  const std::string& path() const noexcept { return path_; }
  std::size_t truncated_bytes() const noexcept { return truncated_bytes_; }

  /// Appends one committed record; returns its LSN. Called only by the
  /// owning shard worker. Cheap: an encode plus a buffer append, no I/O.
  std::uint64_t append(std::uint64_t id, std::uint64_t key, std::uint64_t arg,
                       std::uint16_t op) {
    LogRecord rec;
    rec.id = id;
    rec.key = key;
    rec.arg = arg;
    rec.op = op;
    rec.lsn = next_lsn_++;
    const std::size_t off = pending_.size();
    pending_.resize(off + kRecordSize);
    encode_record(pending_.data() + off, rec);
    appends_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(kRecordSize, std::memory_order_relaxed);
    appended_lsn_.store(rec.lsn, std::memory_order_relaxed);
    return rec.lsn;
  }

  /// Writes (and in the sync modes, fsyncs) everything appended so far, then
  /// advances the durable LSN. Called only by the owning shard worker. After
  /// a failed write or fsync the log is broken for good: later batches are
  /// dropped unwritten, so the file stays a gap-free prefix and
  /// durable_lsn() stays below the first lost record.
  void flush() {
    if (pending_.empty()) return;
    if (!failed_) write_pending();
    pending_.clear();
  }

  /// True once a write or fsync failed (latched). Owning worker only.
  bool failed() const noexcept { return failed_; }

  std::uint64_t appended_lsn() const noexcept {
    return appended_lsn_.load(std::memory_order_relaxed);
  }
  std::uint64_t durable_lsn() const noexcept {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  ShardLogStats stats() const noexcept {
    ShardLogStats s;
    s.appends = appends_.load(std::memory_order_relaxed);
    s.bytes = bytes_.load(std::memory_order_relaxed);
    s.flushes = flushes_.load(std::memory_order_relaxed);
    s.fsyncs = fsyncs_.load(std::memory_order_relaxed);
    s.io_errors = io_errors_.load(std::memory_order_relaxed);
    s.appended_lsn = appended_lsn();
    s.durable_lsn = durable_lsn();
    return s;
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (tail_block_ != nullptr) {
      std::free(tail_block_);
      tail_block_ = nullptr;
    }
  }

 private:
  static bool read_all(int fd, std::vector<unsigned char>* out) {
    struct stat st;
    if (::fstat(fd, &st) != 0) return false;
    out->resize(static_cast<std::size_t>(st.st_size));
    std::size_t off = 0;
    while (off < out->size()) {
      const ssize_t n =
          ::pread(fd, out->data() + off, out->size() - off,
                  static_cast<off_t>(off));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  static bool write_exact(int fd, const unsigned char* p, std::size_t len) {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, p + off, len - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// flush()'s I/O: one write of the pending batch, plus one fdatasync in
  /// the sync modes, then the durable LSN moves up to the last append.
  void write_pending() {
    bool ok = false;
    if (mode_ == DurabilityMode::kODirect) {
      ok = write_direct(pending_);
    } else {
      ok = write_exact(fd_, pending_.data(), pending_.size());
    }
    if (ok && (mode_ == DurabilityMode::kFsync ||
               mode_ == DurabilityMode::kODirect)) {
      ok = ::fdatasync(fd_) == 0;
      if (ok) fsyncs_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!ok) {
      // Keep durable_lsn where it is, now and for every later flush: the
      // held acks covering this batch stall instead of acknowledging writes
      // that never reached the disk.
      failed_ = true;
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    flushes_.fetch_add(1, std::memory_order_relaxed);
    durable_lsn_.store(next_lsn_ - 1, std::memory_order_release);
  }

  /// Reopens the file O_DIRECT and seeds the aligned tail-block staging
  /// buffer with the current partial block (`image[0..valid_len)` is the
  /// trusted file content). Returns false if the filesystem refuses.
  bool switch_to_odirect(const std::vector<unsigned char>& image,
                         std::size_t valid_len) {
    const int dfd = ::open(path_.c_str(), O_RDWR | O_DIRECT, 0644);
    if (dfd < 0) return false;
    void* buf = nullptr;
    if (::posix_memalign(&buf, kBlock, kBlock) != 0) {
      ::close(dfd);
      return false;
    }
    ::close(fd_);
    fd_ = dfd;
    tail_block_ = static_cast<unsigned char*>(buf);
    tail_off_ = valid_len & ~(kBlock - 1);
    tail_len_ = valid_len - tail_off_;
    std::memset(tail_block_, 0, kBlock);
    if (tail_len_ > 0) {
      std::memcpy(tail_block_, image.data() + tail_off_, tail_len_);
    }
    return true;
  }

  /// O_DIRECT path: fold `batch` through the tail staging block, rewriting
  /// the (zero-padded) tail block in place and advancing block by block.
  bool write_direct(const std::vector<unsigned char>& batch) {
    std::size_t i = 0;
    while (i < batch.size()) {
      const std::size_t room = kBlock - tail_len_;
      const std::size_t n = room < batch.size() - i ? room : batch.size() - i;
      std::memcpy(tail_block_ + tail_len_, batch.data() + i, n);
      tail_len_ += n;
      i += n;
      std::memset(tail_block_ + tail_len_, 0, kBlock - tail_len_);
      const ssize_t w = ::pwrite(fd_, tail_block_, kBlock,
                                 static_cast<off_t>(tail_off_));
      if (w != static_cast<ssize_t>(kBlock)) return false;
      if (tail_len_ == kBlock) {
        tail_off_ += kBlock;
        tail_len_ = 0;
      }
    }
    return true;
  }

  DurabilityMode mode_ = DurabilityMode::kOff;
  bool fell_back_ = false;
  std::string path_;
  int fd_ = -1;
  std::size_t truncated_bytes_ = 0;

  // Owned by the shard worker once open() returned.
  std::vector<unsigned char> pending_;
  std::uint64_t next_lsn_ = 1;
  bool failed_ = false;  ///< latched first I/O error

  // O_DIRECT staging.
  unsigned char* tail_block_ = nullptr;
  std::size_t tail_off_ = 0;
  std::size_t tail_len_ = 0;

  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> io_errors_{0};
  std::atomic<std::uint64_t> appended_lsn_{0};
  std::atomic<std::uint64_t> durable_lsn_{0};
};

}  // namespace si::durability
