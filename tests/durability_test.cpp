// Durability tier (DESIGN.md §14): CRC32C check vector, log-format property
// tests (torn tail at every byte cut-point, CRC corruption, LSN gaps),
// ShardLog open/append/flush/reopen, the latched I/O error (a lost batch is
// never covered by a later flush), replay idempotence, the group-commit
// ack-gating invariant (a completion never fires before its covering LSN is
// durable), the idle-shard flush (a lone put is acked at once), the
// clean-shutdown flush (Service::stop() leaves a fully scanned,
// eof-terminated log), a failed log that never acks and refuses further
// updates, and the thread count
// (group commit runs on the shard workers, not on a thread of its own).
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "durability/crc32c.hpp"
#include "durability/log_format.hpp"
#include "durability/recover.hpp"
#include "durability/wal.hpp"
#include "runtime/runtime.hpp"
#include "serve/kv_app.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace {

using namespace si::durability;
using si::serve::KvApp;
using si::serve::KvAppConfig;
using si::serve::Request;
using si::serve::Response;
using si::serve::Service;
using si::serve::ServiceConfig;
using si::serve::Status;

/// Fresh scratch directory under /tmp, removed (with contents) on scope
/// exit. The tests only ever create shard-N.log files inside it.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/si-dur-test-XXXXXX";
    path = ::mkdtemp(tmpl);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    for (std::uint32_t s = 0; s < 64; ++s) {
      std::remove(shard_log_path(path, s).c_str());
    }
    ::rmdir(path.c_str());
  }
};

std::vector<unsigned char> read_image(const std::string& path) {
  std::vector<unsigned char> image;
  std::string err;
  EXPECT_TRUE(read_file(path, &image, &err)) << err;
  return image;
}

/// A header + `n` consecutive records (LSN 1..n), all in memory.
std::vector<unsigned char> make_image(std::uint32_t shards, std::uint32_t shard,
                                      std::size_t n) {
  std::vector<unsigned char> image(kHeaderSize);
  encode_header(image.data(), shards, shard);
  for (std::size_t i = 0; i < n; ++i) {
    LogRecord rec;
    rec.lsn = i + 1;
    rec.id = 1000 + i;
    rec.key = 7 * i;
    rec.arg = 7 * i + 1;
    rec.op = KvApp::kPut;
    unsigned char buf[kRecordSize];
    encode_record(buf, rec);
    image.insert(image.end(), buf, buf + kRecordSize);
  }
  return image;
}

// --- CRC32C ------------------------------------------------------------------

TEST(Crc32c, CheckVector) {
  // The universal CRC-32C check vector (iSCSI, ext4, LevelDB all agree).
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32c, IncrementalSeedMatchesOneShot) {
  const char* msg = "the quick brown fox jumps over the lazy dog";
  const std::size_t len = std::strlen(msg);
  const std::uint32_t whole = crc32c(msg, len);
  for (std::size_t split = 0; split <= len; ++split) {
    const std::uint32_t first = crc32c(msg, split);
    EXPECT_EQ(crc32c(msg + split, len - split, first), whole) << split;
  }
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(crc32c("", 0), 0u); }

// --- log format --------------------------------------------------------------

TEST(LogFormat, HeaderRoundTrip) {
  unsigned char buf[kHeaderSize];
  encode_header(buf, 8, 5);
  LogHeader h;
  ASSERT_TRUE(decode_header(buf, sizeof(buf), &h));
  EXPECT_EQ(h.shards, 8u);
  EXPECT_EQ(h.shard, 5u);
}

TEST(LogFormat, HeaderRejectsBadMagicShortBufferAndBadShape) {
  unsigned char buf[kHeaderSize];
  LogHeader h;
  encode_header(buf, 8, 5);
  EXPECT_FALSE(decode_header(buf, kHeaderSize - 1, &h));  // short
  buf[0] ^= 0xFF;
  EXPECT_FALSE(decode_header(buf, kHeaderSize, &h));  // magic
  encode_header(buf, 4, 4);                           // shard >= shards
  EXPECT_FALSE(decode_header(buf, kHeaderSize, &h));
  encode_header(buf, 0, 0);  // zero shards
  EXPECT_FALSE(decode_header(buf, kHeaderSize, &h));
}

TEST(LogFormat, RecordRoundTrip) {
  LogRecord in;
  in.lsn = 42;
  in.id = 0xDEADBEEFCAFEULL;
  in.key = 123456789;
  in.arg = 987654321;
  in.op = KvApp::kDel;
  unsigned char buf[kRecordSize];
  encode_record(buf, in);
  LogRecord out;
  ASSERT_TRUE(decode_record(buf, &out));
  EXPECT_EQ(out.lsn, in.lsn);
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.key, in.key);
  EXPECT_EQ(out.arg, in.arg);
  EXPECT_EQ(out.op, in.op);
  EXPECT_EQ(out.flags, 0);
}

TEST(LogFormat, EveryBitFlipIsDetected) {
  LogRecord in;
  in.lsn = 1;
  in.id = 7;
  in.key = 9;
  in.arg = 11;
  in.op = KvApp::kPut;
  unsigned char buf[kRecordSize];
  encode_record(buf, in);
  LogRecord out;
  for (std::size_t byte = 0; byte < kRecordSize; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] ^= static_cast<unsigned char>(1 << bit);
      EXPECT_FALSE(decode_record(buf, &out)) << byte << ":" << bit;
      buf[byte] ^= static_cast<unsigned char>(1 << bit);
    }
  }
  EXPECT_TRUE(decode_record(buf, &out));  // restored intact
}

// The central crash property: cut the file at EVERY byte offset and the scan
// must recover exactly the complete-record prefix, never more.
TEST(LogFormat, TornTailAtEveryCutPoint) {
  const std::size_t n = 5;
  const std::vector<unsigned char> image = make_image(2, 0, n);
  ASSERT_EQ(image.size(), kHeaderSize + n * kRecordSize);
  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    const ScanResult r = scan_log(image.data(), cut);
    if (cut < kHeaderSize) {
      EXPECT_EQ(r.end, ScanEnd::kBadHeader) << cut;
      EXPECT_FALSE(r.header_ok()) << cut;
      EXPECT_EQ(r.torn_bytes, cut) << cut;
      continue;
    }
    const std::size_t expect_records = (cut - kHeaderSize) / kRecordSize;
    EXPECT_EQ(r.records.size(), expect_records) << cut;
    EXPECT_EQ(r.last_lsn, expect_records) << cut;
    EXPECT_EQ(r.valid_bytes, kHeaderSize + expect_records * kRecordSize) << cut;
    EXPECT_EQ(r.torn_bytes, cut - r.valid_bytes) << cut;
    const bool on_boundary = (cut - kHeaderSize) % kRecordSize == 0;
    EXPECT_EQ(r.end, on_boundary ? ScanEnd::kEof : ScanEnd::kTorn) << cut;
  }
}

TEST(LogFormat, CorruptionMidLogEndsTheTrustedPrefix) {
  std::vector<unsigned char> image = make_image(1, 0, 5);
  // Flip one payload byte in record 3 (index 2): records 1-2 stay trusted,
  // 3-5 become the torn tail even though 4 and 5 checksum fine — a hole in
  // the middle means the tail's provenance is unknowable.
  image[kHeaderSize + 2 * kRecordSize + 16] ^= 0x01;
  const ScanResult r = scan_log(image.data(), image.size());
  EXPECT_EQ(r.end, ScanEnd::kTorn);
  EXPECT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.last_lsn, 2u);
  EXPECT_EQ(r.torn_bytes, 3 * kRecordSize);
}

TEST(LogFormat, LsnGapEndsTheTrustedPrefix) {
  std::vector<unsigned char> image(kHeaderSize);
  encode_header(image.data(), 1, 0);
  for (std::uint64_t lsn : {1, 2, 4}) {  // 3 is missing
    LogRecord rec;
    rec.lsn = lsn;
    rec.id = lsn;
    rec.op = KvApp::kPut;
    unsigned char buf[kRecordSize];
    encode_record(buf, rec);
    image.insert(image.end(), buf, buf + kRecordSize);
  }
  const ScanResult r = scan_log(image.data(), image.size());
  EXPECT_EQ(r.end, ScanEnd::kLsnGap);
  EXPECT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.last_lsn, 2u);
}

TEST(LogFormat, ZeroFilledODirectPaddingScansAsTorn) {
  std::vector<unsigned char> image = make_image(1, 0, 3);
  image.resize(image.size() + 1024, 0);  // block-rounding zeros
  const ScanResult r = scan_log(image.data(), image.size());
  EXPECT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.end, ScanEnd::kTorn);
  EXPECT_EQ(r.torn_bytes, 1024u);
}

// --- ShardLog ----------------------------------------------------------------

TEST(ShardLog, AppendFlushReopenContinuesLsns) {
  TempDir dir;
  std::string err;
  {
    ShardLog log;
    ASSERT_TRUE(log.open(dir.path, 0, 1, DurabilityMode::kFsync, &err)) << err;
    EXPECT_EQ(log.append(100, 1, 11, KvApp::kPut), 1u);
    EXPECT_EQ(log.append(101, 2, 22, KvApp::kPut), 2u);
    EXPECT_EQ(log.durable_lsn(), 0u);  // nothing flushed yet
    log.flush();
    EXPECT_EQ(log.durable_lsn(), 2u);
    const ShardLogStats s = log.stats();
    EXPECT_EQ(s.appends, 2u);
    EXPECT_EQ(s.bytes, 2 * kRecordSize);
    EXPECT_EQ(s.fsyncs, 1u);
    EXPECT_EQ(s.io_errors, 0u);
  }
  {
    ShardLog log;
    ASSERT_TRUE(log.open(dir.path, 0, 1, DurabilityMode::kFsync, &err)) << err;
    EXPECT_EQ(log.truncated_bytes(), 0u);
    EXPECT_EQ(log.durable_lsn(), 2u);  // trusted prefix carried over
    EXPECT_EQ(log.append(102, 3, 33, KvApp::kDel), 3u);
    log.flush();
  }
  const ScanResult r = [&] {
    const auto image = read_image(shard_log_path(dir.path, 0));
    return scan_log(image.data(), image.size());
  }();
  EXPECT_EQ(r.end, ScanEnd::kEof);
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[2].id, 102u);
  EXPECT_EQ(r.records[2].op, KvApp::kDel);
}

TEST(ShardLog, ReopenTruncatesTornTail) {
  TempDir dir;
  std::string err;
  {
    ShardLog log;
    ASSERT_TRUE(log.open(dir.path, 0, 1, DurabilityMode::kBuffered, &err));
    log.append(1, 1, 1, KvApp::kPut);
    log.flush();
  }
  {  // simulate a crash mid-record: append half a record of garbage
    std::FILE* f = std::fopen(shard_log_path(dir.path, 0).c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char junk[17] = "torn-tail-bytes!";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  {
    ShardLog log;
    ASSERT_TRUE(log.open(dir.path, 0, 1, DurabilityMode::kBuffered, &err));
    EXPECT_EQ(log.truncated_bytes(), 17u);
    EXPECT_EQ(log.append(2, 2, 2, KvApp::kPut), 2u);  // LSNs continue
    log.flush();
  }
  const auto image = read_image(shard_log_path(dir.path, 0));
  const ScanResult r = scan_log(image.data(), image.size());
  EXPECT_EQ(r.end, ScanEnd::kEof);
  EXPECT_EQ(r.records.size(), 2u);
}

TEST(ShardLog, RefusesShardLayoutMismatch) {
  TempDir dir;
  std::string err;
  {
    ShardLog log;
    ASSERT_TRUE(log.open(dir.path, 0, 2, DurabilityMode::kBuffered, &err));
    log.append(1, 1, 1, KvApp::kPut);
    log.flush();
  }
  ShardLog log;
  EXPECT_FALSE(log.open(dir.path, 0, 4, DurabilityMode::kBuffered, &err));
  EXPECT_NE(err.find("mismatch"), std::string::npos) << err;
}

TEST(ShardLog, ODirectModeOpensOrFallsBackAndStaysScannable) {
  // tmpfs refuses O_DIRECT, so this exercises either the direct path or the
  // documented fsync fallback depending on where /tmp lives — both must
  // yield a log whose trusted prefix is exactly what was appended.
  TempDir dir;
  std::string err;
  ShardLog log;
  ASSERT_TRUE(log.open(dir.path, 0, 1, DurabilityMode::kODirect, &err)) << err;
  for (std::uint64_t i = 1; i <= 200; ++i) {
    log.append(i, i, i, KvApp::kPut);
    if (i % 7 == 0) log.flush();
  }
  log.flush();
  EXPECT_EQ(log.durable_lsn(), 200u);
  log.close();
  const auto image = read_image(shard_log_path(dir.path, 0));
  const ScanResult r = scan_log(image.data(), image.size());
  ASSERT_EQ(r.records.size(), 200u);
  EXPECT_EQ(r.last_lsn, 200u);
  if (log.fallback()) {
    EXPECT_EQ(r.end, ScanEnd::kEof);
  } else {
    // Direct I/O rounds the file to 4 KiB; the padding must scan as torn.
    EXPECT_TRUE(r.end == ScanEnd::kEof || r.end == ScanEnd::kTorn);
  }
}

/// The descriptor this process holds open on `path`, found by resolving
/// every /proc/self/fd link; -1 if none.
int open_fd_of(const std::string& path) {
  char want[PATH_MAX];
  if (::realpath(path.c_str(), want) == nullptr) return -1;
  DIR* fds = ::opendir("/proc/self/fd");
  if (fds == nullptr) return -1;
  int found = -1;
  while (const dirent* e = ::readdir(fds)) {
    const std::string link = std::string("/proc/self/fd/") + e->d_name;
    char target[PATH_MAX];
    const ssize_t n = ::readlink(link.c_str(), target, sizeof(target) - 1);
    if (n <= 0) continue;
    target[n] = '\0';
    if (std::strcmp(target, want) == 0) {
      found = std::atoi(e->d_name);
      break;
    }
  }
  ::closedir(fds);
  return found;
}

// A write that fails (here: ENOSPC from /dev/full swapped in under the log's
// descriptor) loses its batch. The error is latched: once the disk is back,
// a later flush must not advance durable_lsn past the lost record, or the
// ack held for it would be released for a write that is not on disk.
TEST(ShardLog, FailedFlushLatchesSoLostRecordsAreNeverDurable) {
  TempDir dir;
  std::string err;
  ShardLog log;
  ASSERT_TRUE(log.open(dir.path, 0, 1, DurabilityMode::kBuffered, &err)) << err;
  EXPECT_EQ(log.append(1, 1, 11, KvApp::kPut), 1u);
  log.flush();
  ASSERT_EQ(log.durable_lsn(), 1u);

  const int fd = open_fd_of(log.path());
  ASSERT_GE(fd, 0);
  const int saved = ::dup(fd);
  const int full = ::open("/dev/full", O_WRONLY);
  ASSERT_GE(saved, 0);
  ASSERT_GE(full, 0);
  ASSERT_EQ(::dup2(full, fd), fd);
  const std::uint64_t lost = log.append(2, 2, 22, KvApp::kPut);
  log.flush();  // write() fails: the batch holding `lost` is gone
  ASSERT_EQ(::dup2(saved, fd), fd);
  ::close(saved);
  ::close(full);
  EXPECT_EQ(log.stats().io_errors, 1u);
  EXPECT_EQ(log.durable_lsn(), 1u);

  log.append(3, 3, 33, KvApp::kPut);
  log.flush();  // the disk works again, but the log is already broken
  EXPECT_LT(log.durable_lsn(), lost);
  log.close();

  // What is on disk is still a gap-free prefix: record 1 only.
  const auto image = read_image(shard_log_path(dir.path, 0));
  const ScanResult r = scan_log(image.data(), image.size());
  EXPECT_EQ(r.end, ScanEnd::kEof);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.last_lsn, 1u);
}

// --- recovery ----------------------------------------------------------------

KvAppConfig small_app_cfg() {
  KvAppConfig cfg;
  cfg.buckets = 64;
  cfg.seed_elements = 0;  // deterministic: state is exactly the replayed log
  cfg.key_space = 1000;
  return cfg;
}

std::uint64_t get_value(KvApp& app, si::runtime::Runtime& rt,
                        std::uint64_t key) {
  Request req;
  req.op = KvApp::kGet;
  req.key = key;
  req.ro = true;
  Response resp;
  app.execute(rt, 0, req, &resp);
  EXPECT_EQ(resp.status, Status::kOk);
  return resp.value;
}

TEST(Recovery, ReplaysTrustedPrefixAndIsIdempotent) {
  TempDir dir;
  std::string err;
  {
    ShardLog log;
    ASSERT_TRUE(log.open(dir.path, 0, 1, DurabilityMode::kBuffered, &err));
    for (std::uint64_t k = 0; k < 50; ++k) log.append(k, k, k + 7, KvApp::kPut);
    log.append(50, 3, 0, KvApp::kDel);   // delete key 3 again
    log.append(51, 5, 999, KvApp::kPut); // overwrite key 5
    log.flush();
  }

  si::runtime::RuntimeConfig rcfg;
  rcfg.max_threads = 1;

  KvApp once(small_app_cfg(), 1);
  si::runtime::Runtime rt_once(rcfg);
  const RecoveryReport rep = recover_into(once, rt_once, dir.path);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.replayed, 52u);
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.torn_bytes, 0u);
  EXPECT_EQ(rep.last_lsn_sum, 52u);

  // Idempotence: replaying the same trusted prefix twice into one app ends
  // in the same state as replaying it once into a fresh app (puts are
  // last-writer-wins, dels absorbing).
  KvApp twice(small_app_cfg(), 1);
  si::runtime::Runtime rt_twice(rcfg);
  ASSERT_TRUE(recover_into(twice, rt_twice, dir.path).ok);
  ASSERT_TRUE(recover_into(twice, rt_twice, dir.path).ok);

  for (std::uint64_t k = 0; k < 50; ++k) {
    const std::uint64_t expect = k == 3 ? 0 : (k == 5 ? 999 : k + 7);
    EXPECT_EQ(get_value(once, rt_once, k), expect) << k;
    EXPECT_EQ(get_value(twice, rt_twice, k), expect) << k;
  }
}

TEST(Recovery, ScanDirRejectsMixedLayouts) {
  TempDir dir;
  std::string err;
  {
    ShardLog a;
    ASSERT_TRUE(a.open(dir.path, 0, 2, DurabilityMode::kBuffered, &err));
    a.append(1, 1, 1, KvApp::kPut);
    a.flush();
  }
  {  // hand-write shard 1 with a disagreeing shard count
    std::vector<unsigned char> image(kHeaderSize);
    encode_header(image.data(), 3, 1);
    std::FILE* f = std::fopen(shard_log_path(dir.path, 1).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(image.data(), 1, image.size(), f);
    std::fclose(f);
  }
  std::vector<ShardScan> scans;
  EXPECT_FALSE(scan_dir(dir.path, &scans, &err));
  EXPECT_NE(err.find("mismatch"), std::string::npos) << err;
}

// --- service integration -----------------------------------------------------

TEST(ServiceDurability, ThrowsWithoutLogDir) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.durability.mode = DurabilityMode::kBuffered;  // dir left empty
  KvApp app(small_app_cfg(), 1);
  EXPECT_THROW((Service<KvApp>(app, cfg)), std::invalid_argument);
}

// The group-commit latency/ordering invariant: no completion may fire before
// the shard's durable LSN covers the response's LSN.
TEST(ServiceDurability, AcksNeverPrecedeTheCoveringFsync) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.queue_capacity = 256;
  cfg.durability.mode = DurabilityMode::kFsync;
  cfg.durability.dir = dir.path;
  KvApp app(small_app_cfg(), cfg.shards);
  Service<KvApp> svc(app, cfg);

  struct Ctx {
    Service<KvApp>* svc;
    int shard;
    std::atomic<std::uint64_t> acked{0};
    std::atomic<std::uint64_t> violations{0};
    std::atomic<std::uint64_t> max_lsn{0};
  } ctx{&svc, 0};

  const std::uint64_t kWrites = 500;
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    Request req;
    req.id = i;
    req.op = KvApp::kPut;
    req.key = i % 100;
    req.arg = i;
    req.ctx = &ctx;
    req.done = [](void* c, const Response& resp) {
      auto* x = static_cast<Ctx*>(c);
      // The ack-gating contract, checked at the only moment it can be
      // checked: inside the completion itself.
      if (resp.lsn == 0 || x->svc->durable_lsn(x->shard) < resp.lsn) {
        x->violations.fetch_add(1, std::memory_order_relaxed);
      }
      std::uint64_t seen = x->max_lsn.load(std::memory_order_relaxed);
      while (seen < resp.lsn &&
             !x->max_lsn.compare_exchange_weak(seen, resp.lsn)) {
      }
      x->acked.fetch_add(1, std::memory_order_release);
    };
    if (svc.submit_to(ctx.shard, req).accepted()) {
      ++accepted;
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      --i;  // bounded queue: retry until accepted (closed loop)
    }
  }
  while (ctx.acked.load(std::memory_order_acquire) < accepted) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ctx.violations.load(), 0u);
  EXPECT_EQ(ctx.max_lsn.load(), accepted);  // shard 0 logged every put
  svc.stop();
  EXPECT_GE(svc.durability_stats().fsyncs, 1u);
  EXPECT_EQ(svc.durability_stats().acks_held, 0u);
}

// A lone put on an otherwise idle shard drains the queue, so the worker
// flushes it and acks it at once, with no timer to wait out, and still
// never before its covering LSN is durable.
TEST(ServiceDurability, IdleShardFlushesWithoutTheTick) {
  TempDir dir;
  struct Ctx {
    Service<KvApp>* svc = nullptr;
    std::atomic<bool> acked{false};
    std::atomic<bool> covered{false};
  } ctx;
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.durability.mode = DurabilityMode::kFsync;
  cfg.durability.dir = dir.path;
  KvApp app(small_app_cfg(), cfg.shards);
  Service<KvApp> svc(app, cfg);
  ctx.svc = &svc;

  Request req;
  req.id = 1;
  req.op = KvApp::kPut;
  req.key = 7;
  req.arg = 8;
  req.ctx = &ctx;
  req.done = [](void* c, const Response& resp) {
    auto* x = static_cast<Ctx*>(c);
    x->covered.store(resp.lsn > 0 && x->svc->durable_lsn(0) >= resp.lsn,
                     std::memory_order_relaxed);
    x->acked.store(true, std::memory_order_release);
  };
  ASSERT_TRUE(svc.submit_to(0, req).accepted());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (!ctx.acked.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ctx.acked.load(std::memory_order_acquire))
      << "the lone put was not acked within 1 s";
  EXPECT_TRUE(ctx.covered.load(std::memory_order_relaxed));
  svc.stop();
  EXPECT_EQ(svc.durability_stats().acks_held, 0u);
}

/// Threads in this process: the entries of /proc/self/task.
int thread_count() {
  DIR* tasks = ::opendir("/proc/self/task");
  if (tasks == nullptr) return -1;
  int n = 0;
  while (const dirent* e = ::readdir(tasks)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(tasks);
  return n;
}

// Group commit runs on the shard workers: with AIMD and telemetry off (no
// epoch thread), a durable Service starts exactly one thread per shard.
TEST(ServiceDurability, RunsNoThreadBeyondTheShardWorkers) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.durability.mode = DurabilityMode::kFsync;
  cfg.durability.dir = dir.path;
  KvApp app(small_app_cfg(), cfg.shards);
  // ThreadSanitizer starts a helper thread on the first thread creation;
  // create one first so the helper is already in `before`.
  std::thread([] {}).join();
  const int before = thread_count();
  ASSERT_GT(before, 0);
  Service<KvApp> svc(app, cfg);
  EXPECT_EQ(thread_count() - before, cfg.shards);
  svc.stop();
}

// A failed log never acks: with ENOSPC (/dev/full swapped in under shard
// 0's log descriptor) the first flush fails and latches, so the durable LSN
// never covers the puts executed before it, their acks stay held and are
// counted as such, and stop() still returns. Fail-stop: every later put is
// answered kFailed without executing or reaching the log.
TEST(ServiceDurability, FailedLogNeverAcks) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.durability.mode = DurabilityMode::kFsync;
  cfg.durability.dir = dir.path;
  KvApp app(small_app_cfg(), cfg.shards);
  Service<KvApp> svc(app, cfg);

  const int fd = open_fd_of(shard_log_path(dir.path, 0));
  ASSERT_GE(fd, 0);
  const int saved = ::dup(fd);
  const int full = ::open("/dev/full", O_WRONLY);
  ASSERT_GE(saved, 0);
  ASSERT_GE(full, 0);
  ASSERT_EQ(::dup2(full, fd), fd);
  const std::uint64_t durable_before = svc.durable_lsn(0);

  const std::uint64_t kPuts = 100;
  struct Answers {
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> failed{0};
  } answers;
  for (std::uint64_t i = 0; i < kPuts; ++i) {
    Request req;
    req.id = i;
    req.op = KvApp::kPut;
    req.key = i;
    req.arg = i + 1;
    req.ctx = &answers;
    req.done = [](void* c, const Response& resp) {
      auto* a = static_cast<Answers*>(c);
      (resp.status == Status::kOk ? a->ok : a->failed)
          .fetch_add(1, std::memory_order_relaxed);
    };
    EXPECT_TRUE(svc.submit_to(0, req).accepted());
  }
  // The puts before the first flush execute and are appended, and their
  // acks end up held; every put after it is refused.
  const auto held_plus_failed = [&] {
    return svc.durability_stats().acks_held + answers.failed.load();
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (held_plus_failed() < kPuts &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t held = svc.durability_stats().acks_held;
  EXPECT_EQ(held_plus_failed(), kPuts);
  EXPECT_GE(held, 1u);
  // The first group closes within two batches (batch_max 32 each).
  EXPECT_LT(held, kPuts) << "updates kept executing on a failed log";
  EXPECT_EQ(answers.ok.load(), 0u);
  EXPECT_GE(svc.durability_stats().io_errors, 1u);
  EXPECT_EQ(svc.durable_lsn(0), durable_before);
  EXPECT_EQ(svc.appended_lsn(0), durable_before + held);

  svc.stop();  // must return although shard 0's acks can never be released
  EXPECT_EQ(answers.ok.load(), 0u);
  EXPECT_EQ(answers.failed.load(), kPuts - held);
  EXPECT_EQ(svc.counters().failed, kPuts - held);
  EXPECT_EQ(svc.durable_lsn(0), durable_before);
  EXPECT_EQ(svc.durability_stats().acks_held, held);
  ASSERT_EQ(::dup2(saved, fd), fd);
  ::close(saved);
  ::close(full);
}

// KvApp whose execute() spins until the gate opens, so a test can hold the
// shard workers inside their first request for as long as it needs.
struct GatedKvApp {
  KvApp& inner;
  std::atomic<bool>& open;
  static bool logged_op(std::uint16_t op) noexcept {
    return KvApp::logged_op(op);
  }
  void execute(si::runtime::Runtime& rt, int tid, const Request& req,
               Response* resp) {
    while (!open.load(std::memory_order_acquire)) std::this_thread::yield();
    inner.execute(rt, tid, req, resp);
  }
};

// A clean stop() flushes and fsyncs the buffered tail, so a SIGTERM drain is
// recoverable with zero replay loss — the file scans to exactly eof with
// every acked write present.
TEST(ServiceDurability, StopFlushesBufferedTailForCleanRecovery) {
  TempDir dir;
  const std::uint64_t kWrites = 200;
  {
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.durability.mode = DurabilityMode::kBuffered;
    cfg.durability.dir = dir.path;
    // A worker flushes only after it has served a request. The gate holds
    // every worker inside the first request of its first batch until stop()
    // has begun, so nothing reaches the file before that: the flushes of
    // the draining workers are the only way the tail gets there.
    KvApp inner(small_app_cfg(), cfg.shards);
    std::atomic<bool> open{false};
    GatedKvApp app{inner, open};
    Service<GatedKvApp> svc(app, cfg);
    std::atomic<std::uint64_t> acked{0};
    for (std::uint64_t k = 0; k < kWrites; ++k) {
      Request req;
      req.id = k;
      req.op = KvApp::kPut;
      req.key = k;
      req.arg = k + 1;
      req.ctx = &acked;
      req.done = [](void* c, const Response& resp) {
        EXPECT_EQ(resp.status, Status::kOk);
        EXPECT_GT(resp.lsn, 0u);
        static_cast<std::atomic<std::uint64_t>*>(c)->fetch_add(
            1, std::memory_order_relaxed);
      };
      // EXPECT, not ASSERT: returning here would leave the workers gated
      // and the destructor's stop() waiting for them.
      EXPECT_TRUE(svc.submit(req).accepted());
    }
    std::thread stopper([&] { svc.stop(); });
    // A refused probe proves stop() has begun; the read-only probes that
    // were still accepted append nothing.
    Request probe;
    probe.op = KvApp::kGet;
    probe.ro = true;
    while (svc.submit(probe).admit != si::serve::Admit::kStopped) {
      std::this_thread::yield();
    }
    EXPECT_EQ(svc.durability_stats().flushes, 0u);
    open.store(true, std::memory_order_release);
    stopper.join();  // workers drain, then flush and release what they held
    EXPECT_EQ(acked.load(), kWrites);
    EXPECT_EQ(svc.durability_stats().acks_held, 0u);
    EXPECT_EQ(svc.durability_stats().appends, kWrites);
  }

  // Every shard file scans clean, and together they hold all acked writes.
  std::vector<ShardScan> scans;
  std::string err;
  ASSERT_TRUE(scan_dir(dir.path, &scans, &err)) << err;
  ASSERT_EQ(scans.size(), 2u);
  std::size_t total = 0;
  for (const auto& s : scans) {
    EXPECT_EQ(s.scan.end, ScanEnd::kEof) << s.path;
    total += s.scan.records.size();
  }
  EXPECT_EQ(total, kWrites);

  // And replaying them reproduces the acked state exactly.
  si::runtime::RuntimeConfig rcfg;
  rcfg.max_threads = 1;
  KvApp fresh(small_app_cfg(), 1);
  si::runtime::Runtime rt(rcfg);
  const RecoveryReport rep = recover_into(fresh, rt, dir.path);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.replayed, kWrites);
  EXPECT_EQ(rep.failed, 0u);
  for (std::uint64_t k = 0; k < kWrites; ++k) {
    EXPECT_EQ(get_value(fresh, rt, k), k + 1) << k;
  }
}

// End-to-end with natural key routing: puts spread over both shards, the
// per-key single-shard invariant makes per-shard LSN-order replay correct.
TEST(ServiceDurability, RecoveryReproducesRoutedWrites) {
  TempDir dir;
  const std::uint64_t kKeys = 300;
  {
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.durability.mode = DurabilityMode::kFsync;
    cfg.durability.dir = dir.path;
    KvApp app(small_app_cfg(), cfg.shards);
    Service<KvApp> svc(app, cfg);
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      Response resp;
      Request req;
      req.id = k;
      req.op = KvApp::kPut;
      req.key = k;
      req.arg = k * 3 + 1;
      ASSERT_TRUE(svc.call(req, &resp));
    }
    // Overwrite a few and delete a few — replay must honour per-key order.
    for (std::uint64_t k = 0; k < kKeys; k += 10) {
      Response resp;
      Request req;
      req.id = 1000 + k;
      req.op = (k % 20 == 0) ? KvApp::kDel : KvApp::kPut;
      req.key = k;
      req.arg = 4242;
      ASSERT_TRUE(svc.call(req, &resp));
    }
    svc.stop();
  }
  si::runtime::RuntimeConfig rcfg;
  rcfg.max_threads = 1;
  KvApp fresh(small_app_cfg(), 1);
  si::runtime::Runtime rt(rcfg);
  const RecoveryReport rep = recover_into(fresh, rt, dir.path);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.shards, 2u);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    std::uint64_t expect = k * 3 + 1;
    if (k % 20 == 0) expect = 0;          // deleted
    else if (k % 10 == 0) expect = 4242;  // overwritten
    EXPECT_EQ(get_value(fresh, rt, k), expect) << k;
  }
}

}  // namespace
