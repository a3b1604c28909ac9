#include "obs/lockfile.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace blunt::obs {

namespace {

std::atomic<std::int64_t> g_lock_retries{0};

[[nodiscard]] std::uint64_t splitmix64_local(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): detects every
/// single-bit error, which is what the journal frame is for.
[[nodiscard]] std::uint32_t crc32(const std::string& bytes) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFU;
  for (const char ch : bytes) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

}  // namespace

std::int64_t lock_backoff_us(const LockRetryPolicy& p, int attempt) {
  if (attempt < 0) attempt = 0;
  if (attempt > 20) attempt = 20;  // cap the exponent, not the caller
  const std::int64_t base = p.base_backoff_us > 0 ? p.base_backoff_us : 1;
  const std::int64_t exp = base << attempt;
  const std::uint64_t jitter = splitmix64_local(
      p.seed ^ (0x6c6f636bULL + static_cast<std::uint64_t>(attempt)));
  return exp + static_cast<std::int64_t>(
                   jitter % static_cast<std::uint64_t>(exp));
}

bool acquire_file_lock(int fd, const LockRetryPolicy& p) {
  for (int attempt = 0; attempt < p.max_retries; ++attempt) {
    if (::flock(fd, LOCK_EX | LOCK_NB) == 0) return true;
    if (errno != EWOULDBLOCK && errno != EINTR) return false;  // ENOTSUP etc.
    g_lock_retries.fetch_add(1, std::memory_order_relaxed);
    ::usleep(static_cast<useconds_t>(lock_backoff_us(p, attempt)));
  }
  // Final blocking attempt: EINTR here means "interrupted while waiting",
  // not "unavailable" — retry (counted), never abandon the lock to a signal.
  while (::flock(fd, LOCK_EX) != 0) {
    if (errno != EINTR) return false;
    g_lock_retries.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void release_file_lock(int fd) {
  while (::flock(fd, LOCK_UN) != 0 && errno == EINTR) {
  }
}

void locked_append(const std::string& path, const std::string& line,
                   const LockRetryPolicy& p) {
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("locked_append: cannot open " + path);
  const bool locked = acquire_file_lock(fd, p);
  // Under the lock the file's end is stable: if a killed writer left a torn
  // tail without its newline, seal it first so this record starts a line.
  struct stat st {};
  char last = '\n';
  if (::fstat(fd, &st) == 0 && st.st_size > 0 &&
      ::pread(fd, &last, 1, st.st_size - 1) != 1) {
    last = '\n';
  }
  const std::string out = last == '\n' ? line : "\n" + line;
  const char* data = out.data();
  std::size_t left = out.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (locked) release_file_lock(fd);
      ::close(fd);
      throw std::runtime_error("locked_append: write failed for " + path);
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  if (locked) release_file_lock(fd);
  if (::close(fd) != 0) {
    throw std::runtime_error("locked_append: close failed for " + path);
  }
}

std::string journal_line(const Json& record) {
  if (!record.is_object() || record.as_object().empty()) {
    throw std::invalid_argument(
        "journal_line: a record must be a non-empty JSON object");
  }
  const std::string body = record.dump();
  char tail[32];
  std::snprintf(tail, sizeof(tail), ",\"crc32\":\"%08x\"}\n",
                static_cast<unsigned>(crc32(body)));
  return body.substr(0, body.size() - 1) + tail;
}

std::optional<Json> decode_journal_line(const std::string& line) {
  // A framed line ends in the 20-byte shape  ,"crc32":"xxxxxxxx"}. Anything
  // ending in that SHAPE must carry exactly that key and a matching
  // lowercase-hex CRC: a flipped bit in the key or the digits then fails
  // here instead of falling back to the unframed path below.
  constexpr std::size_t kTail = 20;
  const std::size_t n = line.size();
  const bool framed = n > kTail && line.compare(n - kTail, 2, ",\"") == 0 &&
                      line.compare(n - 13, 3, "\":\"") == 0 &&
                      line.compare(n - 2, 2, "\"}") == 0;
  std::string body;
  if (framed) {
    if (line.compare(n - 18, 5, "crc32") != 0) return std::nullopt;
    std::uint32_t want = 0;
    for (std::size_t i = n - 10; i < n - 2; ++i) {
      const char c = line[i];
      const int digit = c >= '0' && c <= '9'   ? c - '0'
                        : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                               : -1;
      if (digit < 0) return std::nullopt;
      want = (want << 4) | static_cast<std::uint32_t>(digit);
    }
    body = line.substr(0, n - kTail) + "}";
    if (crc32(body) != want) return std::nullopt;
  }
  try {
    Json j = Json::parse(framed ? body : line);
    if (!j.is_object()) return std::nullopt;
    return j;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

int read_journal(const std::string& path,
                 const std::function<bool(const Json&)>& accept) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  int skipped = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    bool ok = false;
    if (const std::optional<Json> j = decode_journal_line(line)) {
      try {
        ok = accept(*j);
      } catch (...) {
        ok = false;
      }
    }
    if (!ok) ++skipped;
  }
  return skipped;
}

std::int64_t lock_retries() {
  return g_lock_retries.load(std::memory_order_relaxed);
}

void reset_lock_retries() {
  g_lock_retries.store(0, std::memory_order_relaxed);
}

}  // namespace blunt::obs
