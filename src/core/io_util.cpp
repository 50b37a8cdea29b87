#include "core/io_util.h"

#include <cerrno>

#ifdef _WIN32
#include <io.h>
#define FSCT_IO_WRITE ::_write
#define FSCT_IO_READ ::_read
#else
#include <unistd.h>
#define FSCT_IO_WRITE ::write
#define FSCT_IO_READ ::read
#endif

namespace fsct {

bool write_all(int fd, const void* p, std::size_t n) {
  const char* cur = static_cast<const char*>(p);
  while (n > 0) {
    const auto w = FSCT_IO_WRITE(fd, cur, n);
    if (w < 0) {
      if (errno == EINTR) continue;  // a signal truncated nothing yet: retry
      return false;
    }
    // A short write is not an error: a mid-write signal (or a full socket
    // buffer draining in pieces) hands back partial progress.  Resume at the
    // first unwritten byte.
    cur += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool write_line(int fd, const std::string& line) {
  std::string buf;
  buf.reserve(line.size() + 1);
  buf = line;
  buf += '\n';
  return write_all(fd, buf.data(), buf.size());
}

long read_retry(int fd, void* p, std::size_t n) {
  for (;;) {
    const auto r = FSCT_IO_READ(fd, p, n);
    if (r >= 0) return static_cast<long>(r);
    if (errno != EINTR) return -1;
  }
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace fsct
