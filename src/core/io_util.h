// Signal-robust file-descriptor I/O.
//
// A 5-second CLI run can shrug off an interrupted write; a daemon cannot.
// Under `fsct serve`, SIGUSR1 (status dumps) and SIGTERM (drain) are
// installed *without* SA_RESTART — the accept/poll loops must wake — so any
// blocking read/write in the process can return early with EINTR or come
// back short.  Every fd-level write in the heartbeat/status/serve paths goes
// through these helpers, which retry EINTR and resume short writes until the
// whole buffer is on the wire (or a real error ends the stream).
//
// Seeing EPIPE as an *error return* (rather than a process-fatal signal)
// requires SIGPIPE to be ignored; ServeServer::run() installs SIG_IGN for
// its lifetime, so a client that hangs up mid-response fails only that
// connection's write, never the daemon.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace fsct {

/// Writes all `n` bytes of `p` to `fd`, retrying on EINTR and continuing
/// after short writes.  Returns false on any other error (EPIPE when the
/// peer hung up, EBADF after a drain closed the socket, ...); errno is left
/// at the failing call's value.
bool write_all(int fd, const void* p, std::size_t n);

/// write_all of `line` plus a trailing '\n' in a single buffer, so the line
/// reaches the fd in one write(2) when it fits the pipe/socket buffer (keeps
/// concurrent heartbeat lines from interleaving mid-line).
bool write_line(int fd, const std::string& line);

/// read(2) retrying on EINTR only.  Returns the byte count (0 = EOF) or -1
/// on a real error.
long read_retry(int fd, void* p, std::size_t n);

/// FNV-1a 64-bit over `s`: the checkpoint binding and model-cache hash.
std::uint64_t fnv1a64(const std::string& s);

}  // namespace fsct
