// Minimal blocking socket layer for the dedup daemon and its remote
// clients: address parsing, listen/connect, and frame-at-a-time I/O over the
// wire.h framing. POSIX only (the rest of the repo already assumes POSIX
// file I/O).
#pragma once

#include <optional>
#include <string>

#include "common/bytes.h"
#include "server/wire.h"

namespace freqdedup::server {

/// "unix:<path>" | "tcp:<host>:<port>" | bare path (treated as unix).
struct Address {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  // unix socket path
  std::string host;  // tcp host
  uint16_t port = 0;

  [[nodiscard]] std::string str() const;
};

/// Throws std::invalid_argument on an empty or malformed address.
Address parseAddress(const std::string& s);

/// Owning fd wrapper: closes on destruction, movable, not copyable.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Binds and listens. For unix addresses an existing stale socket file is
/// unlinked first. Throws std::runtime_error on failure.
Fd listenOn(const Address& addr, int backlog = 128);

/// Connects (blocking). Throws std::runtime_error on failure.
Fd connectTo(const Address& addr);

/// Reads exactly n bytes. Returns false on clean EOF before the first byte;
/// throws std::runtime_error on mid-read EOF or I/O error.
bool readFull(int fd, uint8_t* buf, size_t n);

/// Writes all n bytes; throws std::runtime_error on error. SIGPIPE is
/// suppressed via MSG_NOSIGNAL / send().
void writeFull(int fd, const uint8_t* buf, size_t n);

/// Reads one complete frame and returns its verified payload. Returns
/// nullopt on clean EOF at a frame boundary; throws WireError on CRC
/// mismatch or oversize length, std::runtime_error on mid-frame EOF or I/O
/// error.
std::optional<ByteVec> readFrame(int fd);

/// Frames and writes one payload.
void writeFrame(int fd, ByteView payload);

}  // namespace freqdedup::server
