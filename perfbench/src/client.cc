#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

namespace perfbench {

LineClient::~LineClient() { Close(); }

void LineClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool LineClient::Connect(int port, int timeout_ms) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool LineClient::ReadLine(std::string* line) {
  for (;;) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;  // closed, error or receive timeout
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool LineClient::Request(const std::string& line, bool rows, Reply* reply) {
  reply->head.clear();
  reply->rows.clear();
  if (fd_ < 0) return false;
  const std::string wire = line + "\n";
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  if (!ReadLine(&reply->head)) return false;
  uint64_t n = 0;
  uint64_t epoch = 0;
  if (!rows || !ParseRowHead(reply->head, &n, &epoch)) return true;
  reply->rows.resize(n);
  for (std::string& row : reply->rows) {
    if (!ReadLine(&row)) return false;
  }
  return true;
}

bool ParseRowHead(const std::string& head, uint64_t* n, uint64_t* epoch) {
  unsigned long long a = 0;
  unsigned long long b = 0;
  char tail = 0;
  if (std::sscanf(head.c_str(), "OK %llu %llu%c", &a, &b, &tail) != 2) {
    return false;
  }
  *n = a;
  *epoch = b;
  return true;
}

}  // namespace perfbench
