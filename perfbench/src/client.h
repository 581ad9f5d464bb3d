// Blocking line-protocol client for QueryServer (src/server/server.h),
// one request in flight per connection — the closed-loop caller the
// serve_rw readers and writer are made of.

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A server reply: the status line, plus the row lines that follow an
/// "OK <n> <epoch>" reply to JOIN / TOPK / PROBE.
struct Reply {
  std::string head;
  std::vector<std::string> rows;
  bool ok() const { return head.rfind("OK", 0) == 0; }
};

class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Connects to 127.0.0.1:port. Receives time out after `timeout_ms`, so
  /// a stuck server fails the request instead of hanging the run.
  bool Connect(int port, int timeout_ms = 60000);

  /// Sends `line` and reads the whole reply. With `rows`, an OK head
  /// "OK <n> <epoch>" is followed by n row lines, which are read too.
  /// False on a transport failure (not on an ERR reply).
  bool Request(const std::string& line, bool rows, Reply* reply);

  void Close();

 private:
  bool ReadLine(std::string* line);

  int fd_ = -1;
  std::string buffer_;
};

/// Parses the row count of an "OK <n> <epoch>" head; false otherwise.
bool ParseRowHead(const std::string& head, uint64_t* n, uint64_t* epoch);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
