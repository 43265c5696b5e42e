#include "obs/http/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/build_info.h"
#include "obs/http/prometheus.h"
#include "obs/statusz.h"

namespace icrowd {
namespace obs {

namespace {

/// Accept-loop poll granularity: the latency bound on Stop() noticing the
/// stop flag when no request is in flight.
constexpr int kPollMillis = 50;

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Payload Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

std::string MakeResponse(int status, const std::string& content_type,
                         const std::string& body) {
  std::ostringstream out;
  out << "HTTP/1.1 " << status << " " << StatusText(status) << "\r\n";
  out << "Content-Type: " << content_type << "\r\n";
  out << "Content-Length: " << body.size() << "\r\n";
  if (status == 405) out << "Allow: GET\r\n";
  out << "Connection: close\r\n\r\n";
  out << body;
  return out.str();
}

constexpr const char kTextType[] = "text/plain; charset=utf-8";
constexpr const char kJsonType[] = "application/json";
/// Exposition format 0.0.4's required content type.
constexpr const char kPrometheusType[] =
    "text/plain; version=0.0.4; charset=utf-8";

/// True when the request target's query string asks for ?format=json.
bool WantsJson(const std::string& query) {
  size_t pos = 0;
  while (pos <= query.size()) {
    const size_t amp = std::min(query.find('&', pos), query.size());
    if (query.compare(pos, amp - pos, "format=json") == 0) return true;
    pos = amp + 1;
  }
  return false;
}

void SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;  // client went away; nothing to do about it
    off += static_cast<size_t>(n);
  }
}

}  // namespace

ObsServer::ObsServer() : ObsServer(Options()) {}

ObsServer::ObsServer(Options options) : options_(std::move(options)) {}

ObsServer::~ObsServer() { Stop(); }

bool ObsServer::running() const {
  MutexLock lock(mu_);
  return thread_ != nullptr;
}

bool ObsServer::Start() {
  {
    MutexLock lock(mu_);
    if (thread_ != nullptr) {
      std::fprintf(stderr, "obs: ObsServer already running on port %d\n",
                   port_.load(std::memory_order_relaxed));
      return false;
    }
    stopping_ = false;
    loop_exited_ = false;
  }
  // Socket setup is synchronous so a bad bind address or a taken port
  // fails the Start() call itself instead of surfacing later from the
  // serve thread.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "obs: socket() failed: %s\n", std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    std::fprintf(stderr, "obs: bad bind address '%s'\n",
                 options_.bind_address.c_str());
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::fprintf(stderr, "obs: bind %s:%d failed: %s\n",
                 options_.bind_address.c_str(), options_.port,
                 std::strerror(errno));
    ::close(fd);
    return false;
  }
  if (::listen(fd, 16) != 0) {
    std::fprintf(stderr, "obs: listen failed: %s\n", std::strerror(errno));
    ::close(fd);
    return false;
  }
  sockaddr_in bound;
  std::memset(&bound, 0, sizeof(bound));
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  listen_fd_.store(fd, std::memory_order_relaxed);
  port_.store(ntohs(bound.sin_port), std::memory_order_relaxed);
  MutexLock lock(mu_);
  thread_ = std::make_unique<std::thread>([this] { ServeLoop(); });
  return true;
}

void ObsServer::Stop() {
  std::unique_ptr<std::thread> thread;
  {
    MutexLock lock(mu_);
    if (thread_ == nullptr) return;
    stopping_ = true;
    // Handshake: wait for the loop to leave its accept cycle before
    // joining, so the join below never blocks on an in-flight response.
    while (!loop_exited_) exited_cv_.Wait(lock);
    thread = std::move(thread_);
  }
  thread->join();
  const int fd = listen_fd_.exchange(-1, std::memory_order_relaxed);
  if (fd >= 0) ::close(fd);
  port_.store(-1, std::memory_order_relaxed);
}

void ObsServer::ServeLoop() {
  ScopedHeartbeat heartbeat("obs.http_server");
  const int listen_fd = listen_fd_.load(std::memory_order_relaxed);
  for (;;) {
    {
      MutexLock lock(mu_);
      if (stopping_) break;
    }
    heartbeat->MarkIdle();
    pollfd pfd;
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket gone; loop ends, Stop() cleans up
    }
    if (ready == 0) continue;
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) continue;
    heartbeat->MarkBusy();
    ServeOne(client);
  }
  MutexLock lock(mu_);
  loop_exited_ = true;
  exited_cv_.NotifyAll();
}

void ObsServer::ServeOne(int client_fd) {
  // A silent or trickling client gets one second, then the read fails and
  // the connection drops — one wedged scraper must not wedge telemetry.
  timeval tv;
  tv.tv_sec = 1;
  tv.tv_usec = 0;
  ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string raw;
  char buf[1024];
  while (raw.find("\r\n\r\n") == std::string::npos &&
         raw.size() <= kMaxRequestBytes) {
    const ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  SendAll(client_fd, HandleRequest(raw));
  ::close(client_fd);
}

std::string ObsServer::HandleRequest(const std::string& raw) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (raw.size() > kMaxRequestBytes) {
    return MakeResponse(413, kTextType, "request too large\n");
  }
  const size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) {
    return MakeResponse(400, kTextType, "bad request\n");
  }
  const std::string line = raw.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return MakeResponse(400, kTextType, "bad request\n");
  }
  const std::string method = line.substr(0, sp1);
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    return MakeResponse(405, kTextType, "method not allowed\n");
  }
  if (target.empty() || target[0] != '/') {
    return MakeResponse(400, kTextType, "bad request\n");
  }
  return RouteGet(target);
}

std::string ObsServer::RouteGet(const std::string& target) {
  const size_t qmark = target.find('?');
  const std::string path = target.substr(0, qmark);
  const std::string query =
      qmark == std::string::npos ? "" : target.substr(qmark + 1);
  const bool json = WantsJson(query);

  const MetricsRegistry& metrics =
      options_.metrics != nullptr ? *options_.metrics
                                  : MetricsRegistry::Global();
  const HeartbeatRegistry& heartbeats = options_.heartbeats != nullptr
                                            ? *options_.heartbeats
                                            : HeartbeatRegistry::Global();
  const FlightRecorder& flight = options_.flight != nullptr
                                     ? *options_.flight
                                     : FlightRecorder::Global();

  if (path == "/statusz") {
    StatuszOptions statusz;
    statusz.json = json;
    std::string body = RenderStatusz(metrics, heartbeats, flight, statusz);
    // The appended host section lives outside RenderStatusz so the core
    // document keeps its byte-stable golden-fixture contract.
    if (!json && options_.extra_statusz) body += options_.extra_statusz();
    return MakeResponse(200, json ? kJsonType : kTextType, body);
  }
  if (path == "/metricsz") {
    PrometheusOptions prometheus;
    prometheus.campaign_label = options_.campaign_label;
    std::string body = RenderPrometheus(metrics, prometheus);
    if (options_.extra_metricsz) body += options_.extra_metricsz();
    return MakeResponse(200, kPrometheusType, body);
  }
  if (path == "/flightz") {
    FlightRecorder::DumpOptions dump;
    dump.json = json;
    return MakeResponse(200, json ? kJsonType : kTextType,
                        flight.Dump(dump));
  }
  if (path == "/healthz") {
    std::ostringstream body;
    int stalls = 0;
    for (const HeartbeatSnapshot& hb : heartbeats.Snapshots()) {
      if (hb.busy && hb.age_seconds > kHealthzStallSeconds) {
        ++stalls;
        body << "stalled: " << hb.name
             << " age_seconds=" << internal::FormatSeconds(hb.age_seconds)
             << "\n";
      }
    }
    if (stalls == 0) return MakeResponse(200, kTextType, "ok\n");
    return MakeResponse(503, kTextType, body.str());
  }
  if (path == "/seriesz") {
    if (options_.history == nullptr) {
      return MakeResponse(
          200, kJsonType,
          "{\"capacity\":0,\"snapshots\":0,\"windows\":[]}\n");
    }
    return MakeResponse(200, kJsonType, options_.history->RenderJson());
  }
  if (path == "/buildz") {
    const BuildInfo info = CurrentBuildInfo();
    if (json) {
      return MakeResponse(200, kJsonType, RenderBuildInfoJson(info) + "\n");
    }
    return MakeResponse(200, kTextType, RenderBuildInfoText(info));
  }
  return MakeResponse(404, kTextType, "not found\n");
}

std::unique_ptr<EmbeddedObs> EmbeddedObs::Start(ObsServer::Options options) {
  std::unique_ptr<EmbeddedObs> obs(new EmbeddedObs());
  options.history = &obs->history_;
  obs->server_ = std::make_unique<ObsServer>(std::move(options));
  if (!obs->server_->Start()) return nullptr;
  obs->sampler_ = std::make_unique<SeriesSampler>(&obs->history_);
  return obs;
}

}  // namespace obs
}  // namespace icrowd
