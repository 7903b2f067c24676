#include "util/net/http.hh"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/fi.hh"
#include "util/logging.hh"

namespace pgss::util::net
{

namespace
{
/** Chaos schedules can fail client connects without a dead server. */
fi::Site net_connect("net.connect");
} // anonymous namespace

namespace
{

constexpr std::size_t kMaxRequestBytes = 8192;
constexpr std::size_t kMaxPendingConns = 64;
constexpr int kSocketTimeoutMs = 5000;

void
setSocketTimeouts(int fd, int timeout_ms)
{
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/** Write all of @p data; false on any transport error. */
bool
sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

std::string
frameResponse(const HttpResponse &r)
{
    std::string out = "HTTP/1.1 " + std::to_string(r.status) + " " +
                      httpStatusText(r.status) + "\r\n";
    out += "Content-Type: " + r.content_type + "\r\n";
    out += "Content-Length: " + std::to_string(r.body.size()) + "\r\n";
    out += "Connection: close\r\n\r\n";
    out += r.body;
    return out;
}

/**
 * Read from @p fd until the header terminator; the telemetry
 * endpoints take no bodies, so the headers are the whole request.
 * False on timeout, transport error, or an oversized request.
 */
bool
readRequestHead(int fd, std::string &head)
{
    char buf[1024];
    while (head.find("\r\n\r\n") == std::string::npos) {
        if (head.size() > kMaxRequestBytes)
            return false;
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        head.append(buf, static_cast<std::size_t>(n));
    }
    return true;
}

/** "GET /status?x=1 HTTP/1.1" -> request; false when malformed. */
bool
parseRequestLine(const std::string &head, HttpRequest &req)
{
    const std::size_t eol = head.find("\r\n");
    if (eol == std::string::npos)
        return false;
    const std::string line = head.substr(0, eol);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos)
        return false;
    req.method = line.substr(0, sp1);
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t q = target.find('?');
    if (q != std::string::npos) {
        req.query = target.substr(q + 1);
        target = target.substr(0, q);
    }
    req.target = target;
    return !req.method.empty() && !req.target.empty() &&
           req.target[0] == '/';
}

} // anonymous namespace

const char *
httpStatusText(int status)
{
    switch (status) {
      case 200:
        return "OK";
      case 400:
        return "Bad Request";
      case 404:
        return "Not Found";
      case 405:
        return "Method Not Allowed";
      case 503:
        return "Service Unavailable";
      default:
        return "Unknown";
    }
}

HttpServer::HttpServer(std::size_t workers)
    : n_workers_(workers < 1 ? 1 : (workers > 8 ? 8 : workers))
{
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::handle(const std::string &path, Handler handler)
{
    panicIf(running_, "HttpServer::handle after start()");
    routes_.emplace_back(path, std::move(handler));
}

bool
HttpServer::start(std::uint16_t port, std::string *error)
{
    panicIf(running_, "HttpServer::start while running");

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 16) != 0) {
        if (error)
            *error = "cannot bind port " + std::to_string(port) +
                     ": " + std::strerror(errno);
        ::close(fd);
        return false;
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0)
        port_ = ntohs(bound.sin_port);
    else
        port_ = port;

    listen_fd_ = fd;
    stopping_ = false;
    running_ = true;
    accept_thread_ = std::thread([this] { acceptLoop(); });
    workers_.reserve(n_workers_);
    for (std::size_t i = 0; i < n_workers_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    return true;
}

void
HttpServer::stop()
{
    if (!running_)
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    // shutdown() wakes the blocked accept(); close() alone would not
    // reliably do so on Linux.
    ::shutdown(listen_fd_, SHUT_RDWR);
    conn_ready_.notify_all();
    accept_thread_.join();
    for (std::thread &w : workers_)
        w.join();
    workers_.clear();
    ::close(listen_fd_);
    listen_fd_ = -1;
    for (int fd : pending_)
        ::close(fd);
    pending_.clear();
    running_ = false;
    port_ = 0;
}

std::uint64_t
HttpServer::requestsServed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return served_;
}

void
HttpServer::acceptLoop()
{
    for (;;) {
        const int conn = ::accept(listen_fd_, nullptr, nullptr);
        if (conn < 0) {
            if (errno == EINTR)
                continue;
            // stop() shut the listening socket down; also covers
            // transient accept errors once stopping.
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_)
                return;
            if (errno == EMFILE || errno == ENFILE)
                continue; // fd pressure: drop and keep serving
            return;
        }
        setSocketTimeouts(conn, kSocketTimeoutMs);
        bool overflow = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_) {
                ::close(conn);
                return;
            }
            if (pending_.size() >= kMaxPendingConns) {
                overflow = true;
            } else {
                pending_.push_back(conn);
            }
        }
        if (overflow) {
            HttpResponse busy;
            busy.status = 503;
            busy.body = "busy\n";
            sendAll(conn, frameResponse(busy));
            ::close(conn);
            continue;
        }
        conn_ready_.notify_one();
    }
}

void
HttpServer::workerLoop()
{
    for (;;) {
        int conn = -1;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            conn_ready_.wait(lock, [this] {
                return stopping_ || !pending_.empty();
            });
            if (stopping_ && pending_.empty())
                return;
            conn = pending_.front();
            pending_.pop_front();
        }
        serveConnection(conn);
    }
}

void
HttpServer::serveConnection(int fd)
{
    std::string head;
    HttpRequest req;
    HttpResponse resp;
    if (!readRequestHead(fd, head) || !parseRequestLine(head, req)) {
        resp.status = 400;
        resp.body = "bad request\n";
    } else {
        resp = dispatch(req);
    }
    sendAll(fd, frameResponse(resp));
    {
        // Counted before the close: a client that has read the whole
        // response (EOF) always sees it in requestsServed().
        std::lock_guard<std::mutex> lock(mutex_);
        ++served_;
    }
    ::close(fd);
}

HttpResponse
HttpServer::dispatch(const HttpRequest &req) const
{
    // HEAD shares GET's routing; the framing layer already sends the
    // full body, which curl -I tolerates for this use.
    if (req.method != "GET" && req.method != "HEAD") {
        HttpResponse r;
        r.status = 405;
        r.body = "method not allowed\n";
        return r;
    }
    for (const auto &[path, handler] : routes_)
        if (path == req.target)
            return handler(req);
    HttpResponse r;
    r.status = 404;
    r.body = "not found; endpoints: /metrics /healthz /status\n";
    return r;
}

bool
httpGet(const std::string &host, std::uint16_t port,
        const std::string &target, HttpResponse *out,
        std::string *error, int timeout_ms)
{
    if (net_connect.shouldFail()) {
        if (error)
            *error = "injected connect fault (net.connect)";
        return false;
    }

    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    const std::string service = std::to_string(port);
    const int gai =
        ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
    if (gai != 0) {
        if (error)
            *error = "resolve '" + host + "': " + gai_strerror(gai);
        return false;
    }

    int fd = -1;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        setSocketTimeouts(fd, timeout_ms);
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        if (error)
            *error = "cannot connect to " + host + ":" +
                     std::to_string(port);
        return false;
    }

    const std::string req = "GET " + target + " HTTP/1.1\r\nHost: " +
                            host + "\r\nConnection: close\r\n\r\n";
    if (!sendAll(fd, req)) {
        if (error)
            *error = "send failed";
        ::close(fd);
        return false;
    }

    std::string raw;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        raw.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    // "HTTP/1.1 200 OK\r\n...headers...\r\n\r\nbody"
    if (raw.rfind("HTTP/", 0) != 0) {
        if (error)
            *error = "malformed response";
        return false;
    }
    const std::size_t sp = raw.find(' ');
    if (sp == std::string::npos || sp + 4 > raw.size()) {
        if (error)
            *error = "malformed status line";
        return false;
    }
    out->status =
        static_cast<int>(std::strtol(raw.c_str() + sp + 1, nullptr, 10));
    const std::size_t body = raw.find("\r\n\r\n");
    out->body = body == std::string::npos ? "" : raw.substr(body + 4);
    const std::size_t ct = raw.find("Content-Type: ");
    if (ct != std::string::npos && ct < body) {
        const std::size_t eol = raw.find("\r\n", ct);
        out->content_type = raw.substr(ct + 14, eol - ct - 14);
    }
    return true;
}

bool
httpGetRetry(const std::string &host, std::uint16_t port,
             const std::string &target, HttpResponse *out,
             const RetryPolicy &policy, std::string *error,
             int timeout_ms)
{
    const int attempts = std::max(policy.attempts, 1);
    // splitmix64 over (seed, attempt) — deterministic jitter, no
    // shared RNG state between concurrent callers.
    std::uint64_t z = policy.jitter_seed;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (httpGet(host, port, target, out, error, timeout_ms))
            return true;
        if (attempt + 1 == attempts)
            break;
        ++fi::counter("net.retries");
        z += 0x9e3779b97f4a7c15ull;
        std::uint64_t x = z;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        x ^= x >> 31;
        // Exponential base delay, scaled into [0.5, 1.0) so retries
        // from parallel clients spread out instead of stampeding.
        const double jitter =
            0.5 + 0.5 * (static_cast<double>(x >> 11) * 0x1.0p-53);
        const double base =
            static_cast<double>(policy.base_delay_ms) *
            static_cast<double>(1ull << std::min(attempt, 20));
        const int delay_ms = static_cast<int>(
            std::min(base * jitter,
                     static_cast<double>(policy.max_delay_ms)));
        if (delay_ms > 0)
            ::usleep(static_cast<useconds_t>(delay_ms) * 1000);
    }
    return false;
}

} // namespace pgss::util::net
