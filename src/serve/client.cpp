#include "serve/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/mix.h"
#include "serve/protocol.h"

namespace syscomm::serve {

namespace {

/** Backoff for (0-based) retry @p attempt: exp growth, seeded jitter. */
int
backoffDelayMs(const RetryOptions& retry, int attempt)
{
    std::int64_t base = retry.baseDelayMs;
    for (int i = 0; i < attempt && base < retry.maxDelayMs; ++i)
        base *= 2;
    base = std::min<std::int64_t>(base, retry.maxDelayMs);
    if (base <= 0)
        return 0;
    const std::uint64_t jitter =
        mix64(retry.jitterSeed ^
                  static_cast<std::uint64_t>(attempt)) %
        static_cast<std::uint64_t>(base);
    // Full jitter halved around base: [base/2, base + base/2).
    return static_cast<int>(base / 2 + static_cast<std::int64_t>(jitter));
}

} // namespace

ServeClient::~ServeClient()
{
    close();
}

void
ServeClient::setTimeouts(int connectMs, int ioMs)
{
    connectTimeoutMs_ = std::max(0, connectMs);
    ioTimeoutMs_ = std::max(0, ioMs);
    if (fd_ >= 0)
        applyIoTimeout();
}

void
ServeClient::applyIoTimeout()
{
    if (ioTimeoutMs_ <= 0)
        return;
    timeval tv{};
    tv.tv_sec = ioTimeoutMs_ / 1000;
    tv.tv_usec = (ioTimeoutMs_ % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/**
 * Drive a possibly-in-progress nonblocking connect to a verdict
 * within connectTimeoutMs_, then restore blocking mode.
 */
bool
ServeClient::finishConnect(std::string& error)
{
    pollfd pfd{fd_, POLLOUT, 0};
    const int r = ::poll(&pfd, 1, connectTimeoutMs_);
    if (r <= 0) {
        error = r == 0 ? "connect timeout"
                       : "poll: " + std::string(strerror(errno));
        return false;
    }
    int soError = 0;
    socklen_t len = sizeof(soError);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soError, &len) != 0 ||
        soError != 0) {
        error = "connect: " +
                std::string(strerror(soError != 0 ? soError : errno));
        return false;
    }
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd_, F_SETFL, flags & ~O_NONBLOCK);
    return true;
}

bool
ServeClient::connectUnix(const std::string& path, std::string& error)
{
    close();
    endpoint_ = Endpoint::kUnix;
    endpointPath_ = path;
    endpointPort_ = -1;
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        error = "socket: " + std::string(strerror(errno));
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        error = "socket path too long";
        close();
        return false;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (connectTimeoutMs_ > 0) {
        const int flags = ::fcntl(fd_, F_GETFL, 0);
        if (flags >= 0)
            ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        if (connectTimeoutMs_ > 0 && errno == EINPROGRESS) {
            if (!finishConnect(error)) {
                error = "connect(" + path + "): " + error;
                close();
                return false;
            }
            applyIoTimeout();
            return true;
        }
        error = "connect(" + path + "): " + strerror(errno);
        close();
        return false;
    }
    if (connectTimeoutMs_ > 0) {
        const int flags = ::fcntl(fd_, F_GETFL, 0);
        if (flags >= 0)
            ::fcntl(fd_, F_SETFL, flags & ~O_NONBLOCK);
    }
    applyIoTimeout();
    return true;
}

bool
ServeClient::connectTcp(const std::string& host, int port,
                        std::string& error)
{
    close();
    endpoint_ = Endpoint::kTcp;
    endpointPath_ = host;
    endpointPort_ = port;
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        error = "socket: " + std::string(strerror(errno));
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        error = "bad address: " + host;
        close();
        return false;
    }
    if (connectTimeoutMs_ > 0) {
        const int flags = ::fcntl(fd_, F_GETFL, 0);
        if (flags >= 0)
            ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        if (connectTimeoutMs_ > 0 && errno == EINPROGRESS) {
            if (!finishConnect(error)) {
                error = "connect(" + host + ":" +
                        std::to_string(port) + "): " + error;
                close();
                return false;
            }
            applyIoTimeout();
            return true;
        }
        error = "connect(" + host + ":" + std::to_string(port) +
                "): " + strerror(errno);
        close();
        return false;
    }
    if (connectTimeoutMs_ > 0) {
        const int flags = ::fcntl(fd_, F_GETFL, 0);
        if (flags >= 0)
            ::fcntl(fd_, F_SETFL, flags & ~O_NONBLOCK);
    }
    applyIoTimeout();
    return true;
}

bool
ServeClient::reconnect(std::string& error)
{
    switch (endpoint_) {
      case Endpoint::kUnix:
        return connectUnix(endpointPath_, error);
      case Endpoint::kTcp:
        return connectTcp(endpointPath_, endpointPort_, error);
      case Endpoint::kNone:
        break;
    }
    error = "no endpoint to reconnect to";
    return false;
}

void
ServeClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    pending_.clear();
}

bool
ServeClient::sendBytes(const std::string& bytes)
{
    if (fd_ < 0)
        return false;
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        ssize_t n = ::send(fd_, bytes.data() + sent,
                           bytes.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
ServeClient::readLine(std::string& line, std::string& error)
{
    for (;;) {
        const std::size_t pos = pending_.find('\n');
        if (pos != std::string::npos) {
            line = pending_.substr(0, pos);
            pending_.erase(0, pos + 1);
            return true;
        }
        char buf[4096];
        ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                error = "recv timeout after " +
                        std::to_string(ioTimeoutMs_) + " ms";
            else
                error = n == 0
                            ? "connection closed by daemon"
                            : "recv: " + std::string(strerror(errno));
            return false;
        }
        pending_.append(buf, static_cast<std::size_t>(n));
    }
}

bool
ServeClient::roundTrip(const std::string& line,
                       std::string& responseLine, std::string& error)
{
    if (fd_ < 0) {
        error = "not connected";
        return false;
    }
    if (!sendBytes(line + "\n")) {
        error = "send failed: " + std::string(strerror(errno));
        return false;
    }
    return readLine(responseLine, error);
}

bool
ServeClient::request(const JsonValue& message, JsonValue& response,
                     std::string& error)
{
    std::string line;
    if (!roundTrip(writeJson(message), line, error))
        return false;
    if (!parseJson(line, response, error)) {
        error = "bad response: " + error;
        return false;
    }
    return true;
}

bool
ServeClient::ping(JsonValue& response, std::string& error)
{
    JsonValue msg = JsonValue::object();
    msg.set("verb", JsonValue::str("ping"));
    return request(msg, response, error);
}

bool
ServeClient::submit(const JsonValue& submission, std::string& id,
                    JsonValue& response, std::string& error)
{
    JsonValue msg = submission; // body plus the verb
    msg.set("verb", JsonValue::str("submit"));
    if (!request(msg, response, error))
        return false;
    id = response.getString("id");
    return true;
}

namespace {

JsonValue
idRequest(const char* verb, const std::string& id)
{
    JsonValue msg = JsonValue::object();
    msg.set("verb", JsonValue::str(verb));
    msg.set("id", JsonValue::str(id));
    return msg;
}

} // namespace

bool
ServeClient::status(const std::string& id, JsonValue& response,
                    std::string& error)
{
    return request(idRequest("status", id), response, error);
}

bool
ServeClient::result(const std::string& id, JsonValue& response,
                    std::string& error)
{
    return request(idRequest("result", id), response, error);
}

bool
ServeClient::cancel(const std::string& id, JsonValue& response,
                    std::string& error)
{
    return request(idRequest("cancel", id), response, error);
}

bool
ServeClient::drain(JsonValue& response, std::string& error)
{
    JsonValue msg = JsonValue::object();
    msg.set("verb", JsonValue::str("drain"));
    return request(msg, response, error);
}

bool
ServeClient::stats(JsonValue& response, std::string& error)
{
    JsonValue msg = JsonValue::object();
    msg.set("verb", JsonValue::str("stats"));
    return request(msg, response, error);
}

bool
ServeClient::waitTerminal(const std::string& id, int timeoutMs,
                          JsonValue& response, std::string& error,
                          bool stopOnParked)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeoutMs);
    int sleepMs = 1;
    for (;;) {
        if (!status(id, response, error))
            return false;
        if (!response.getBool("ok", false)) {
            error = response.getString("error", "status failed");
            return false;
        }
        const std::string state = response.getString("state");
        SubmissionState parsed = SubmissionState::kWaiting;
        if (parseSubmissionState(state, parsed) &&
            submissionStateTerminal(parsed))
            return true;
        if (stopOnParked && parsed == SubmissionState::kWaiting)
            return true;
        if (Clock::now() >= deadline) {
            error = "timeout waiting for " + id + " (state " + state +
                    ")";
            return false;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(sleepMs));
        sleepMs = std::min(sleepMs * 2, 50);
    }
}

bool
ServeClient::submitWithRetry(const JsonValue& submission,
                             const RetryOptions& retry,
                             std::string& id, JsonValue& response,
                             std::string& error)
{
    const int attempts = std::max(1, retry.maxAttempts);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(
                backoffDelayMs(retry, attempt - 1)));
        if (!connected() && !reconnect(error))
            continue; // daemon may still be restarting
        if (!submit(submission, id, response, error)) {
            // Transport failure: the daemon may have taken the
            // submission and died before the ack. The idempotency
            // key makes the resend safe either way.
            close();
            continue;
        }
        if (response.getBool("ok", false))
            return true;
        const std::string rejected = response.getString("rejected");
        const bool retryable = rejected == "queue_full" ||
                               rejected == "degraded" ||
                               rejected == "spool_error";
        if (!retryable) {
            error = response.getString("error", "submit rejected");
            return false;
        }
        error = response.getString("error", rejected);
    }
    error = "submit failed after " + std::to_string(attempts) +
            " attempts: " + error;
    return false;
}

bool
ServeClient::waitTerminalRetry(const std::string& id, int timeoutMs,
                               const RetryOptions& retry,
                               JsonValue& response, std::string& error)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeoutMs);
    int attempt = 0;
    for (;;) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count();
        if (left <= 0) {
            error = "timeout waiting for " + id;
            return false;
        }
        if (!connected()) {
            if (!reconnect(error)) {
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    std::min<std::int64_t>(
                        left, backoffDelayMs(retry, attempt++))));
                continue;
            }
            attempt = 0;
        }
        if (waitTerminal(id, static_cast<int>(left), response, error))
            return true;
        // "unknown id" is final (a spool-less daemon forgot us);
        // timeouts are final; transport failures mean the daemon is
        // down or restarting — reconnect and resume polling.
        if (connected() && response.isObject() &&
            !response.getString("error").empty())
            return false;
        if (Clock::now() >= deadline) {
            error = "timeout waiting for " + id + ": " + error;
            return false;
        }
        close();
    }
}

} // namespace syscomm::serve
