#include "support/diagnostics.h"

#include <atomic>
#include <cstdio>
#include <iostream>
#include <mutex>

namespace pom::support {

void
fatal(const std::string &message)
{
    throw FatalError(message);
}

void
assertFailed(const char *cond, const char *file, int line,
             const std::string &message)
{
    std::fprintf(stderr, "POM internal error: assertion `%s` failed at "
                 "%s:%d%s%s\n", cond, file, line,
                 message.empty() ? "" : ": ", message.c_str());
    std::abort();
}

// ----- leveled diagnostics -----------------------------------------------

namespace {

std::atomic<int> g_diag_level{static_cast<int>(DiagLevel::Info)};
std::atomic<std::ostream *> g_diag_stream{nullptr};
std::mutex g_diag_mutex;

const char *
levelName(DiagLevel level)
{
    switch (level) {
      case DiagLevel::Error: return "error";
      case DiagLevel::Warning: return "warning";
      case DiagLevel::Info: return "info";
      case DiagLevel::Debug: return "debug";
    }
    return "?";
}

thread_local std::int64_t t_request_id = 0;

} // namespace

void
setDiagLevel(DiagLevel level)
{
    g_diag_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void
setDiagStream(std::ostream *os)
{
    g_diag_stream.store(os, std::memory_order_relaxed);
}

std::ostream &
diagStream()
{
    std::ostream *os = g_diag_stream.load(std::memory_order_relaxed);
    return os != nullptr ? *os : std::cerr;
}

void
diag(DiagLevel level, const std::string &message)
{
    if (static_cast<int>(level) >
        g_diag_level.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(g_diag_mutex);
    std::ostream &os = diagStream();
    os << "pom " << levelName(level);
    if (t_request_id != 0)
        os << " [req " << t_request_id << "]";
    os << ": " << message << "\n";
}

// ----- request correlation -----------------------------------------------

void
setCurrentRequestId(std::int64_t id)
{
    t_request_id = id;
}

std::int64_t
currentRequestId()
{
    return t_request_id;
}

} // namespace pom::support
