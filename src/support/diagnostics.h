/**
 * @file
 * Error reporting utilities shared by all POM libraries.
 *
 * Two failure modes, following the gem5 convention:
 *  - fatal():  user-caused errors (bad schedule, malformed DSL input).
 *    Throws pom::support::FatalError so callers and tests can observe it.
 *  - POM_ASSERT(): internal invariant violations (compiler bugs). Aborts.
 *
 * Plus leveled, redirectable diagnostics: library code never writes to
 * std::cerr directly — it calls diag() (or writes to diagStream()), and
 * the tools control the verbosity threshold (`pomc -q` / `-v`) and the
 * destination (tests capture it into a stringstream).
 */

#ifndef POM_SUPPORT_DIAGNOSTICS_H
#define POM_SUPPORT_DIAGNOSTICS_H

#include <cstdint>
#include <cstdlib>
#include <iosfwd>
#include <sstream>
#include <stdexcept>
#include <string>

namespace pom::support {

/** Exception thrown for user-caused, recoverable errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &message)
        : std::runtime_error(message)
    {}
};

/**
 * Report a user-caused error.
 *
 * @param message Human-readable description of what the user did wrong.
 * @throws FatalError always.
 */
[[noreturn]] void fatal(const std::string &message);

/** Internal: called by POM_ASSERT on failure. Prints and aborts. */
[[noreturn]] void
assertFailed(const char *cond, const char *file, int line,
             const std::string &message);

// ----- leveled diagnostics ----------------------------------------------

/** Severity/verbosity levels, most severe first. */
enum class DiagLevel
{
    Error = 0,   ///< always shown (unless the sink is redirected)
    Warning = 1, ///< shown by default
    Info = 2,    ///< shown by default
    Debug = 3,   ///< shown only with increased verbosity (-v)
};

/**
 * Messages with a level above the threshold are dropped. Default is
 * Info; `--quiet` lowers it to Error, `-v` raises it to Debug.
 */
void setDiagLevel(DiagLevel level);

/** Redirect diagnostics; null restores the default (std::cerr). */
void setDiagStream(std::ostream *os);

/** The active diagnostic stream (std::cerr unless redirected). */
std::ostream &diagStream();

/**
 * Emit one diagnostic line ("pom <level>: <message>") to the diagnostic
 * stream, subject to the verbosity threshold. When the calling thread
 * carries a request ID (see setCurrentRequestId) the line is prefixed
 * "pom <level> [req N]: <message>" so interleaved daemon logs are
 * attributable.
 */
void diag(DiagLevel level, const std::string &message);

// ----- request correlation ----------------------------------------------

/**
 * Tag the calling thread with the daemon request it is serving; spans
 * and diagnostics emitted from this thread carry the ID until it is
 * cleared. 0 (the default) means "not inside a request" and removes
 * the tag. Thread-local, so concurrent executors don't interleave.
 */
void setCurrentRequestId(std::int64_t id);

/** The calling thread's request ID; 0 outside a request. */
std::int64_t currentRequestId();

/** RAII request tag: sets on construction, restores on destruction. */
class RequestIdScope
{
  public:
    explicit RequestIdScope(std::int64_t id)
        : previous_(currentRequestId())
    {
        setCurrentRequestId(id);
    }
    ~RequestIdScope() { setCurrentRequestId(previous_); }
    RequestIdScope(const RequestIdScope &) = delete;
    RequestIdScope &operator=(const RequestIdScope &) = delete;

  private:
    std::int64_t previous_;
};

/** Build a message from streamable parts: fmtMsg("x=", x, " y=", y). */
template <typename... Args>
std::string
fmtMsg(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace pom::support

/**
 * Assert an internal invariant. Active in all build types: the compiler
 * pipeline must never silently produce wrong IR.
 */
#define POM_ASSERT(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::pom::support::assertFailed(                                   \
                #cond, __FILE__, __LINE__,                                  \
                ::pom::support::fmtMsg(__VA_ARGS__));                       \
        }                                                                   \
    } while (0)

#endif // POM_SUPPORT_DIAGNOSTICS_H
