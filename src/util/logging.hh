/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic() flags an internal invariant violation (a bug in this library)
 * and aborts; fatal() flags a user error (bad configuration) and exits
 * cleanly; warn()/logInfo()/logDebug() print diagnostics and continue.
 *
 * Diagnostics are filtered by a process-wide verbosity read once from
 * the HP_LOG_LEVEL environment variable ("quiet"/"warn"/"info"/"debug"
 * or 0-3; default warn). Call sites that can fire once per simulated
 * event wrap themselves in HP_WARN_LIMIT / HP_WARN_ONCE so a
 * misbehaving run emits a handful of lines, not millions.
 *
 * A check's message is a literal: panicIf()/fatalIf() take a
 * const char *, so a check that passes builds no string. A message
 * composed from run-time values goes inside an if body instead,
 *
 *     if (op.length == 0)
 *         panic("empty Run in " + fn.name);
 *
 * so only the failing path pays for the concatenation.
 */

#ifndef HP_UTIL_LOGGING_HH
#define HP_UTIL_LOGGING_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace hp
{

/** Aborts with a message; use for internal invariant violations. */
[[noreturn]] void panic(const std::string &msg);

/** Exits with an error code; use for user/configuration errors. */
[[noreturn]] void fatal(const std::string &msg);

/** Diagnostic verbosity, most quiet first. */
enum class LogLevel : int
{
    Quiet = 0, ///< Suppress warn/info/debug (errors still print).
    Warn = 1,  ///< warn() only (the default).
    Info = 2,  ///< warn() + logInfo().
    Debug = 3, ///< Everything.
};

/** The process verbosity (HP_LOG_LEVEL; parsed on first use). */
LogLevel logLevel();

/** True when messages at @p level should print. */
inline bool
logEnabled(LogLevel level)
{
    return static_cast<int>(logLevel()) >= static_cast<int>(level);
}

/** Prints a warning to stderr (level >= warn) and continues. */
void warn(const std::string &msg);

/** Prints an informational line to stderr (level >= info). */
void logInfo(const std::string &msg);

/** Prints a debug line to stderr (level >= debug). */
void logDebug(const std::string &msg);

/**
 * Checks an invariant that must hold regardless of user input.
 * Unlike assert(), stays active in release builds. @p msg is a
 * literal; see the file comment for composed messages.
 */
inline void
panicIf(bool condition, const char *msg)
{
    if (condition)
        panic(msg);
}

/** Checks a user-facing precondition (configuration validity etc.). */
inline void
fatalIf(bool condition, const char *msg)
{
    if (condition)
        fatal(msg);
}

/**
 * Rate-limited warning: prints at most @p limit times from this call
 * site (a function-local counter, so each textual site has its own
 * budget), annotating the last allowed line. Thread-safe.
 */
#define HP_WARN_LIMIT(limit, msg)                                         \
    do {                                                                  \
        static std::atomic<std::uint64_t> hp_warn_seen_{0};               \
        const std::uint64_t hp_warn_n_ =                                  \
            hp_warn_seen_.fetch_add(1, std::memory_order_relaxed);        \
        if (hp_warn_n_ < static_cast<std::uint64_t>(limit)) {             \
            if (hp_warn_n_ + 1 == static_cast<std::uint64_t>(limit)) {    \
                ::hp::warn(std::string(msg) +                             \
                           " (further warnings from this call site "      \
                           "suppressed)");                                \
            } else {                                                      \
                ::hp::warn(msg);                                          \
            }                                                             \
        }                                                                 \
    } while (0)

/** Prints a warning at most once per call site. */
#define HP_WARN_ONCE(msg)                                                 \
    do {                                                                  \
        static std::atomic<bool> hp_warn_fired_{false};                   \
        if (!hp_warn_fired_.exchange(true, std::memory_order_relaxed))    \
            ::hp::warn(msg);                                              \
    } while (0)

} // namespace hp

#endif // HP_UTIL_LOGGING_HH
