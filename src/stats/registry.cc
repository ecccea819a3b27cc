#include "stats/registry.hh"

#include <cctype>
#include <sstream>

#include "util/logging.hh"

namespace hp
{

// ---- StatsSnapshot ----

void
StatsSnapshot::add(std::string path, std::uint64_t value)
{
    entries_.emplace_back(std::move(path), value);
}

bool
StatsSnapshot::has(const std::string &path) const
{
    for (const Entry &e : entries_) {
        if (e.first == path)
            return true;
    }
    return false;
}

std::uint64_t
StatsSnapshot::value(const std::string &path) const
{
    for (const Entry &e : entries_) {
        if (e.first == path)
            return e.second;
    }
    panic("StatsSnapshot: unknown stat path '" + path + "'");
}

StatsSnapshot
StatsSnapshot::delta(const StatsSnapshot &later,
                     const StatsSnapshot &earlier)
{
    panicIf(later.size() != earlier.size(),
            "StatsSnapshot::delta: snapshots differ in size");
    StatsSnapshot out;
    for (std::size_t i = 0; i < later.entries_.size(); ++i) {
        const Entry &end = later.entries_[i];
        const Entry &begin = earlier.entries_[i];
        if (end.first != begin.first) {
            panic("StatsSnapshot::delta: path mismatch at '" + end.first +
                  "' vs '" + begin.first + "'");
        }
        if (end.second < begin.second) {
            panic("StatsSnapshot::delta: counter '" + end.first +
                  "' went backwards");
        }
        out.add(end.first, end.second - begin.second);
    }
    return out;
}

std::string
StatsSnapshot::toJson(unsigned indent) const
{
    const std::string pad(indent, ' ');
    std::ostringstream out;
    out << pad << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        out << (i ? "," : "") << "\n" << pad << "  \""
            << entries_[i].first << "\": " << entries_[i].second;
    }
    if (!entries_.empty())
        out << "\n" << pad;
    out << "}";
    return out.str();
}

namespace
{

void
skipSpace(const std::string &s, std::size_t &pos)
{
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos]))) {
        ++pos;
    }
}

void
expect(const std::string &s, std::size_t &pos, char c)
{
    skipSpace(s, pos);
    if (pos >= s.size() || s[pos] != c) {
        fatal(std::string("StatsSnapshot::fromJson: expected '") + c +
              "' at offset " + std::to_string(pos));
    }
    ++pos;
}

std::string
parseString(const std::string &s, std::size_t &pos)
{
    expect(s, pos, '"');
    std::string out;
    while (pos < s.size() && s[pos] != '"')
        out.push_back(s[pos++]);
    expect(s, pos, '"');
    return out;
}

std::uint64_t
parseUint(const std::string &s, std::size_t &pos)
{
    skipSpace(s, pos);
    if (pos >= s.size() ||
        !std::isdigit(static_cast<unsigned char>(s[pos]))) {
        fatal("StatsSnapshot::fromJson: expected integer at offset " +
              std::to_string(pos));
    }
    std::uint64_t value = 0;
    while (pos < s.size() &&
           std::isdigit(static_cast<unsigned char>(s[pos]))) {
        value = value * 10 + std::uint64_t(s[pos] - '0');
        ++pos;
    }
    return value;
}

} // namespace

StatsSnapshot
StatsSnapshot::fromJson(const std::string &text)
{
    StatsSnapshot out;
    std::size_t pos = 0;
    expect(text, pos, '{');
    skipSpace(text, pos);
    if (pos < text.size() && text[pos] == '}')
        return out;
    while (true) {
        std::string path = parseString(text, pos);
        expect(text, pos, ':');
        out.add(std::move(path), parseUint(text, pos));
        skipSpace(text, pos);
        if (pos < text.size() && text[pos] == ',') {
            ++pos;
            continue;
        }
        break;
    }
    expect(text, pos, '}');
    return out;
}

// ---- StatsRegistry ----

void
StatsRegistry::add(std::string path, Reader reader)
{
    if (!reader)
        panic("StatsRegistry: null reader for '" + path + "'");
    if (has(path))
        panic("StatsRegistry: duplicate stat path '" + path + "'");
    stats_.emplace_back(std::move(path), std::move(reader));
}

bool
StatsRegistry::has(const std::string &path) const
{
    for (const auto &stat : stats_) {
        if (stat.first == path)
            return true;
    }
    return false;
}

std::vector<std::string>
StatsRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(stats_.size());
    for (const auto &stat : stats_)
        out.push_back(stat.first);
    return out;
}

std::uint64_t
StatsRegistry::value(const std::string &path) const
{
    for (const auto &stat : stats_) {
        if (stat.first == path)
            return stat.second();
    }
    panic("StatsRegistry: unknown stat path '" + path + "'");
}

StatsSnapshot
StatsRegistry::snapshot() const
{
    StatsSnapshot out;
    for (const auto &stat : stats_)
        out.add(stat.first, stat.second());
    return out;
}

} // namespace hp
