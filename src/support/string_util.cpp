#include "support/string_util.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace pom::support {

bool
parseInt64(const std::string &s, std::int64_t &out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(s.c_str(), &end, 10);
    if (errno == ERANGE || end != s.c_str() + s.size())
        return false;
    out = static_cast<std::int64_t>(v);
    return true;
}

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (errno == ERANGE || end != s.c_str() + s.size() ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

std::string
constantText(double v)
{
    std::ostringstream os;
    os << v;
    std::string text = os.str();
    double back = 0.0;
    const char *end = text.data() + text.size();
    auto parsed = std::from_chars(text.data(), end, back);
    if (parsed.ec == std::errc() && parsed.ptr == end && back == v)
        return text;
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::ostringstream os;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            os << sep;
        os << parts[i];
    }
    return os.str();
}

std::string
repeat(const std::string &s, int n)
{
    std::string out;
    for (int i = 0; i < n; ++i)
        out += s;
    return out;
}

int
countLoc(const std::string &source)
{
    int loc = 0;
    std::istringstream is(source);
    std::string line;
    while (std::getline(is, line)) {
        size_t pos = line.find_first_not_of(" \t\r");
        if (pos == std::string::npos)
            continue;
        if (line.compare(pos, 2, "//") == 0)
            continue;
        ++loc;
    }
    return loc;
}

} // namespace pom::support
