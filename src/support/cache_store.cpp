#include "support/cache_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace pom::support {

std::uint64_t
fnv1a64(const char *data, std::size_t size, std::uint64_t hash)
{
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= static_cast<unsigned char>(data[i]);
        hash *= kFnvPrime64;
    }
    return hash;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::string
cacheContentHash(const std::string &key)
{
    return hex16(fnv1a64(key.data(), key.size()));
}

bool
isContentHash(const std::string &text)
{
    return text.size() == 16 &&
           std::all_of(text.begin(), text.end(), [](char c) {
               return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
           });
}

} // namespace pom::support
