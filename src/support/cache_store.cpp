#include "support/cache_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/diagnostics.h"
#include "support/string_util.h"
#include "support/version.h"

namespace pom::support {

std::uint64_t
fnv1a64(const char *data, std::size_t size, std::uint64_t hash)
{
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= static_cast<unsigned char>(data[i]);
        hash *= 1099511628211ull;
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

std::string
cacheFormatHeader(const char *formatName)
{
    return std::string(formatName) + " " + kVersionString + "\n";
}

std::string
sealCacheEntry(const std::string &body)
{
    return body + "sum " + hex16(fnv1a64(body.data(), body.size())) +
           "\n";
}

bool
openCacheEntry(const std::string &text, const char *formatName,
               std::size_t &bodyStart, std::string &error)
{
    error.clear();

    // Checksum first: everything before the final "sum " line.
    std::size_t sum_at = text.rfind("sum ");
    if (sum_at == std::string::npos || sum_at == 0 ||
        text[sum_at - 1] != '\n') {
        error = "missing checksum line";
        return false;
    }
    std::string want = hex16(fnv1a64(text.data(), sum_at));
    std::string got = text.substr(sum_at + 4);
    while (!got.empty() && (got.back() == '\n' || got.back() == '\r'))
        got.pop_back();
    if (got != want) {
        error = "checksum mismatch (corrupt entry)";
        return false;
    }

    std::size_t nl = text.find('\n');
    if (nl == std::string::npos) {
        error = "truncated entry (missing newline)";
        return false;
    }
    std::string header = text.substr(0, nl);
    std::string expect = cacheFormatHeader(formatName);
    expect.pop_back(); // the '\n' we stopped at
    if (header != expect) {
        error = "cache format/version mismatch: entry says '" + header +
                "', this build is '" + expect + "'";
        return false;
    }
    bodyStart = nl + 1;
    return true;
}

bool
CacheEntryReader::fail(const std::string &what)
{
    if (error.empty())
        error = what + " at offset " + std::to_string(pos);
    return false;
}

bool
CacheEntryReader::line(std::string &out)
{
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos)
        return fail("truncated entry (missing newline)");
    out = text.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
}

bool
CacheEntryReader::raw(std::size_t n, std::string &out)
{
    if (pos + n + 1 > text.size() || text[pos + n] != '\n')
        return fail("truncated raw block");
    out = text.substr(pos, n);
    pos += n + 1;
    return true;
}

bool
scanU64(const std::string &line, const char *fmt, std::uint64_t &out)
{
    return std::sscanf(line.c_str(), fmt, &out) == 1;
}

bool
splitNamed(const std::string &rest, std::string &name, std::string &tail)
{
    std::size_t colon = rest.find(':');
    if (colon == std::string::npos)
        return false;
    std::int64_t n = 0;
    if (!parseInt64(rest.substr(0, colon), n) || n < 0 ||
        colon + 1 + static_cast<std::size_t>(n) > rest.size()) {
        return false;
    }
    name = rest.substr(colon + 1, static_cast<std::size_t>(n));
    tail = rest.substr(colon + 1 + static_cast<std::size_t>(n));
    return true;
}

bool
writeFileAtomically(const std::string &path, const std::string &content,
                    std::string &error)
{
    namespace fs = std::filesystem;
    fs::path target(path);
    fs::path tmp = target;
    tmp += ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out || !(out << content) || !out.flush()) {
            error = "cannot write '" + tmp.string() + "'";
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, target, ec);
    if (ec) {
        error = "cannot rename '" + tmp.string() + "': " + ec.message();
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

bool
readCacheIndex(const std::string &path, const char *formatName,
               std::vector<std::string> &hashes, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return true;
    std::string header;
    if (!std::getline(in, header)) {
        error = "cache index '" + path + "' is empty";
        return false;
    }
    std::string expect = cacheFormatHeader(formatName);
    expect.pop_back();
    if (header != expect) {
        error = "cache index '" + path +
                "' format/version mismatch: index says '" + header +
                "', this build is '" + expect + "'";
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            hashes.push_back(line);
    }
    return true;
}

namespace {

/**
 * Read @p path into @p out if it is a regular file. The open never
 * blocks (a FIFO has no writer to wait for) and the type check runs on
 * the opened descriptor, so a device or FIFO swapped in after an
 * earlier check is still refused.
 */
bool
readRegularFile(const std::string &path, std::string &out)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st;
    bool ok = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    out.clear();
    char buf[1 << 14];
    ssize_t n = 0;
    while (ok && (n = ::read(fd, buf, sizeof(buf))) > 0)
        out.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return ok && n == 0;
}

} // namespace

bool
loadCacheDir(
    const std::string &dir, const CacheDirLayout &layout,
    const std::function<bool(const std::string &hash,
                             const std::string &text, std::string &why)>
        &insert,
    CacheSpillStats &stats, std::string &error)
{
    namespace fs = std::filesystem;
    stats = CacheSpillStats();
    error.clear();
    fs::path root(dir);
    std::string index_path = (root / layout.indexName).string();
    std::vector<std::string> hashes;
    if (!readCacheIndex(index_path, layout.formatName, hashes, error))
        return false;
    for (const auto &hash : hashes) {
        // Only what saveCacheDir() writes: anything else could name a
        // path outside the objects directory.
        if (!isContentHash(hash)) {
            diag(DiagLevel::Warning,
                 "cache index '" + index_path + "' line '" + hash +
                     "' is not a content hash; skipped");
            ++stats.skipped;
            continue;
        }
        fs::path object = root / layout.objectsName / hash;
        std::string text;
        if (!readRegularFile(object.string(), text)) {
            diag(DiagLevel::Warning,
                 std::string(layout.entryLabel) + " '" + object.string() +
                     "' is indexed but missing or not a regular file; "
                     "skipped");
            ++stats.skipped;
            continue;
        }
        std::string why;
        if (!insert(hash, text, why)) {
            diag(DiagLevel::Warning,
                 std::string(layout.entryLabel) + " '" + object.string() +
                     "' is unreadable (" +
                     (why.empty() ? "hash/key mismatch" : why) +
                     "); skipped");
            ++stats.skipped;
            continue;
        }
        ++stats.loaded;
    }
    return true;
}

bool
saveCacheDir(const std::string &dir, const CacheDirLayout &layout,
             const std::vector<std::string> &keys,
             const std::function<std::string(std::size_t)> &encode,
             CacheSpillStats &stats, std::string &error)
{
    namespace fs = std::filesystem;
    stats = CacheSpillStats();
    error.clear();
    fs::path root(dir);
    fs::path objects = root / layout.objectsName;
    std::error_code ec;
    fs::create_directories(objects, ec);
    if (ec) {
        error = "cannot create '" + objects.string() +
                "': " + ec.message();
        return false;
    }

    // Merge with any hashes a concurrent saver already indexed so two
    // processes sharing one cache dir union their entries.
    fs::path index_path = root / layout.indexName;
    std::vector<std::string> hashes;
    std::string index_error;
    if (!readCacheIndex(index_path.string(), layout.formatName, hashes,
                        index_error)) {
        hashes.clear(); // stale-format index: rebuild from scratch
    }
    hashes.erase(std::remove_if(hashes.begin(), hashes.end(),
                                [](const std::string &h) {
                                    return !isContentHash(h);
                                }),
                 hashes.end());

    for (std::size_t i = 0; i < keys.size(); ++i) {
        std::string hash = cacheContentHash(keys[i]);
        fs::path object = objects / hash;
        // A non-regular file (say a FIFO) is replaced, not kept.
        if (fs::is_regular_file(object, ec)) {
            ++stats.kept;
        } else {
            if (!writeFileAtomically(object.string(), encode(i), error))
                return false;
            ++stats.written;
        }
        hashes.push_back(hash);
    }

    std::sort(hashes.begin(), hashes.end());
    hashes.erase(std::unique(hashes.begin(), hashes.end()),
                 hashes.end());
    std::string index = cacheFormatHeader(layout.formatName);
    for (const auto &hash : hashes)
        index += hash + "\n";
    return writeFileAtomically(index_path.string(), index, error);
}

} // namespace pom::support
