#include "hls/node_cache.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/diagnostics.h"
#include "support/string_util.h"
#include "support/version.h"

namespace pom::hls {

namespace {

namespace fs = std::filesystem;

/** Where the spill lives inside a cache directory. */
constexpr char kIndexName[] = "nodes.index"; ///< one hash per line
constexpr char kObjectsName[] = "nodes";     ///< <hash>: one entry

// ----- spill-format helpers ----------------------------------------------

/** "pom-node-cache/1 <version>\n": first line of every spill file. */
std::string
cacheFormatHeader()
{
    return std::string(support::kNodeCacheFormatName) + " " +
           support::kVersionString + "\n";
}

/** Append the trailing "sum <hex16>\n" checksum line to @p body. */
std::string
sealCacheEntry(const std::string &body)
{
    return body + "sum " +
           support::hex16(support::fnv1a64(body.data(), body.size())) +
           "\n";
}

/**
 * Validate the trailing checksum and the version-stamped header of a
 * sealed entry. On success @p bodyStart points just past the header
 * line. On failure @p error gets "missing checksum line", "checksum
 * mismatch (corrupt entry)" or a format/version mismatch diagnostic.
 */
bool
openCacheEntry(const std::string &text, std::size_t &bodyStart,
               std::string &error)
{
    error.clear();

    // Checksum first: everything before the final "sum " line.
    std::size_t sum_at = text.rfind("sum ");
    if (sum_at == std::string::npos || sum_at == 0 ||
        text[sum_at - 1] != '\n') {
        error = "missing checksum line";
        return false;
    }
    std::string want = support::hex16(support::fnv1a64(text.data(), sum_at));
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
    std::string expect = cacheFormatHeader();
    expect.pop_back(); // the '\n' we stopped at
    if (header != expect) {
        error = "cache format/version mismatch: entry says '" + header +
                "', this build is '" + expect + "'";
        return false;
    }
    bodyStart = nl + 1;
    return true;
}

/** Cursor over an entry text: strict line-oriented reads. */
struct CacheEntryReader
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error = {};

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = what + " at offset " + std::to_string(pos);
        return false;
    }

    /** Read up to the next '\n' (consumed, not returned). */
    bool
    line(std::string &out)
    {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return fail("truncated entry (missing newline)");
        out = text.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    }

    /** Read exactly @p n raw bytes plus a trailing '\n'. */
    bool
    raw(std::size_t n, std::string &out)
    {
        if (pos + n + 1 > text.size() || text[pos + n] != '\n')
            return fail("truncated raw block");
        out = text.substr(pos, n);
        pos += n + 1;
        return true;
    }
};

/** sscanf a single %SCNu64-style field out of @p line. */
bool
scanU64(const std::string &line, const char *fmt, std::uint64_t &out)
{
    return std::sscanf(line.c_str(), fmt, &out) == 1;
}

/** Parse "<len>:<name>" at the front of @p rest; true on success. */
bool
splitNamed(const std::string &rest, std::string &name, std::string &tail)
{
    std::size_t colon = rest.find(':');
    if (colon == std::string::npos)
        return false;
    std::int64_t n = 0;
    if (!support::parseInt64(rest.substr(0, colon), n) || n < 0 ||
        colon + 1 + static_cast<std::size_t>(n) > rest.size()) {
        return false;
    }
    name = rest.substr(colon + 1, static_cast<std::size_t>(n));
    tail = rest.substr(colon + 1 + static_cast<std::size_t>(n));
    return true;
}

/** Write @p content to @p path via a temp file + rename (atomic). */
bool
writeFileAtomically(const std::string &path, const std::string &content,
                    std::string &error)
{
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

/**
 * Read the content-hash index at @p path into @p hashes, through
 * readRegularFile() as the objects are read. Absent file -> true with
 * nothing read (cold start); a path that is not a regular file (a FIFO,
 * a device), an empty file or a wrong format/version -> false with
 * @p error.
 */
bool
readCacheIndex(const std::string &path, std::vector<std::string> &hashes,
               std::string &error)
{
    std::string text;
    if (!readRegularFile(path, text)) {
        std::error_code ec;
        if (!fs::exists(path, ec))
            return true;
        error = "cache index '" + path + "' is not a readable regular file";
        return false;
    }
    if (text.empty()) {
        error = "cache index '" + path + "' is empty";
        return false;
    }
    std::size_t nl = text.find('\n');
    std::string header = text.substr(0, nl);
    std::string expect = cacheFormatHeader();
    expect.pop_back();
    if (header != expect) {
        error = "cache index '" + path +
                "' format/version mismatch: index says '" + header +
                "', this build is '" + expect + "'";
        return false;
    }
    while (nl != std::string::npos) {
        std::size_t start = nl + 1;
        nl = text.find('\n', start);
        if (start < text.size() && start != nl)
            hashes.push_back(text.substr(start, nl - start));
    }
    return true;
}

} // namespace

std::string
stmtScheduleFragment(const transform::PolyStmt &s)
{
    std::ostringstream os;
    os << "stmt " << s.sched.name << "\n";
    os << " domain " << s.sched.domain.str() << "\n";
    os << " betas";
    for (auto b : s.sched.betas)
        os << " " << b;
    os << "\n orig " << s.sched.origMap.str() << "\n";
    for (size_t l = 0; l < s.sched.hwPerDim.size(); ++l) {
        const auto &hw = s.sched.hwPerDim[l];
        if (!hw.pipelineII && hw.unrollFactor == 1 &&
            hw.independentArrays.empty()) {
            continue;
        }
        os << " hw " << l << " ii="
           << (hw.pipelineII ? *hw.pipelineII : -1)
           << " unroll=" << hw.unrollFactor << " indep=";
        for (const auto &a : hw.independentArrays)
            os << a << ",";
        os << "\n";
    }
    return os.str();
}

NodeKey
NodeKey::ofFunction(const std::string &funcDigest)
{
    NodeKey key;
    key.fold(cacheFormatHeader());
    key.fold("func\n");
    key.fold(funcDigest);
    key.fold("\n");
    return key;
}

void
NodeKey::addSchedule(const transform::PolyStmt &stmt)
{
    fold(stmtScheduleFragment(stmt));
}

void
NodeKey::addBanking(const std::string &array, const ArrayBanking &banking)
{
    // "arr <array> banks=<banks> complete=<0|1>\n"; to_chars spells an
    // int64 as operator<< does.
    char banks[24];
    char *end =
        std::to_chars(banks, banks + sizeof(banks), banking.banks).ptr;
    fold("arr ");
    fold(array);
    fold(" banks=");
    fold({banks, static_cast<std::size_t>(end - banks)});
    fold(banking.complete ? " complete=1\n" : " complete=0\n");
}

std::string
NodeKey::finish(const std::string &costLine) const
{
    NodeKey key = *this;
    key.fold(costLine);
    return support::hex16(key.lo_) + support::hex16(key.hi_);
}

void
NodeKey::fold(std::string_view bytes)
{
    lo_ = support::fnv1a64(bytes.data(), bytes.size(), lo_);
    hi_ = support::fnv1a64(bytes.data(), bytes.size(), hi_);
}

std::string
opCostsLine(const OpCosts &c)
{
    std::ostringstream os;
    os << "costs " << c.faddLat << " " << c.fmulLat << " " << c.fdivLat
       << " " << c.fcmpLat << " " << c.iaddLat << " " << c.imulLat << " "
       << c.loadLat << " " << c.storeLat << " " << c.faddDsp << " "
       << c.faddLut << " " << c.faddFf << " " << c.fmulDsp << " "
       << c.fmulLut << " " << c.fmulFf << " " << c.fdivDsp << " "
       << c.fdivLut << " " << c.fdivFf << " " << c.fcmpDsp << " "
       << c.fcmpLut << " " << c.fcmpFf << " " << c.iaddDsp << " "
       << c.iaddLut << " " << c.iaddFf << " " << c.imulDsp << " "
       << c.imulLut << " " << c.imulFf << " " << c.loopCtrlLut << " "
       << c.loopCtrlFf << " " << c.bankMuxLut << " "
       << c.pipelineRegFfPerCopy << "\n";
    return os.str();
}

// ----- on-disk spill format ----------------------------------------------

std::string
encodeNodeCacheEntry(const std::string &key,
                     const std::vector<NodeReport> &nodes)
{
    std::ostringstream os;
    os << cacheFormatHeader();
    os << "key " << key.size() << "\n" << key << "\n";
    os << "nodes " << nodes.size() << "\n";
    for (const auto &n : nodes) {
        os << "node " << n.nest.size() << ":" << n.nest
           << " latency=" << n.latencyCycles
           << " dsp=" << n.resources.dsp << " lut=" << n.resources.lut
           << " ff=" << n.resources.ff
           << " bram=" << n.resources.bramBits << "\n";
        os << "loops " << n.loops.size() << "\n";
        for (const auto &l : n.loops) {
            os << "loop " << l.iterName.size() << ":" << l.iterName
               << " trip=" << l.trip
               << " target=" << (l.targetII ? std::to_string(*l.targetII)
                                            : std::string("none"))
               << " achieved=" << l.achievedII << " latency=" << l.latency
               << " rec=" << l.recMII << " res=" << l.resMII << "\n";
        }
    }
    return sealCacheEntry(os.str());
}

bool
decodeNodeCacheEntry(const std::string &text, std::string &key,
                     std::vector<NodeReport> &nodes, std::string &error)
{
    error.clear();
    nodes.clear();

    std::size_t body = 0;
    if (!openCacheEntry(text, body, error))
        return false;

    CacheEntryReader r{text, body};
    std::string ln;
    auto fail = [&](const std::string &what) {
        error = r.error.empty() ? what : r.error;
        return false;
    };

    if (!r.line(ln) || ln.rfind("key ", 0) != 0)
        return fail("missing key line");
    std::int64_t key_len = 0;
    if (!support::parseInt64(ln.substr(4), key_len) || key_len < 0)
        return fail("malformed key length");
    if (!r.raw(static_cast<std::size_t>(key_len), key))
        return fail("truncated key");

    std::uint64_t node_count = 0;
    if (!r.line(ln) || !scanU64(ln, "nodes %" SCNu64, node_count))
        return fail("missing nodes count");
    if (node_count > 1000000)
        return fail("implausible node count");
    for (std::uint64_t i = 0; i < node_count; ++i) {
        if (!r.line(ln) || ln.rfind("node ", 0) != 0)
            return fail("missing node line");
        NodeReport node;
        std::string tail;
        if (!splitNamed(ln.substr(5), node.nest, tail))
            return fail("malformed node name");
        unsigned long long latency = 0;
        long long bram = 0;
        if (std::sscanf(tail.c_str(),
                        " latency=%llu dsp=%d lut=%d ff=%d bram=%lld",
                        &latency, &node.resources.dsp,
                        &node.resources.lut, &node.resources.ff,
                        &bram) != 5) {
            return fail("malformed node line");
        }
        node.latencyCycles = latency;
        node.resources.bramBits = bram;

        std::uint64_t loop_count = 0;
        if (!r.line(ln) || !scanU64(ln, "loops %" SCNu64, loop_count))
            return fail("missing loops count");
        if (loop_count > 1000000)
            return fail("implausible loop count");
        for (std::uint64_t j = 0; j < loop_count; ++j) {
            if (!r.line(ln) || ln.rfind("loop ", 0) != 0)
                return fail("missing loop line");
            LoopReport loop;
            std::string loop_tail;
            if (!splitNamed(ln.substr(5), loop.iterName, loop_tail))
                return fail("malformed loop name");
            char target[32] = {0};
            long long trip = 0;
            unsigned long long lat = 0;
            if (std::sscanf(loop_tail.c_str(),
                            " trip=%lld target=%31s achieved=%d "
                            "latency=%llu rec=%d res=%d",
                            &trip, target, &loop.achievedII, &lat,
                            &loop.recMII, &loop.resMII) != 6) {
                return fail("malformed loop line");
            }
            loop.trip = trip;
            loop.latency = lat;
            if (std::string(target) != "none") {
                std::int64_t t = 0;
                if (!support::parseInt64(target, t))
                    return fail("malformed target II");
                loop.targetII = static_cast<int>(t);
            }
            node.loops.push_back(std::move(loop));
        }
        nodes.push_back(std::move(node));
    }
    return true;
}

NodeReportCache::NodeReportCache(std::size_t capacity)
    : ContentCache("dse.node_cache.evictions", capacity)
{}

NodeReportCache &
NodeReportCache::global()
{
    static NodeReportCache *cache = new NodeReportCache();
    return *cache;
}

bool
NodeReportCache::loadDir(const std::string &dir,
                         support::CacheSpillStats &stats, std::string &error)
{
    stats = support::CacheSpillStats();
    error.clear();
    fs::path root(dir);
    std::string index_path = (root / kIndexName).string();
    std::vector<std::string> hashes;
    if (!readCacheIndex(index_path, hashes, error))
        return false;
    auto skip = [&stats](const std::string &what) {
        support::diag(support::DiagLevel::Warning, what + "; skipped");
        ++stats.skipped;
    };
    for (const auto &hash : hashes) {
        // Only what saveDir() writes: anything else could name a path
        // outside the objects directory.
        if (!support::isContentHash(hash)) {
            skip("cache index '" + index_path + "' line '" + hash +
                 "' is not a content hash");
            continue;
        }
        std::string object = (root / kObjectsName / hash).string();
        std::string text;
        if (!readRegularFile(object, text)) {
            skip("node-cache entry '" + object +
                 "' is indexed but missing or not a regular file");
            continue;
        }
        std::string key, why;
        std::vector<NodeReport> nodes;
        if (!decodeNodeCacheEntry(text, key, nodes, why) ||
            support::cacheContentHash(key) != hash) {
            skip("node-cache entry '" + object + "' is unreadable (" +
                 (why.empty() ? "hash/key mismatch" : why) + ")");
            continue;
        }
        store(key, std::move(nodes));
        ++stats.loaded;
    }
    return true;
}

bool
NodeReportCache::saveDir(const std::string &dir,
                         support::CacheSpillStats &stats,
                         std::string &error) const
{
    stats = support::CacheSpillStats();
    error.clear();
    fs::path root(dir);
    fs::path objects = root / kObjectsName;
    std::error_code ec;
    fs::create_directories(objects, ec);
    if (ec) {
        error = "cannot create '" + objects.string() +
                "': " + ec.message();
        return false;
    }

    // Merge with any hashes a concurrent saver already indexed so two
    // processes sharing one cache dir union their entries.
    std::string index_path = (root / kIndexName).string();
    std::vector<std::string> hashes;
    std::string index_error;
    if (!readCacheIndex(index_path, hashes, index_error))
        hashes.clear(); // stale-format index: rebuild from scratch
    std::erase_if(hashes, [](const std::string &h) {
        return !support::isContentHash(h);
    });

    for (const auto &[key, nodes] : snapshot()) {
        std::string hash = support::cacheContentHash(key);
        fs::path object = objects / hash;
        // A non-regular file (say a FIFO) is replaced, not kept.
        if (fs::is_regular_file(object, ec)) {
            ++stats.kept;
        } else {
            if (!writeFileAtomically(object.string(),
                                     encodeNodeCacheEntry(key, nodes),
                                     error)) {
                return false;
            }
            ++stats.written;
        }
        hashes.push_back(hash);
    }

    std::sort(hashes.begin(), hashes.end());
    hashes.erase(std::unique(hashes.begin(), hashes.end()),
                 hashes.end());
    std::string index = cacheFormatHeader();
    for (const auto &hash : hashes)
        index += hash + "\n";
    return writeFileAtomically(index_path, index, error);
}

} // namespace pom::hls
