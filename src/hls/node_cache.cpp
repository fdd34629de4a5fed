#include "hls/node_cache.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/diagnostics.h"
#include "support/record.h"
#include "support/version.h"

namespace pom::hls {

// The spill's field tables (support/record.h): a node report and each
// of its pipelined loops, in entry order.

template <support::RecordOf<LoopReport> R, typename Visit>
void
visitFields(R &l, Visit &&visit)
{
    visit("iter", l.iterName);
    visit("trip", l.trip);
    visit("target_ii", l.targetII);
    visit("achieved_ii", l.achievedII);
    visit("latency_cycles", l.latency);
    visit("rec_mii", l.recMII);
    visit("res_mii", l.resMII);
}

template <support::RecordOf<NodeReport> R, typename Visit>
void
visitFields(R &n, Visit &&visit)
{
    visit("nest", n.nest);
    visit("latency_cycles", n.latencyCycles);
    visit("dsp", n.resources.dsp);
    visit("lut", n.resources.lut);
    visit("ff", n.resources.ff);
    visit("bram_bits", n.resources.bramBits);
    visit("loops", n.loops);
}

namespace {

namespace fs = std::filesystem;

/** Where the spill lives inside a cache directory. */
constexpr char kIndexName[] = "nodes.index"; ///< one hash per line
constexpr char kObjectsName[] = "nodes";     ///< <hash>: one entry

// ----- spill-format helpers ----------------------------------------------

/** "pom-node-cache/3 <version>\n": first line of every spill file. */
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
 * sealed entry. On success @p record is the text between the header
 * line and the checksum line. On failure @p error gets "missing
 * checksum line", "checksum mismatch (corrupt entry)" or a
 * format/version mismatch diagnostic.
 */
bool
openCacheEntry(const std::string &text, std::string &record,
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
    record = text.substr(nl + 1, sum_at - nl - 1);
    return true;
}

/** One spill entry's record: the full key and its node reports. */
struct Entry
{
    std::string key;
    std::vector<NodeReport> nodes;
};

template <support::RecordOf<Entry> R, typename Visit>
void
visitFields(R &e, Visit &&visit)
{
    visit("key", e.key);
    visit("nodes", e.nodes);
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
    // hex16(lo_) + hex16(hi_), most significant digit first.
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(32, '0');
    for (int d = 0; d < 16; ++d) {
        out[15 - d] = kDigits[(key.lo_ >> (4 * d)) & 0xf];
        out[31 - d] = kDigits[(key.hi_ >> (4 * d)) & 0xf];
    }
    return out;
}

void
NodeKey::fold(std::string_view bytes)
{
    // support::fnv1a64 over both lanes in one pass: two independent
    // multiply chains instead of two walks over the text.
    std::uint64_t lo = lo_, hi = hi_;
    for (char c : bytes) {
        const auto byte = static_cast<unsigned char>(c);
        lo = (lo ^ byte) * support::kFnvPrime64;
        hi = (hi ^ byte) * support::kFnvPrime64;
    }
    lo_ = lo;
    hi_ = hi;
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
    std::string body = cacheFormatHeader();
    support::writeRecord(body, Entry{key, nodes});
    body += '\n';
    return sealCacheEntry(body);
}

bool
decodeNodeCacheEntry(const std::string &text, std::string &key,
                     std::vector<NodeReport> &nodes, std::string &error)
{
    error.clear();
    nodes.clear();
    std::string record;
    support::JsonValue doc;
    Entry entry;
    if (!openCacheEntry(text, record, error) ||
        !support::parseJson(record, doc, error) ||
        !support::readRecord(doc, entry, error)) {
        return false;
    }
    key = std::move(entry.key);
    nodes = std::move(entry.nodes);
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
