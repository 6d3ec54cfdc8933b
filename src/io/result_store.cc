#include "io/result_store.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "base/logging.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace merlin::io
{

using core::CampaignResult;
using core::ClassCounts;
using core::GroupModel;
using core::HomogeneityReport;

namespace
{

// Written, and the only readable, format.  Earlier formats keyed
// results by engine knobs too and stored engine provenance; their keys
// do not match today's specs, so they are refused, not read.
constexpr const char *kFormatTag = "merlin-store-v3";

Json
classCountsToJson(const ClassCounts &c)
{
    Json arr = Json::array();
    for (std::uint64_t n : c.counts)
        arr.push(n);
    return arr;
}

ClassCounts
classCountsFromJson(const Json &j)
{
    ClassCounts c;
    if (j.size() != c.counts.size())
        fatal("result store: class-count arity mismatch");
    for (std::size_t i = 0; i < c.counts.size(); ++i)
        c.counts[i] = j[i].asU64();
    return c;
}

/**
 * fsync @p path (a file before rename, its directory after): the
 * atomic-rename save is only crash-safe once both the new bytes and
 * the directory entry pointing at them are on stable storage.
 * Directory sync is best-effort — some filesystems refuse O_RDONLY
 * directory fds — but a file sync failure is a real write error.
 */
void
syncToDisk(const std::string &path, bool directory)
{
#if defined(__unix__) || defined(__APPLE__)
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (directory)
            return;
        fatal("result store: cannot reopen '", path,
              "' to sync: ", std::strerror(errno));
    }
    if (::fsync(fd) != 0 && !directory) {
        const int err = errno;
        ::close(fd);
        fatal("result store: fsync '", path,
              "' failed: ", std::strerror(err));
    }
    ::close(fd);
#else
    (void)path;
    (void)directory;
#endif
}

Json
quarantineToJson(const std::vector<faultsim::QuarantineRecord> &recs)
{
    Json q = Json::array();
    for (const faultsim::QuarantineRecord &rec : recs) {
        Json e = Json::object();
        e.set("fault_key", rec.faultKey);
        e.set("reason", rec.reason);
        q.push(e);
    }
    return q;
}

/**
 * Decode a quarantine array.  A record is exactly {fault_key, reason};
 * anything else is refused, naming what is wrong, so a stored result
 * never serves fewer records than its Crash count includes.
 */
void
quarantineFromJson(const Json &q,
                   std::vector<faultsim::QuarantineRecord> &out)
{
    out.reserve(out.size() + q.size());
    for (const Json &e : q.items()) {
        if (!e.isObject())
            fatal("result store: quarantine record is not an object");
        for (const auto &[member, value] : e.members()) {
            (void)value;
            if (member != "fault_key" && member != "reason")
                fatal("result store: unknown quarantine record member '",
                      member, "'");
        }
        out.push_back(faultsim::QuarantineRecord{
            e.at("fault_key").asU64(), e.at("reason").asString()});
    }
}

} // namespace

Json
resultToJson(const CampaignResult &r)
{
    Json j = Json::object();
    j.set("golden_cycles", r.goldenCycles);
    j.set("golden_instret", r.goldenInstret);
    j.set("ace_avf", r.aceAvf);
    j.set("initial_faults", r.initialFaults);
    j.set("ace_masked", r.aceMasked);
    j.set("survivors", r.survivors);
    j.set("num_groups", r.numGroups);
    j.set("injections", r.injections);
    j.set("merlin_estimate", classCountsToJson(r.merlinEstimate));
    j.set("merlin_survivor_estimate",
          classCountsToJson(r.merlinSurvivorEstimate));
    if (r.survivorTruth)
        j.set("survivor_truth", classCountsToJson(*r.survivorTruth));
    if (r.homogeneity) {
        Json h = Json::object();
        h.set("fine", r.homogeneity->fine);
        h.set("coarse", r.homogeneity->coarse);
        h.set("perfect_fraction", r.homogeneity->perfectFraction);
        h.set("groups", r.homogeneity->groups);
        h.set("faults", r.homogeneity->faults);
        h.set("avg_group_size", r.homogeneity->avgGroupSize);
        j.set("homogeneity", h);
    }
    if (!r.groupModels.empty()) {
        Json models = Json::array();
        for (const GroupModel &g : r.groupModels) {
            Json m = Json::array();
            m.push(g.size);
            m.push(g.pNonMasked);
            models.push(m);
        }
        j.set("group_models", models);
    }
    j.set("speedup_ace", r.speedupAce);
    j.set("speedup_total", r.speedupTotal);
    if (!r.quarantine.empty()) {
        // Only when non-empty, so stores of clean campaigns keep their
        // pre-quarantine bytes.  Entries are (packed fault key, reason)
        // in the result's deterministic sort order; the producing spec
        // (with its seed) sits beside this result in the store entry,
        // so each record pins down one reproducible injection.
        j.set("quarantine", quarantineToJson(r.quarantine));
    }
    return j;
}

CampaignResult
resultFromJson(const Json &j)
{
    CampaignResult r;
    r.goldenCycles = j.at("golden_cycles").asU64();
    r.goldenInstret = j.at("golden_instret").asU64();
    r.aceAvf = j.at("ace_avf").asDouble();
    r.initialFaults = j.at("initial_faults").asU64();
    r.aceMasked = j.at("ace_masked").asU64();
    r.survivors = j.at("survivors").asU64();
    r.numGroups = j.at("num_groups").asU64();
    r.injections = j.at("injections").asU64();
    r.merlinEstimate = classCountsFromJson(j.at("merlin_estimate"));
    r.merlinSurvivorEstimate =
        classCountsFromJson(j.at("merlin_survivor_estimate"));
    if (const Json *t = j.find("survivor_truth"))
        r.survivorTruth = classCountsFromJson(*t);
    if (const Json *h = j.find("homogeneity")) {
        HomogeneityReport rep;
        rep.fine = h->at("fine").asDouble();
        rep.coarse = h->at("coarse").asDouble();
        rep.perfectFraction = h->at("perfect_fraction").asDouble();
        rep.groups = h->at("groups").asU64();
        rep.faults = h->at("faults").asU64();
        rep.avgGroupSize = h->at("avg_group_size").asDouble();
        r.homogeneity = rep;
    }
    if (const Json *models = j.find("group_models")) {
        r.groupModels.reserve(models->size());
        for (const Json &m : models->items()) {
            if (m.size() != 2)
                fatal("result store: malformed group model");
            r.groupModels.push_back(
                GroupModel{m[0].asU64(), m[1].asDouble()});
        }
    }
    r.speedupAce = j.at("speedup_ace").asDouble();
    r.speedupTotal = j.at("speedup_total").asDouble();
    if (const Json *q = j.find("quarantine"))
        quarantineFromJson(*q, r.quarantine);
    return r;
}

// ---------------------------------------------------------- ResultStore

ResultStore::ResultStore(std::string path) : path_(std::move(path)) {}

bool
ResultStore::load()
{
    if (path_.empty())
        return false;
    obs::Span span("io", "store.load");
    // A directory at the store path opens "successfully" but reads
    // nothing, which would fall through to the empty-file diagnosis
    // and blame a truncated save for what is a path mix-up (a work
    // directory passed as --out, say).  Name the real problem.
    if (std::filesystem::is_directory(path_))
        fatal("result store '", path_,
              "' is a directory, not a store file — pass the store "
              "FILE here");
    std::ifstream in(path_);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    // Diagnose the two corruption shapes a crashed save can leave
    // by name, instead of letting the JSON parser's offset-zero
    // error stand in for them: an empty file (rename published a
    // never-written temp) and a truncated/garbled document.
    if (text.find_first_not_of(" \t\r\n") == std::string::npos)
        fatal("result store '", path_,
              "' is empty — likely truncated by an interrupted save; "
              "delete it, then re-run the suite or merge the worker "
              "stores");
    Json doc;
    try {
        doc = Json::parse(text);
    } catch (const FatalError &e) {
        fatal("result store '", path_,
              "' is not a valid store (", e.what(),
              "); delete it, then re-run the suite or merge the worker "
              "stores");
    }
    const std::string format = doc.strOr("format", "");
    if (format != kFormatTag)
        fatal("result store '", path_, "' has format '", format,
              "', not ", kFormatTag, " (stores written by older builds "
              "keyed results by engine knobs and are not read); re-run "
              "the suite or delete the file");
    entries_.clear();
    for (const auto &[key, entry] : doc.at("campaigns").members()) {
        // Validate eagerly: a malformed entry should fail the load,
        // not the lookup that happens to hit it mid-suite.
        resultFromJson(entry.at("result"));
        entries_[key] = Entry{entry.at("spec"), entry.at("result")};
    }
    return true;
}

Json
ResultStore::toJson() const
{
    Json campaigns = Json::object();
    for (const auto &[key, entry] : entries_) {
        Json e = Json::object();
        e.set("spec", entry.spec);
        e.set("result", entry.result);
        campaigns.set(key, e);
    }
    Json doc = Json::object();
    doc.set("format", kFormatTag);
    doc.set("campaigns", campaigns);
    return doc;
}

void
ResultStore::save() const
{
    if (path_.empty())
        return;
    obs::Span span("io", "store.save");
    const obs::TimePoint t0 = obs::now();
    // Serialize to a string first: the telemetry wants the byte count,
    // and streaming via a string changes nothing about the bytes.
    const std::string text = toJson().dump(2) + "\n";
    const std::string tmp = path_ + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            fatal("result store: cannot write '", tmp, "'");
        out << text;
        // Flush and close under an explicit state check: a full disk
        // must surface here, not as a truncated store discovered by
        // the next --resume.
        out.flush();
        out.close();
        if (!out.good())
            fatal("result store: write to '", tmp,
                  "' failed (disk full?)");
    }
    // Durability order: temp bytes reach the disk before the rename
    // publishes them, the directory entry after — a crash leaves
    // either the complete old store or the complete new one.
    syncToDisk(tmp, false);
    if (std::rename(tmp.c_str(), path_.c_str()) != 0)
        fatal("result store: cannot rename '", tmp, "' to '", path_,
              "'");
    const auto dir = std::filesystem::path(path_).parent_path();
    syncToDisk(dir.empty() ? "." : dir.string(), true);

    obs::Registry &reg = obs::Registry::global();
    reg.counter("store.saves").add();
    reg.counter("store.save_bytes").add(text.size());
    reg.histogram("store.save_us").observe(obs::microsSince(t0));
}

bool
ResultStore::lookup(const std::string &key, CampaignResult &out) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    out = resultFromJson(it->second.result);
    return true;
}

bool
ResultStore::contains(const std::string &key) const
{
    return entries_.count(key) != 0;
}

void
ResultStore::put(const std::string &key, Json spec,
                 const CampaignResult &result)
{
    entries_[key] = Entry{std::move(spec), resultToJson(result)};
}

bool
ResultStore::erase(const std::string &key)
{
    return entries_.erase(key) != 0;
}

ResultStore::MergeStats
ResultStore::merge(const ResultStore &other, bool force_theirs)
{
    MergeStats stats;
    for (const auto &[key, theirs] : other.entries_) {
        auto it = entries_.find(key);
        if (it == entries_.end()) {
            entries_[key] = theirs;
            ++stats.added;
            continue;
        }
        // Bit-identity on the serialized payload, not value equality:
        // the store's contract is byte-stable dumps, so anything short
        // of identical bytes is a real divergence.
        const Entry &ours = it->second;
        if (ours.spec.dump() == theirs.spec.dump() &&
            ours.result.dump() == theirs.result.dump()) {
            ++stats.identical;
            continue;
        }
        if (!force_theirs)
            fatal("result store merge: key '", key,
                  "' has conflicting payloads (same spec hash, "
                  "different spec/result bytes); re-run one side or "
                  "merge with --force-theirs");
        it->second = theirs;
        ++stats.replaced;
    }
    return stats;
}

ResultStore::MergeStats
mergeStoreFiles(ResultStore &into, const std::vector<std::string> &files,
                bool force_theirs)
{
    ResultStore::MergeStats total;
    for (const std::string &f : files) {
        ResultStore part(f);
        if (!part.load())
            fatal("store merge: cannot open result store '", f,
                  "' — did a worker fail to deliver its store?");
        const auto stats = into.merge(part, force_theirs);
        total.added += stats.added;
        total.identical += stats.identical;
        total.replaced += stats.replaced;
    }
    return total;
}

} // namespace merlin::io
