#include "io/journal.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "base/logging.hh"
#include "io/json.hh"
#include "obs/metrics.hh"

namespace merlin::io
{

namespace
{

constexpr const char *kJournalTag = "merlin-journal-v2";

/** Journal instruments, resolved once (the lookup takes a mutex). */
struct JournalMetrics
{
    obs::Counter &appends =
        obs::Registry::global().counter("journal.appends");
    obs::Counter &fsyncs =
        obs::Registry::global().counter("journal.fsyncs");
    obs::Counter &restored =
        obs::Registry::global().counter("journal.restored");
};

JournalMetrics &
journalMetrics()
{
    static JournalMetrics m;
    return m;
}

void
syncFile(std::FILE *f, const std::string &path)
{
#if defined(__unix__) || defined(__APPLE__)
    if (::fsync(fileno(f)) != 0)
        fatal("outcome journal: fsync '", path,
              "' failed: ", std::strerror(errno));
#else
    (void)f;
    (void)path;
#endif
}

} // namespace

OutcomeJournal::OutcomeJournal(std::string path, std::string spec_key)
    : path_(std::move(path)), specKey_(std::move(spec_key))
{
}

OutcomeJournal::~OutcomeJournal()
{
    // Best-effort: a campaign that completed has already close()d (or
    // remove()d); reaching here with an open handle means an exception
    // is unwinding past the campaign, and a flush failure must not
    // turn that into std::terminate.
    try {
        close();
    } catch (...) {
    }
}

std::vector<faultsim::QuarantineRecord>
OutcomeJournal::restore(
    const std::function<void(std::uint64_t, faultsim::Outcome)> &sink)
{
    std::vector<faultsim::QuarantineRecord> quarantine;
    if (path_.empty())
        return quarantine;
    std::string text;
    {
        std::ifstream in(path_, std::ios::binary);
        if (!in) {
            restored_ = true; // nothing to resume, but appends are fresh
            return quarantine;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }

    // Walk complete (newline-terminated) lines only.  The valid prefix
    // grows line by line; whatever follows it — at most one torn line,
    // the artifact of a mid-append crash — is truncated away so open()
    // appends after well-formed bytes.
    std::size_t valid = 0;
    std::size_t pos = 0;
    std::uint64_t entries = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            if (!headerPresent_)
                warn("outcome journal '", path_,
                     "': torn header, no entries to resume — starting "
                     "the campaign over");
            else
                warn("outcome journal '", path_,
                     "': dropping torn final entry (mid-append crash); "
                     "that injection will re-run");
            break;
        }
        const std::string line = text.substr(pos, nl - pos);
        Json j;
        try {
            j = Json::parse(line);
        } catch (const FatalError &e) {
            // A COMPLETE line that does not parse was never half
            // written by a crash — the file is genuinely corrupt.
            fatal("outcome journal '", path_, "' is corrupt (", e.what(),
                  "); delete it to drop the resume data and re-run the "
                  "campaign from scratch");
        }
        if (!headerPresent_) {
            const std::string format =
                j.isObject() ? j.strOr("format", "") : std::string();
            if (format != kJournalTag)
                fatal("outcome journal '", path_, "' has format '", format,
                      "', not ", kJournalTag,
                      "; delete it to drop the resume data");
            const std::string spec = j.strOr("spec", "");
            if (spec != specKey_)
                fatal("outcome journal '", path_, "': records spec ",
                      spec, ", not ", specKey_,
                      " — stale file from a different suite?");
            headerPresent_ = true;
        } else {
            if (!j.isArray() || (j.size() != 2 && j.size() != 3))
                fatal("outcome journal '", path_,
                      "': malformed entry; delete the journal to drop "
                      "the resume data");
            const std::uint64_t key = j[0].asU64();
            const std::uint64_t o = j[1].asU64();
            if (o >= faultsim::NUM_OUTCOMES)
                fatal("outcome journal '", path_,
                      "': entry carries outcome ", o,
                      ", beyond this build's outcome classes");
            if (j.size() == 3)
                quarantine.push_back(
                    faultsim::QuarantineRecord{key, j[2].asString()});
            ++entries;
            sink(key, static_cast<faultsim::Outcome>(o));
        }
        pos = nl + 1;
        valid = pos;
    }

    if (valid != text.size()) {
        std::error_code ec;
        std::filesystem::resize_file(path_, valid, ec);
        if (ec)
            fatal("outcome journal: cannot truncate torn tail of '",
                  path_, "': ", ec.message());
    }
    restored_ = true;
    journalMetrics().restored.add(entries);
    return quarantine;
}

void
OutcomeJournal::open()
{
    if (path_.empty())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    if (file_)
        return;
    // Appending is only sound after restore() vetted the prefix; a
    // caller that skipped restore chose to re-run everything, so any
    // leftover file is started over.
    file_ = std::fopen(path_.c_str(), restored_ ? "ab" : "wb");
    if (!file_)
        fatal("outcome journal: cannot open '", path_,
              "': ", std::strerror(errno));
    if (!restored_)
        headerPresent_ = false;
    if (!headerPresent_) {
        Json h = Json::object();
        h.set("format", kJournalTag);
        h.set("spec", specKey_);
        const std::string line = h.dump() + "\n";
        if (std::fwrite(line.data(), 1, line.size(), file_) !=
            line.size())
            fatal("outcome journal: write to '", path_,
                  "' failed (disk full?)");
        // The header reaches the disk before any entry does: restore
        // never sees entries under a missing header.
        flushLocked();
        headerPresent_ = true;
    }
}

void
OutcomeJournal::append(std::uint64_t key, faultsim::Outcome outcome,
                       const faultsim::InjectDetail &detail)
{
    if (path_.empty())
        return;
    Json e = Json::array();
    e.push(key);
    e.push(static_cast<std::uint64_t>(outcome));
    if (detail.quarantined)
        e.push(detail.reason);
    const std::string line = e.dump() + "\n";

    std::lock_guard<std::mutex> lock(mu_);
    MERLIN_ASSERT(file_ != nullptr, "journal append before open()");
    // One fwrite per entry: a crash tears at most the final line, the
    // exact shape restore() knows how to discard.
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size())
        fatal("outcome journal: write to '", path_,
              "' failed (disk full?)");
    journalMetrics().appends.add();
    if (++sinceFlush_ >= kFlushInterval)
        flushLocked();
}

void
OutcomeJournal::flushLocked()
{
    if (std::fflush(file_) != 0)
        fatal("outcome journal: flush of '", path_,
              "' failed: ", std::strerror(errno));
    syncFile(file_, path_);
    journalMetrics().fsyncs.add();
    sinceFlush_ = 0;
}

void
OutcomeJournal::close()
{
    if (path_.empty())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    if (!file_)
        return;
    flushLocked();
    std::fclose(file_);
    file_ = nullptr;
}

void
OutcomeJournal::remove()
{
    close();
    if (path_.empty())
        return;
    std::error_code ec;
    std::filesystem::remove(path_, ec); // missing file is fine
}

} // namespace merlin::io
