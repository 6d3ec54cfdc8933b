/**
 * @file
 * Append-only injection-outcome journal: the suite scheduler's
 * crash-safety layer UNDER the per-campaign store save.
 *
 * The result store persists whole campaigns; a process killed
 * mid-campaign loses every injection it had already simulated.  The
 * journal closes that gap: as injections of a campaign complete, their
 * (fault key, outcome) pairs are appended to a per-spec file in
 * `<store>.journal/` and fsync'd on a short cadence.  A resumed suite
 * (--resume) replays the journal into the batch memo, so only the
 * missing injections run again — and because outcomes are a pure
 * function of their fault, the resumed campaign's result (and the
 * saved store) is byte-identical to an uninterrupted run's.
 *
 * Format: one header line `{"format":"merlin-journal-v2","spec":K}`
 * then one compact JSON array per entry, `[key, outcome]`, or
 * `[key, outcome, reason]` when the injection was quarantined.  Only
 * outcomes are journaled: how the engine reached them is not part of
 * the result.  A journal in any other format is refused by name.  A
 * torn final line is the expected crash artifact and is truncated away
 * on restore; garbage in a COMPLETE line is real corruption and fatal.
 * The journal is removed once the campaign's result reaches the store,
 * whose atomic save takes over from there.
 */

#ifndef MERLIN_IO_JOURNAL_HH
#define MERLIN_IO_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "faultsim/runner.hh"

namespace merlin::io
{

class OutcomeJournal
{
  public:
    /** Entries are fsync'd at least this often (and on close()). */
    static constexpr unsigned kFlushInterval = 32;

    /**
     * A journal for the campaign keyed @p spec_key, stored at @p path.
     * Purely descriptive: nothing is opened or created until
     * restore()/open().  An empty path disables the journal — every
     * method degrades to a no-op.
     */
    OutcomeJournal(std::string path, std::string spec_key);

    ~OutcomeJournal();

    OutcomeJournal(const OutcomeJournal &) = delete;
    OutcomeJournal &operator=(const OutcomeJournal &) = delete;

    /**
     * Replay an existing journal file, feeding every complete entry to
     * @p sink (the caller seeds its OutcomeMemo with them) and
     * returning the quarantine records among them.  A torn final line
     * — the artifact of a mid-append crash — is truncated off the file
     * so a later open() appends after the valid prefix; a torn HEADER
     * means no entry ever landed, so the file is discarded with a
     * warning.  A complete-but-malformed line, a foreign format, or a
     * header naming a different spec is fatal.  Missing file or
     * disabled journal: feeds nothing.
     */
    std::vector<faultsim::QuarantineRecord>
    restore(const std::function<void(std::uint64_t, faultsim::Outcome)>
                &sink);

    /**
     * Open for appending, writing the header first when the file is
     * new/empty.  Without a prior restore() any existing file is
     * started over — its entries belong to a run the caller chose not
     * to resume.
     */
    void open();

    /**
     * Record one completed injection.  Thread-safe; called from pool
     * workers as injections finish, in whatever order they finish
     * (order never matters: restore feeds a memo, not a result).
     */
    void append(std::uint64_t key, faultsim::Outcome outcome,
                const faultsim::InjectDetail &detail);

    /** Flush + fsync + close the append handle (idempotent). */
    void close();

    /**
     * Close and delete the file: the campaign's result reached the
     * durable store, so the journal has nothing left to protect.
     */
    void remove();

    const std::string &path() const { return path_; }

  private:
    void flushLocked();

    std::string path_;
    std::string specKey_;
    std::mutex mu_;
    std::FILE *file_ = nullptr;
    unsigned sinceFlush_ = 0;
    /** restore() ran and kept a valid prefix worth appending after. */
    bool restored_ = false;
    /** The valid prefix already starts with a good header line. */
    bool headerPresent_ = false;
};

} // namespace merlin::io

#endif // MERLIN_IO_JOURNAL_HH
