/**
 * @file
 * Deterministic suite partitioning for distributed dispatch.
 *
 * A SpecSelector names one worker's share of a suite: "--select i/n"
 * keeps every spec whose manifest position is congruent to i mod n
 * (round-robin), "--select-hash i/n" keeps every spec whose content
 * hash is congruent to i mod n (invariant to manifest reordering, and
 * it lands repeated specs on the same worker).  For a fixed mode and
 * n, the selections 0/n .. n-1/n are disjoint and complete, so the
 * per-worker result stores merge back into exactly the single-host
 * store (`merlin_cli store merge`).
 */

#ifndef MERLIN_SCHED_SELECTOR_HH
#define MERLIN_SCHED_SELECTOR_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace merlin::sched
{

struct SpecSelector
{
    enum class Mode : std::uint8_t
    {
        RoundRobin, ///< by manifest position (--select)
        Hash,       ///< by spec content hash (--select-hash)
    };

    Mode mode = Mode::RoundRobin;
    std::uint64_t index = 0;
    std::uint64_t count = 1;

    /**
     * Parse "i/n".  fatal() on anything that is not two strict
     * unsigned integers joined by one '/', on n == 0, and on i >= n —
     * an out-of-range worker would silently run nothing.
     */
    static SpecSelector parse(const std::string &text, Mode mode);

    /**
     * Does this selection keep the spec at manifest @p position whose
     * content hash is @p spec_key (CampaignSpec::key())?  Round-robin
     * looks only at the position, hash mode only at the key.
     */
    bool selects(std::size_t position, const std::string &spec_key) const;

    /** "0/3 round-robin" — for reports and diagnostics. */
    std::string describe() const;
};

} // namespace merlin::sched

#endif // MERLIN_SCHED_SELECTOR_HH
