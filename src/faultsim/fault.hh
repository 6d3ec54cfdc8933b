/**
 * @file
 * Transient-fault descriptors and the paper's Table-2 outcome classes.
 */

#ifndef MERLIN_FAULTSIM_FAULT_HH
#define MERLIN_FAULTSIM_FAULT_HH

#include <cstddef>
#include <cstdint>

#include "base/logging.hh"
#include "base/types.hh"
#include "uarch/probe.hh"

namespace merlin::faultsim
{

/** One transient fault: a single bit flip at a single cycle. */
struct Fault
{
    uarch::Structure structure = uarch::Structure::RegisterFile;
    EntryIndex entry = 0;  ///< register index / SQ slot / L1D word
    std::uint8_t bit = 0;  ///< bit position within the 64-bit entry
    Cycle cycle = 0;       ///< flip applied at the start of this cycle

    /** Byte position inside the entry (MeRLiN's 2nd grouping step). */
    std::uint8_t
    byte() const
    {
        return bit / 8;
    }

    bool
    operator==(const Fault &o) const
    {
        return structure == o.structure && entry == o.entry &&
               bit == o.bit && cycle == o.cycle;
    }
};

/**
 * Lossless 64-bit packing of a fault within one campaign (the target
 * structure is fixed per campaign, so it is not part of the key):
 * cycle in bits [0,40), entry in [40,58), bit position in [58,64).
 * The uarch::kFaultEntryBits = 18 entry bits cover L1D data arrays up
 * to 2 MB (2^18 8-byte words), the largest CoreConfig::validL1dKb()
 * accepts.
 */
inline std::uint64_t
faultKey(const Fault &f)
{
    static_assert(40 + uarch::kFaultEntryBits + 6 == 64);
    MERLIN_ASSERT(f.cycle < (1ULL << 40) &&
                      f.entry < (1u << uarch::kFaultEntryBits) &&
                      f.bit < 64,
                  "fault key overflow");
    return f.cycle | (static_cast<std::uint64_t>(f.entry) << 40) |
           (static_cast<std::uint64_t>(f.bit)
            << (40 + uarch::kFaultEntryBits));
}

/**
 * Identity hash for already-packed fault keys: the low bits are the
 * fault cycle, which is as good a bucket index as any mixed hash, and
 * skipping the mix keeps the memo lookup off the campaign profile.
 */
struct FaultKeyHash
{
    std::size_t
    operator()(std::uint64_t k) const noexcept
    {
        return static_cast<std::size_t>(k);
    }
};

/**
 * Fault-effect classification (Table 2).  Unknown is used only for
 * SimPoint-window campaigns terminated at the window boundary (Table 4).
 */
enum class Outcome : std::uint8_t
{
    Masked = 0,
    SDC,
    DUE,
    Timeout,
    Crash,
    Assert,
    Unknown,
    NUM_OUTCOMES
};

constexpr unsigned NUM_OUTCOMES =
    static_cast<unsigned>(Outcome::NUM_OUTCOMES);

const char *outcomeName(Outcome o);

} // namespace merlin::faultsim

#endif // MERLIN_FAULTSIM_FAULT_HH
