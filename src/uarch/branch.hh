/**
 * @file
 * Branch prediction: tournament predictor (local + gshare + chooser),
 * direct-mapped BTB, and a return address stack.
 *
 * Direction state (2-bit counters) is trained at commit; the global
 * history register is updated speculatively at predict time and repaired
 * from a per-branch snapshot on squash, as in the gem5 O3 model.
 */

#ifndef MERLIN_UARCH_BRANCH_HH
#define MERLIN_UARCH_BRANCH_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "base/cow.hh"
#include "base/types.hh"
#include "uarch/config.hh"

namespace merlin::uarch
{

/** Snapshot carried by each in-flight branch for training and repair. */
struct PredictionState
{
    bool taken = false;
    std::uint32_t ghistSnapshot = 0; ///< history *before* this branch
    std::uint16_t localIdx = 0;
    std::uint16_t globalIdx = 0;
    std::uint16_t chooserIdx = 0;

    bool operator==(const PredictionState &) const = default;
};

/** Tournament direction predictor. */
class TournamentPredictor
{
  public:
    explicit TournamentPredictor(const CoreConfig &cfg);

    /** Predict @p pc; advances speculative global history. */
    PredictionState predict(Addr pc);

    /** Train counters and local history with the committed outcome. */
    void update(Addr pc, bool taken, const PredictionState &state);

    /** Restore speculative history after a squash, then apply @p taken. */
    void repairHistory(const PredictionState &state, bool taken);

    std::uint32_t globalHistory() const { return ghist_; }

    /** Full table + history equality (reconvergence check). */
    bool stateEquals(const TournamentPredictor &o) const;

    /** Bytes a memberwise copy duplicates (snapshot accounting). */
    std::uint64_t stateBytes() const;

  private:
    static void bump(std::uint8_t &ctr, bool up);

    unsigned localBits_;
    unsigned globalBits_;
    std::vector<std::uint16_t> localHistory_;
    std::vector<std::uint8_t> localCounters_;
    std::vector<std::uint8_t> globalCounters_;
    std::vector<std::uint8_t> chooser_;
    std::uint32_t ghist_ = 0;
};

/**
 * Direct-mapped branch target buffer.  The table is copy-on-write
 * (base::CowArray): a snapshot shares it, and a restored core copies
 * only the chunks its committed indirect jumps actually change.
 */
class Btb
{
  public:
    explicit Btb(unsigned entries);

    std::optional<Addr> lookup(Addr pc) const;
    void update(Addr pc, Addr target);

    /** Table equality; shared chunks compare by identity. */
    bool stateEquals(const Btb &o) const;

    /** Chunk-pointer-table bytes a memberwise copy duplicates. */
    std::uint64_t metaBytes() const { return entries_.tableBytes(); }

    /** Entry bytes a memberwise copy shares. */
    std::uint64_t cowBytes() const { return entries_.bytes(); }

    /** Table chunks physically shared with @p o. */
    std::size_t
    sharedChunksWith(const Btb &o) const
    {
        return entries_.sharedChunksWith(o.entries_);
    }

    /** Privatize the whole table (a deep copy). */
    void detachAll() { entries_.detachAll(); }

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        Addr target = 0;

        bool operator==(const Entry &) const = default;
    };
    base::CowArray<Entry> entries_;
};

/** Return address stack with single-entry squash repair. */
class Ras
{
  public:
    explicit Ras(unsigned entries);

    struct Snapshot
    {
        std::uint32_t top;
        Addr topValue;

        bool operator==(const Snapshot &) const = default;
    };

    Snapshot snapshot() const;
    void restore(const Snapshot &snap);
    void push(Addr ret_addr);
    Addr pop();

    bool stateEquals(const Ras &o) const;
    std::uint64_t stateBytes() const;

  private:
    /** Slot below @p i, wrapping. */
    std::uint32_t below(std::uint32_t i) const;

    std::vector<Addr> stack_;
    std::uint32_t top_ = 0; ///< index of next free slot (wraps)
};

} // namespace merlin::uarch

#endif // MERLIN_UARCH_BRANCH_HH
