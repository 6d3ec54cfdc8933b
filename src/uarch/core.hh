/**
 * @file
 * Cycle-level out-of-order core for MRL-64.
 *
 * The pipeline models fetch (with branch prediction), decode to uops,
 * rename onto a physical register file with a free list, dispatch into
 * ROB / issue queue / load-store queue, out-of-order issue with
 * functional-unit constraints, store-to-load forwarding, in-order commit,
 * post-commit store drain into a write-back L1D, and full squash recovery
 * on branch mispredictions.
 *
 * Reliability hooks:
 *  - the golden run carries a Probe, its one recorder: the core writes
 *    each physical write, physical read and committed read of the
 *    three MeRLiN target structures (RF, SQ data field, L1D data array)
 *    straight into it, one inline call per site.  The cache reports
 *    nothing; the core records L1D fills and write-backs from each
 *    access's result, since it knows the phase and the accessing uop;
 *  - flipBit() and applyDelta() let the injector corrupt live storage
 *    mid-run; diff() finds how a faulty core differs from a golden
 *    snapshot.
 *
 * Stage evaluation order within a cycle is commit -> writeback -> issue ->
 * rename/dispatch -> fetch, so dependent single-cycle ops execute on
 * back-to-back cycles, as in the gem5 O3 model.
 *
 * Host-side layout: the text segment is decoded and expanded once per
 * program, with each macro's prediction kind; fetch still pays the L1I
 * access for timing, and a fetch from the line it touched last counts
 * the hit without a tag search.  The ROB is a power-of-two ring of
 * 64-byte entries that point into the decoded text; a control uop's
 * prediction sits in a side array.  The issue queue is a set of ROB
 * slots with a ready subset that writeback wakes per register, so
 * issue visits ready uops only, oldest first.  In-flight completions
 * are a vector sorted latest first.  The SQ walks by decrement-with-
 * wrap and the uop queue is a fixed ring, so no per-cycle path
 * divides.  None of this changes a simulated event: the committed
 * statistics (tests/golden/core_stats.json) pin that.
 */

#ifndef MERLIN_UARCH_CORE_HH
#define MERLIN_UARCH_CORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/interp.hh"
#include "isa/program.hh"
#include "isa/uops.hh"
#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/config.hh"
#include "uarch/probe.hh"

namespace merlin::uarch
{

/** Timing statistics of one run. */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instret = 0;
    std::uint64_t uopsRetired = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t squashes = 0;
    std::uint64_t loadsExecuted = 0;
    std::uint64_t storeForwards = 0;
    std::uint64_t l1dHits = 0;
    std::uint64_t l1dMisses = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instret) / cycles : 0.0;
    }

    bool operator==(const CoreStats &) const = default;
};

/**
 * Byte accounting of one snapshot capture or restore: how much state
 * was deep-copied versus referenced through shared COW chunks.  The
 * seed engine deep-copied total(); the COW substrate copies only
 * bytesCopied.
 */
struct SnapshotStats
{
    std::uint64_t bytesCopied = 0; ///< duplicated into private storage
    std::uint64_t bytesShared = 0; ///< referenced via shared COW chunks

    std::uint64_t total() const { return bytesCopied + bytesShared; }
};

/**
 * How a core differs from a golden snapshot in the payloads the golden
 * effect trace covers (replay/trace.hh): XOR masks over RF registers,
 * SQ data fields and L1D data words, and over the output bytes emitted
 * so far.  Core::diff() computes it and Core::applyDelta() puts it back
 * onto a restored golden state; a single bit flip is the one-bit case.
 */
struct StateDelta
{
    /** One differing 64-bit entry of a target structure. */
    struct Word
    {
        Structure s;
        EntryIndex entry;
        std::uint64_t mask; ///< XOR of the two entries' values

        bool operator==(const Word &) const = default;
    };
    std::vector<Word> words;
    /** XOR over the emitted output, up to its last differing byte. */
    std::vector<std::uint8_t> output;

    bool empty() const { return words.empty() && output.empty(); }
};

/** The out-of-order core. */
class Core
{
  public:
    /**
     * Opaque, immutable checkpoint of the complete core state
     * (architectural + microarchitectural + memory hierarchy).
     * Capture shares the memory image, the cache data and tag arrays,
     * the BTB and the decoded text copy-on-write, so both capture and
     * restore copy only the small remainder (under 64 KiB on the
     * default machine) and a restored run pays only for what it dirties.
     * Cheap to copy (shared ownership); safe to restore from multiple
     * threads concurrently.
     */
    class Snapshot;

    /** @p probe, when given, records the run; its entry counts must
     *  be this machine's. */
    Core(const isa::Program &prog, const CoreConfig &cfg,
         Probe *probe = nullptr);

    /**
     * Resume from @p snap instead of cycle 0.  Only the watchdog /
     * window knobs of @p cfg may differ from the snapshotted
     * configuration; structural parameters must match.  The restored
     * core never carries a probe.  @p stats, when given, receives the
     * restore's byte accounting; @p deep forces a full detach of all
     * COW state (the seed engine's deep-copy behaviour, kept for
     * benchmarking the substrate).
     */
    Core(const isa::Program &prog, const CoreConfig &cfg,
         const Snapshot &snap, SnapshotStats *stats = nullptr,
         bool deep = false);

    /**
     * Capture the full state of this core between ticks.  @p stats /
     * @p deep as on the restoring constructor.
     */
    Snapshot snapshot(SnapshotStats *stats = nullptr,
                      bool deep = false) const;

    /**
     * Diff against the core stored in @p snap.  True when this core is
     * that state XOR @p delta: every field matches except RF values,
     * SQ data fields, L1D data words, the result copies of dead ROB
     * slots (rewritten before any use) and the bytes of an equally
     * long output; @p delta receives those payload differences (empty
     * on an exact match).  False when anything else differs — live ROB entries, L1I/L2 data and memory
     * included.  Memory and cache data compare chunk-pointer-first.
     * Probe-only bookkeeping (pending committed reads) is excluded —
     * it never influences a probe-free run.
     */
    bool diff(const Snapshot &snap, StateDelta &delta) const;

    /** Empty diff: the two cores are on identical future
     *  trajectories. */
    bool stateEquals(const Snapshot &snap) const;

    /** Advance one cycle; false once the run has terminated. */
    bool tick();

    /** Run to termination and return the architectural outcome. */
    isa::ArchResult run();

    bool finished() const { return finished_; }
    Cycle cycle() const { return cycle_; }
    const isa::ArchResult &result() const { return result_; }
    const CoreStats &stats() const { return stats_; }
    const CoreConfig &config() const { return cfg_; }

    /** The cache levels (read-only; hit/miss/write-back counters). */
    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }

    /** The branch target buffer (read-only). */
    const Btb &btb() const { return btb_; }

    // ---- fault-injection hooks (GeFIN-style bit flips) ----
    /** Flip @p bit of entry @p entry of target structure @p s. */
    void
    flipBit(Structure s, EntryIndex entry, unsigned bit)
    {
        MERLIN_ASSERT(bit < 64, "flip bit out of range");
        xorEntry(s, entry, 1ULL << bit);
    }

    /** XOR @p delta in (its output part over the emitted prefix). */
    void applyDelta(const StateDelta &delta);

    /** Entry counts of the injectable structures. */
    unsigned numRegisterFileEntries() const { return cfg_.numPhysIntRegs; }
    unsigned numStoreQueueEntries() const { return cfg_.sqEntries; }
    unsigned numL1dWords() const { return cfg_.l1d.totalWords(); }

    // ---- architectural state extraction (window-end comparison) ----
    /** Committed value of architectural register @p arch. */
    std::uint64_t archRegValue(unsigned arch) const;

    /**
     * Memory as the program would observe it: backing memory with all
     * dirty cache lines and committed-but-undrained stores applied.
     */
    isa::SegmentedMemory archMemoryView() const;

  private:
    /** Memberwise copy; callers must run fixupAfterCopy() on the copy. */
    Core(const Core &) = default;

    /** Reject restoring from a default-constructed (empty) snapshot. */
    static const Core &requireState(const Snapshot &snap);

    /** Re-target internal pointers after a memberwise copy. */
    void fixupAfterCopy();

    /** Field-wise diff against @p o (see diff(Snapshot)). */
    bool diff(const Core &o, StateDelta &delta) const;

    /** Every ROB slot matches, dead slots up to their result copy. */
    bool robMatches(const Core &o) const;

    /** XOR @p mask into entry @p entry of target structure @p s. */
    void xorEntry(Structure s, EntryIndex entry, std::uint64_t mask);

    /** Bytes a memberwise copy duplicates (non-COW members). */
    std::uint64_t deepStateBytes() const;

    /** Bytes a memberwise copy shares through COW chunks. */
    std::uint64_t cowStateBytes() const;

    /** Give every COW structure private storage (a deep copy). */
    void detachAll();

    static constexpr std::uint16_t NO_PREG = 0xffff;

    struct PendingRead
    {
        Structure s;
        EntryIndex entry;
        Cycle cycle;
        std::uint8_t phase;
    };

    /**
     * Physical reads of one in-flight uop, reported to the probe only
     * if it commits.  Kept beside the ROB, not in it, and only on a
     * probed core: they never influence timing, injected cores never
     * carry a probe, and the profiled golden core records them while
     * probe-free restored cores cannot — so they are also excluded
     * from diff().
     */
    struct PendingReads
    {
        std::uint8_t n = 0;
        PendingRead reads[4];
    };

    /** The uop a fetch-trap entry and a blank ROB slot carry (it never
     *  executes). */
    static constexpr isa::StaticUop kNoUop{};

    /** How fetch predicts past a macro; decided once, at decode. */
    enum class CtrlKind : std::uint8_t
    {
        None,     ///< not control flow: fall through
        Cond,     ///< conditional branch: the tournament predictor
        Direct,   ///< JMP / CALL: the immediate
        Return,   ///< indirect return: the RAS
        Indirect, ///< other indirect jump: the BTB
    };

    /** One text slot, decoded and expanded once per program. */
    struct DecodedInsn
    {
        std::uint8_t numUops = 0; ///< 0: the slot is not a valid encoding
        isa::Opcode op = isa::Opcode::NOP;
        CtrlKind ctrl = CtrlKind::None;
        bool isCall = false; ///< the control uop pushes the RAS
        Addr directTarget = 0; ///< the immediate, as a direct target
        isa::StaticUop uops[isa::MAX_UOPS_PER_MACRO];
    };
    using DecodedText = std::vector<DecodedInsn>;

    /** Decode every instruction slot of @p mem's text segment. */
    static std::shared_ptr<const DecodedText>
    decodeText(const isa::SegmentedMemory &mem);

    /**
     * A static uop by reference into the decoded text (or kNoUop).  It
     * compares by value: a core built fresh from the same program
     * decodes its own text, so equal uops need not share an address.
     */
    struct UopRef
    {
        const isa::StaticUop *p = &kNoUop;

        const isa::StaticUop *operator->() const { return p; }
        const isa::StaticUop &operator*() const { return *p; }
        bool operator==(const UopRef &o) const { return *p == *o.p; }
    };

    /**
     * One ROB slot, one 64-byte line: what every stage reads.  A
     * control uop's prediction and outcome live beside it, in robCtrl_.
     * memSeq/memSlot are a store's own SQ sequence number and slot, and
     * a load's youngest older store + 1 and that store's slot.
     */
    struct RobEntry
    {
        SeqNum seq = 0;
        Rip rip = 0;
        UopRef su;
        std::uint64_t resultValue = 0; ///< also an OUT's value
        std::uint64_t memSeq = 0;
        std::uint32_t gen = 0;
        std::uint32_t memSlot = 0;
        std::uint16_t physDst = NO_PREG;
        std::uint16_t prevPhys = NO_PREG;
        std::uint16_t physSrc1 = NO_PREG;
        std::uint16_t physSrc2 = NO_PREG;
        Upc upc = 0;
        bool lastUop = true;
        bool done = false;
        isa::TrapKind trap = isa::TrapKind::None;
        isa::UopKind kind = isa::UopKind::Nop; ///< su->kind, kept at hand
        bool isCtrl = false;

        bool operator==(const RobEntry &) const = default;
    };
    static_assert(sizeof(RobEntry) == 64, "a ROB entry is one line");

    /** The prediction fetch attaches to a control uop. */
    struct Prediction
    {
        Addr target = 0;
        Ras::Snapshot rasSnap{0, 0};
        PredictionState state;
        bool taken = false;
        bool hasState = false; ///< a conditional branch: state is set
        bool rasValid = false;

        bool operator==(const Prediction &) const = default;
    };

    /** A control uop's ROB-side state: its prediction and outcome. */
    struct RobCtrl
    {
        Prediction pred;
        Addr actualTarget = 0;
        bool actualTaken = false;

        bool operator==(const RobCtrl &) const = default;
    };

    struct SqEntry
    {
        Addr addr = 0;
        std::uint64_t storeSeq = 0;
        SeqNum seqNum = 0;
        Rip rip = 0;
        bool valid = false;
        bool addrReady = false;
        bool dataReady = false;
        bool committed = false;
        std::uint8_t size = 0;
        Upc upc = 0;

        bool operator==(const SqEntry &) const = default;
    };

    struct FetchedUop
    {
        /** Into the shared decoded text (a placeholder on fetch traps). */
        const isa::StaticUop *su = nullptr;
        Rip rip = 0;
        Cycle readyAt = 0;
        /** Set, and meaningful, only when isCtrl. */
        Prediction pred;
        Upc upc = 0;
        bool lastUop = true;
        isa::TrapKind fetchTrap = isa::TrapKind::None;
        bool isCtrl = false;

        /**
         * Same fetched uop: within one program (rip, upc, fetchTrap)
         * determine the static uop, and the prediction counts only on
         * a control uop.
         */
        bool
        operator==(const FetchedUop &o) const
        {
            return rip == o.rip && readyAt == o.readyAt && upc == o.upc &&
                   lastUop == o.lastUop && fetchTrap == o.fetchTrap &&
                   isCtrl == o.isCtrl && (!isCtrl || pred == o.pred);
        }
    };

    struct Completion
    {
        Cycle cycle;
        SeqNum seq;
        std::uint32_t robIdx;
        std::uint32_t gen;

        /** Total order: writeback takes (cycle, seq) earliest first;
         *  robIdx and gen only break ties, so equal queues compare
         *  equal element by element. */
        bool
        operator<(const Completion &o) const
        {
            if (cycle != o.cycle)
                return cycle < o.cycle;
            if (seq != o.seq)
                return seq < o.seq;
            return robIdx != o.robIdx ? robIdx < o.robIdx : gen < o.gen;
        }

        bool operator==(const Completion &) const = default;
    };

    /** What issue found for a load that may go: its address, its
     *  access check and, when it forwards, the store's slot and data. */
    struct LoadIssue
    {
        Addr addr = 0;
        isa::TrapKind trap = isa::TrapKind::None;
        bool forward = false;
        std::uint64_t value = 0;
        std::uint32_t slot = 0;
    };

    // Stages.
    void stageCommit();
    void stageDrainStores();
    void stageWriteback();
    void stageIssue();
    void stageRename();
    void stageFetch();

    // Helpers.
    std::uint32_t
    robSlot(SeqNum seq) const
    {
        return static_cast<std::uint32_t>(seq & robMask_);
    }
    RobEntry &robAt(SeqNum seq) { return rob_[robSlot(seq)]; }
    const RobEntry &robAt(SeqNum seq) const { return rob_[robSlot(seq)]; }
    bool robFull() const { return robTailSeq_ - robHeadSeq_ >= cfg_.robEntries; }
    bool robEmpty() const { return robTailSeq_ == robHeadSeq_; }

    /** Add ROB slot @p slot (holding @p e) to the issue queue. */
    void iqInsert(std::uint32_t slot, const RobEntry &e);
    /** Drop ROB slot @p slot from the issue queue. */
    void
    iqRemove(std::uint32_t slot)
    {
        const std::uint64_t keep = ~(1ULL << (slot & 63));
        iqMask_[slot >> 6] &= keep;
        readyMask_[slot >> 6] &= keep;
        --iqCount_;
    }
    /** Physical register @p preg became ready: re-check its waiters. */
    void wake(std::uint16_t preg);
    bool
    sourcesReady(const RobEntry &e) const
    {
        return (e.physSrc1 == NO_PREG || prfReady_[e.physSrc1]) &&
               (e.physSrc2 == NO_PREG || prfReady_[e.physSrc2]);
    }

    /** Execute a non-load uop at issue. */
    void executeUop(RobEntry &e);
    /** Execute load @p e on what issue found for it (@p li). */
    void executeLoad(RobEntry &e, const LoadIssue &li);
    bool loadBlocked(const RobEntry &e, Addr addr, unsigned size,
                     bool &can_forward, std::uint64_t &fwd_value,
                     std::uint32_t &fwd_slot);
    void scheduleCompletion(const RobEntry &e, Cycle when);
    void squashAfter(SeqNum branch_seq, Addr redirect_to);
    void terminate(isa::TerminateReason reason, int exit_code);
    void raiseTrapAtCommit(RobEntry &e);

    // Recording (probe_ non-null).
    /** Buffer @p e's committed read until it commits. */
    void addPendingRead(const RobEntry &e, Structure s, EntryIndex entry,
                        std::uint8_t phase);
    /** @p e reads now: a physical read, and a committed one if it
     *  commits. */
    void
    recordRead(const RobEntry &e, Structure s, EntryIndex entry,
               std::uint8_t phase, std::uint8_t mask)
    {
        probe_->physicalRead(s, entry, cycle_, mask);
        addPendingRead(e, s, entry, phase);
    }
    /** The write-back reads and fill writes of an L1D miss @p ar, on
     *  behalf of the access (@p rip, @p upc, @p seq). */
    void recordL1dMiss(const Cache::AccessResult &ar,
                       std::uint8_t wb_phase, std::uint8_t fill_phase,
                       Rip rip, Upc upc, SeqNum seq);

    // Uop queue (fixed ring).
    /** Append a uop fetched at fetchPc_ this cycle; the caller fills
     *  the prediction fields of a control uop. */
    FetchedUop &uopQueueAppend(const isa::StaticUop *su, Upc upc,
                               bool last_uop, isa::TrapKind trap);
    bool uopQueueEquals(const Core &o) const;

    /** Fetch stops while the uop queue holds this many uops. */
    static constexpr std::uint32_t kUopQueueFetchLimit = 32;
    std::uint64_t readPhysReg(RobEntry &e, std::uint16_t preg);

    CoreConfig cfg_;
    Probe *probe_;

    // Memory system.
    isa::SegmentedMemory mem_;
    Cache l2_;
    Cache l1i_;
    Cache l1d_;

    // Branch prediction.
    TournamentPredictor tournament_;
    Btb btb_;
    Ras ras_;

    // Register machinery.
    std::vector<std::uint64_t> prf_;
    std::vector<std::uint8_t> prfReady_;
    std::vector<std::uint16_t> freeList_;
    std::uint16_t renameMap_[isa::NUM_RENAMEABLE_REGS];
    std::uint16_t commitMap_[isa::NUM_RENAMEABLE_REGS];

    // Window.
    std::vector<RobEntry> rob_; ///< power-of-two ring, slot = seq & mask
    std::vector<RobCtrl> robCtrl_; ///< by ROB slot; set for control uops
    SeqNum robMask_;
    SeqNum robHeadSeq_ = 0;
    SeqNum robTailSeq_ = 0;
    /**
     * The issue queue as sets of ROB slots (bit s % 64 of word s / 64):
     * iqMask_ holds the uops waiting to issue and readyMask_ those of
     * them whose sources are ready; waiters_ (robWords_ words per
     * physical register) holds the slots renamed while that register
     * was pending.  Issue walks readyMask_ from the ROB head, so it
     * visits ready uops only, oldest first, and a register's writeback
     * re-checks only its waiters.  readyMask_ and waiters_ follow from
     * iqMask_, the ROB and prfReady_, so diff() compares iqMask_ alone.
     */
    std::vector<std::uint64_t> iqMask_;
    std::vector<std::uint64_t> readyMask_;
    std::vector<std::uint64_t> waiters_;
    std::uint32_t robWords_;
    unsigned iqCount_ = 0;
    std::vector<PendingReads> pending_; ///< by ROB slot; probed cores only
    /** In-flight completions, sorted latest first: writeback pops the
     *  earliest off the back. */
    std::vector<Completion> completions_;

    // LSQ.
    std::vector<SqEntry> sq_;
    std::vector<std::uint64_t> sqData_; ///< persistent data-field storage
    std::uint64_t sqNextSeq_ = 0;
    std::uint64_t sqHeadSeq_ = 0;
    std::uint32_t sqNextSlot_ = 0; ///< sqNextSeq_ % sqEntries
    std::uint32_t sqHeadSlot_ = 0; ///< sqHeadSeq_ % sqEntries
    unsigned lqOccupancy_ = 0;

    // Frontend.
    std::shared_ptr<const DecodedText> text_; ///< shared with snapshots
    Addr fetchPc_;
    /**
     * The L1I line fetch accessed last and where it lives.  Fetch is
     * the L1I's only client, so that line stays resident at (set, way)
     * until fetch itself misses elsewhere: a fetch from it is a hit
     * without a tag search.  Host-side only; diff() ignores it.
     */
    Addr l1iLine_ = ~Addr(0);
    std::uint32_t l1iSet_ = 0;
    std::uint32_t l1iWay_ = 0;
    Cycle fetchResumeCycle_ = 0;
    bool fetchHalted_ = false; ///< stop fetching until redirect
    std::vector<FetchedUop> uopRing_;
    std::uint32_t uopHead_ = 0;
    std::uint32_t uopCount_ = 0;

    // Execution resources.
    std::vector<Cycle> divBusyUntil_;

    // Run state.
    Cycle cycle_ = 0;
    Cycle lastCommitCycle_ = 0;
    SeqNum nextSeq_ = 0;
    bool finished_ = false;
    isa::ArchResult result_;
    CoreStats stats_;
};

class Core::Snapshot
{
  public:
    Snapshot() = default;

    /** Cycle at which the state was captured. */
    Cycle cycle() const { return cycle_; }
    bool valid() const { return state_ != nullptr; }

  private:
    friend class Core;
    std::shared_ptr<const Core> state_;
    Cycle cycle_ = 0;
};

} // namespace merlin::uarch

#endif // MERLIN_UARCH_CORE_HH
