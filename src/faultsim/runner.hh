/**
 * @file
 * Injection harness: golden-run capture (with periodic state
 * checkpoints), single-fault runs, the deterministic batch API (one
 * pool task per fresh injection), and the outcome classifier.
 *
 * Classification (priority order, Table 2 + DESIGN.md):
 *   Assert  - a simulator invariant tripped (SimAssertError)
 *   Crash   - crash-family trap committed (segfault, misalignment,
 *             illegal instruction, fetch out of text) or the simulator
 *             process itself failed
 *   Timeout - run exceeded 3x the golden cycles, or commit stopped
 *             making progress (deadlock/livelock watchdog)
 *   DUE     - exception-family trap (div-zero, software-detected error):
 *             the fault was detected before silent corruption
 *   SDC     - terminated normally but output or exit code differ
 *   Masked  - architecturally identical to the golden run
 *
 * For window-truncated (SimPoint-style) runs, a fault that is still
 * latent at the window end — different architectural register or memory
 * state — is Unknown (Table 4).
 *
 * Acceleration: `checkpoint_interval` selects the engine.  At 0 every
 * injection is the plain run: a fresh core at cycle 0, the bit flipped
 * at the fault cycle, simulated to the end.  Above 0 the golden run
 * records core snapshots every `checkpoint_interval` cycles (the list
 * is thinned and the interval doubled whenever it would exceed
 * kMaxCheckpoints, so memory stays bounded on long workloads) together
 * with its effect trace (replay/trace.hh), and every injection runs the
 * reconvergence step below.  Snapshots are copy-on-write (O(dirty
 * state) to capture), so the checkpoint grid can be dense.
 *
 * Reconvergence: a faulty run is the golden run XOR a delta — XOR
 * masks over RF values, SQ data fields, L1D data words and the output
 * bytes already emitted — whenever every other piece of core state
 * matches (uarch::Core::diff).  The step is entered with the flipped
 * bit as a one-bit delta at the fault cycle, and again at each golden
 * checkpoint past it with the delta one diff against the snapshot
 * finds (no match: keep simulating; an empty delta is the golden
 * future itself, Masked at once).  The golden effect trace tells where
 * the golden run first reads any delta byte, and the run continues
 * from the latest checkpoint at or before that read with the delta
 * XORed in — less the bytes the golden run overwrote before that
 * checkpoint — skipping every cycle in between (with no checkpoint
 * there, the run goes on where it is: from the latest checkpoint at or
 * before the flip when entered at the flip).  If no delta byte is ever
 * read again, a to-completion run is decided there: SDC when the
 * output delta is non-empty, else Masked; a windowed run with a delta
 * byte still untouched at the window end resumes at the latest
 * checkpoint instead and takes the Table-4 comparison.  At the flip
 * the step classifies a dead flip Masked with zero simulation and
 * skips a live one's pre-divergence head; at later checkpoints it
 * compresses the simulated window to the cycles around reads of
 * corrupted bytes.  Outcomes are unchanged by construction: until a
 * delta byte is read, nothing the golden run does depends on it.
 */

#ifndef MERLIN_FAULTSIM_RUNNER_HH
#define MERLIN_FAULTSIM_RUNNER_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "faultsim/fault.hh"
#include "isa/interp.hh"
#include "isa/program.hh"
#include "replay/trace.hh"
#include "uarch/core.hh"

namespace merlin::base
{
class TaskGroup;
}

namespace merlin::faultsim
{

/** Reference data captured from the fault-free run. */
struct GoldenRun
{
    isa::ArchResult arch;
    uarch::CoreStats stats;
    bool windowed = false;
    /** Committed architectural registers at the window end. */
    std::array<std::uint64_t, isa::NUM_ARCH_REGS> archRegs{};
    /** Architectural memory view at the window end. */
    std::shared_ptr<const isa::SegmentedMemory> archMem;
    /** Periodic core checkpoints, ascending by cycle (possibly empty). */
    std::vector<uarch::Core::Snapshot> checkpoints;
    /**
     * Per-cycle effect trace of the golden run (the reconvergence
     * step's oracle); null exactly when checkpointInterval is 0.
     */
    std::shared_ptr<const replay::EffectTrace> trace;
};

/**
 * Per-fault outcome cache keyed by faultKey(): outcomes a batch need
 * not simulate, such as those restored from a journal.  Not
 * synchronized; only the single-threaded planBatch()/finishBatch() and
 * the caller that seeds it touch it, never the injecting workers.
 */
class OutcomeMemo
{
  public:
    explicit OutcomeMemo(std::size_t expected_faults = 0);

    /** @return true and set @p out if @p key is present. */
    bool lookup(std::uint64_t key, Outcome &out) const;

    /** Keep the first outcome inserted for @p key. */
    void insert(std::uint64_t key, Outcome o);

    std::size_t size() const { return map_.size(); }

  private:
    std::unordered_map<std::uint64_t, Outcome, FaultKeyHash> map_;
};

/**
 * Deterministic execution plan for one batch of faults: memo hits
 * resolved, duplicates collapsed onto their first occurrence, fresh
 * work cycle-sorted for checkpoint locality.  Produced by
 * InjectionRunner::planBatch(); the work items may then be executed by
 * any thread in any order (each outcome is a pure function of its
 * fault), and finishBatch() publishes memo entries and fills the
 * duplicate slots.  This is the hook the suite scheduler uses to feed
 * many campaigns' injections into one shared pool.
 */
struct BatchPlan
{
    /** One slot per input fault, in input order. */
    std::vector<Outcome> outcomes;
    /** faultKey() of every input fault. */
    std::vector<std::uint64_t> keys;
    /** Indices that must actually run, sorted by flip cycle. */
    std::vector<std::uint32_t> work;
    /** Duplicate slots: first = destination, second = source index. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> aliases;
};

/**
 * One quarantined injection: a fault whose run did not merely
 * misbehave architecturally (that is what the Table-2 classes are
 * for) but corrupted the simulator itself — an exception escaping
 * it.  The record is deterministic (packed fault key + a reproducible
 * reason string), so a campaign that hits one still produces
 * byte-stable results and the offending fault can be replayed in
 * isolation.
 */
struct QuarantineRecord
{
    std::uint64_t faultKey = 0; ///< faultKey() packing of the fault
    std::string reason;         ///< deterministic, human-readable cause

    bool
    operator==(const QuarantineRecord &o) const
    {
        return faultKey == o.faultKey && reason == o.reason;
    }

    /** The one record order: by fault key, then reason. */
    bool
    operator<(const QuarantineRecord &o) const
    {
        return faultKey != o.faultKey ? faultKey < o.faultKey
                                      : reason < o.reason;
    }
};

/**
 * Per-injection facts beyond the Outcome, for the journal: the
 * quarantine verdict.  How the engine got there (early exit, replay)
 * is counted in InjectionStats, not here.
 */
struct InjectDetail
{
    bool quarantined = false; ///< guarded failure, outcome forced Crash
    std::string reason;       ///< quarantine reason when quarantined
};

/** What to do when an injection trips the quarantine guard. */
enum class QuarantinePolicy : std::uint8_t
{
    Continue, ///< record the fault, count it Crash, keep campaigning
    Fail,     ///< abort the campaign (FatalError) on first quarantine
};

/** Policy knobs of the injection harness. */
struct RunnerOptions
{
    /** Default checkpoint cadence (cycles). */
    static constexpr Cycle kDefaultCheckpointInterval = 512;
    /** The paper's timeout rule: this many times the golden cycles. */
    static constexpr unsigned kDefaultTimeoutFactor = 3;

    /**
     * The one engine selector.  Above 0: the golden run takes a
     * checkpoint every this many cycles and records its effect trace,
     * and every injection runs the reconvergence step (see
     * "Reconvergence" above).  0: each injection is the plain run from
     * a fresh core.  Outcome-invariant by construction; an engine
     * setting, never part of a result.
     */
    Cycle checkpointInterval = kDefaultCheckpointInterval;
    /** Timeout budget multiplier (0 is treated as 1). */
    unsigned timeoutFactor = kDefaultTimeoutFactor;
    /** Quarantine-guard policy (see QuarantinePolicy). */
    QuarantinePolicy quarantine = QuarantinePolicy::Continue;
    /**
     * TEST-ONLY hook, invoked once per simulated cycle after the flip
     * has been applied.  Lets tests model a pathological fault that
     * corrupts the simulator: throw to exercise the quarantine guard.
     * Cycles the reconvergence step skips are not simulated, so a test
     * that must see every post-flip cycle sets checkpointInterval to 0.
     * Never set in production paths; not part of any content hash.
     */
    std::function<void(const Fault &, Cycle)> injectHook;
};

/** How one runner's injections went: runs, early exits, quarantines
 *  and reconvergence steps (atomic; any thread count).  The one home
 *  of engine facts; InjectDetail carries only the quarantine verdict.
 *  On a checkpointed runner every run enters the step at the flip, so
 *  runs - replayMasked of them went on to simulate. */
struct InjectionStats
{
    std::uint64_t runs = 0;       ///< faulty runs injected
    std::uint64_t earlyExits = 0; ///< Masked at a checkpoint, empty delta
    std::uint64_t quarantined = 0; ///< of which tripped the guard
    /** Decided Masked by the step at the flip: zero cycles simulated. */
    std::uint64_t replayMasked = 0;
    /** Pre-divergence heads: from the latest checkpoint at or before
     *  the flip to the first golden read of the flipped byte (or to
     *  the run's end when none comes). */
    std::uint64_t replayHeadCycles = 0;
    std::uint64_t replayCyclesSkipped = 0; ///< of which not simulated
    /** Checkpoint steps that resumed at a later golden checkpoint. */
    std::uint64_t deltaResumes = 0;
    /** Runs decided by a checkpoint step off a non-empty delta. */
    std::uint64_t deltaDecided = 0;
    /** Post-flip cycles those resumes and decisions did not simulate. */
    std::uint64_t deltaCyclesSkipped = 0;
    /** Cycles simulated with the flip applied. */
    std::uint64_t postFlipCycles = 0;
};

/** Runs golden and faulty executions of one program/configuration. */
class InjectionRunner
{
  public:
    InjectionRunner(const isa::Program &prog,
                    const uarch::CoreConfig &cfg,
                    const RunnerOptions &opts = {});

    /**
     * Execute the fault-free run (optionally recorded by @p probe, e.g.
     * a profile::AceProfiler) and capture the reference outcome.  With
     * checkpointing on, it also captures the periodic state checkpoints
     * and records the effect trace, on @p probe too, moved out of it
     * into GoldenRun::trace.
     */
    GoldenRun golden(uarch::Probe *probe = nullptr) const;

    /**
     * Inject @p fault, run to termination, classify against @p ref.
     * When @p ref carries checkpoints and a trace, the run goes
     * through the reconvergence step at the flip and at every
     * checkpoint past it.
     *
     * The run is executed under the quarantine guard: a simulator
     * exception is recorded as a QuarantineRecord (policy Continue;
     * the outcome is Crash) or aborts with FatalError (policy Fail) —
     * a pathological fault can never take the campaign down with it.  @p detail, when given,
     * receives the quarantine verdict.
     */
    Outcome inject(const Fault &fault, const GoldenRun &ref,
                   InjectDetail *detail = nullptr) const;

    /**
     * Per-outcome completion callback for injectBatch: invoked from
     * the executing thread as each FRESH injection finishes (memo
     * hits and duplicate aliases are not reported).  Used by the
     * suite scheduler to journal outcomes as they complete; must be
     * internally synchronized.
     */
    using OutcomeCallback = std::function<void(
        std::uint64_t key, Outcome o, const InjectDetail &detail)>;

    /**
     * Inject every fault of @p faults on @p group's pool and return
     * their outcomes in the same order.  Duplicate faults (and faults
     * already in @p memo) run once; every fresh injection is one task
     * of @p group, submitted in flip-cycle order for checkpoint
     * locality, so the workers of a shared pool interleave (steal) work
     * from concurrent batches.  Blocks until the batch is done,
     * help-running the group's queued tasks meanwhile (safe to call
     * from inside a pool task).  @p group must be used by one batch at
     * a time.  Results are bit-identical for any pool size or schedule:
     * each outcome is a pure function of its fault.
     */
    std::vector<Outcome> injectBatch(
        const std::vector<Fault> &faults, const GoldenRun &ref,
        base::TaskGroup &group, OutcomeMemo *memo = nullptr,
        const OutcomeCallback *on_outcome = nullptr) const;

    /**
     * Build the deterministic plan for @p faults: resolve @p memo hits,
     * collapse duplicates, cycle-sort the remaining work.  The faults
     * must all target one structure (faultKey() does not name it);
     * a mixed batch is a FatalError.  Callers then
     * run plan.work items in any order/thread
     * (`plan.outcomes[i] = inject(faults[i], ref)`) and finishBatch().
     */
    BatchPlan planBatch(const std::vector<Fault> &faults,
                        const OutcomeMemo *memo = nullptr) const;

    /** Publish a completed plan: memo inserts + duplicate-slot fills. */
    void finishBatch(BatchPlan &plan, OutcomeMemo *memo = nullptr) const;

    /** Classify a completed faulty run (exposed for testing). */
    static Outcome classify(const isa::ArchResult &faulty,
                            const uarch::Core &core, const GoldenRun &ref);

    /**
     * Saturating timeout budget: factor * golden_cycles + 1000 slack,
     * clamped at the Cycle maximum instead of wrapping (exposed for
     * testing; a factor of 0 counts as 1).
     */
    static Cycle timeoutBudget(Cycle golden_cycles, unsigned factor);

    const uarch::CoreConfig &config() const { return cfg_; }

    /** Checkpoint-count bound; the golden run's interval doubles past
     *  it.  COW snapshots cost O(dirty state), so the memory budget
     *  affords a 4x denser grid than the seed engine's 32. */
    static constexpr unsigned kMaxCheckpoints = 128;

    /** Cumulative run / early-exit counts since construction. */
    InjectionStats injectionStats() const;

    /**
     * Every injection quarantined by this runner so far, sorted by
     * (fault key, reason) — a deterministic list for CampaignResult
     * and the store schema.
     */
    std::vector<QuarantineRecord> quarantineRecords() const;

  private:
    void recordQuarantine(const Fault &fault, std::string reason,
                          InjectDetail *detail) const;

    const isa::Program &prog_;
    uarch::CoreConfig cfg_;
    RunnerOptions opts_;
    mutable std::atomic<std::uint64_t> runs_{0};
    mutable std::atomic<std::uint64_t> earlyExits_{0};
    mutable std::atomic<std::uint64_t> replayMasked_{0};
    mutable std::atomic<std::uint64_t> replayCyclesSkipped_{0};
    mutable std::atomic<std::uint64_t> replayHeadCycles_{0};
    mutable std::atomic<std::uint64_t> deltaResumes_{0};
    mutable std::atomic<std::uint64_t> deltaDecided_{0};
    mutable std::atomic<std::uint64_t> deltaCyclesSkipped_{0};
    mutable std::atomic<std::uint64_t> postFlipCycles_{0};
    mutable std::mutex quarantineMu_;
    mutable std::vector<QuarantineRecord> quarantine_;
};

} // namespace merlin::faultsim

#endif // MERLIN_FAULTSIM_RUNNER_HH
