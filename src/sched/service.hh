/**
 * @file
 * Campaign service: the suite engine, detached from the process
 * lifetime.
 *
 * CampaignService owns everything a suite run used to create and tear
 * down per invocation — the shared ThreadPool, the ResultStore, the
 * outcome-journal directory and the built-workload cache — and
 * accepts campaign submissions at ANY time.  The one-shot
 * SuiteScheduler is now a thin submit-all-and-wait wrapper over it,
 * and merlin_serve keeps one instance resident behind a Unix socket.
 *
 * Semantics carried over unchanged from the batch scheduler (the
 * refactor contract is byte-identical stores and journals):
 *
 *   - at most pool-size campaigns are in flight at a time, driven by
 *     looping driver tasks whose injections fan into the SAME pool
 *     (cross-campaign work stealing);
 *   - with reuseCached, a submitted spec whose content hash is in the
 *     store is served from it without running;
 *   - every completed campaign is persisted (put + atomic save) under
 *     one store mutex;
 *   - a crash-safe outcome journal in `<storePath>.journal/` protects
 *     each running campaign, and is removed once the store save lands.
 *
 * New, service-only semantics:
 *
 *   - single-flight: concurrent submissions of the SAME spec (equal
 *     content hash) coalesce onto one simulation — determinism makes
 *     the result bytes safely shareable, so every subscriber gets the
 *     identical Outcome while inject.runs is paid once;
 *   - fairness: each submission names a client, and the drivers pick
 *     the next campaign round-robin across the per-client queues, so
 *     one tenant's thousand-spec sweep cannot starve another's single
 *     submission.
 */

#ifndef MERLIN_SCHED_SERVICE_HH
#define MERLIN_SCHED_SERVICE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/threadpool.hh"
#include "io/result_store.hh"
#include "obs/progress.hh"
#include "sched/suite.hh"

namespace merlin::sched
{

class CampaignService
{
  public:
    /** Process-lifetime configuration (one store, one pool). */
    struct Config
    {
        /** Shared-pool worker threads (0 = hardware concurrency). */
        unsigned jobs = 1;
        /**
         * Result-store path; empty = keep results in memory only.
         * Outcome journals live beside a store file, in
         * `<storePath>.journal/`; a memory-only store has none.
         */
        std::string storePath;
        /** Quarantine policy (operational, never part of a spec). */
        bool quarantineFail = false;
        /**
         * Load an existing store file at construction.  The batch
         * wrapper sets this only under --resume (a cold suite
         * overwrites); the daemon always sets it — a warm cache is
         * its reason to exist.
         */
        bool loadStore = false;
        /**
         * Test seam: queue submissions without running them until
         * resume() — the deterministic way to exercise single-flight
         * coalescing.
         */
        bool startPaused = false;
    };

    enum class State : std::uint8_t
    {
        Queued,
        Running,
        Done,
        Failed,
        Cancelled,
    };

    static const char *stateName(State s);

    /** What a finished submission yields. */
    struct Outcome
    {
        core::CampaignResult result;
        /** Served from the store without running. */
        bool cached = false;
        /** Coalesced onto another submission's simulation. */
        bool coalesced = false;
    };

    /** Per-submission knobs (the per-client half of SuiteOptions). */
    struct SubmitOptions
    {
        /** Serve store hits instead of re-running. */
        bool reuseCached = false;
        /** Fairness queue / telemetry label for this submitter. */
        std::string client = "local";
        /** Optional live-progress counters to bump (not owned). */
        obs::ProgressSink *progress = nullptr;
    };

    /**
     * Handle to one submission.  wait() blocks until the submission
     * reaches a terminal state; outcome() is valid in Done, error()
     * in Failed.  Tickets are shared_ptr-held and safe to wait from
     * any thread (including several threads on one ticket).
     */
    class Ticket
    {
        friend class CampaignService;

      public:
        const CampaignSpec &spec() const { return spec_; }
        const std::string &key() const { return key_; }

        State state() const;
        /** Block until Done / Failed / Cancelled; returns the state. */
        State wait();
        /** The result; fatal() unless state() == Done. */
        const Outcome &outcome() const;
        /** The failure; null unless state() == Failed. */
        std::exception_ptr error() const;

      private:
        Ticket(CampaignSpec spec, std::string key, SubmitOptions opts);
        void complete(State s, Outcome out, std::exception_ptr err);

        const CampaignSpec spec_;
        const std::string key_;
        const SubmitOptions opts_;
        mutable std::mutex mu_;
        std::condition_variable cv_;
        State state_ = State::Queued;
        Outcome outcome_;
        std::exception_ptr error_;
    };

    using TicketPtr = std::shared_ptr<Ticket>;

    /** Service-level accounting (monotonic except queued/running). */
    struct Stats
    {
        std::uint64_t submitted = 0;
        std::uint64_t executed = 0;  ///< campaigns actually simulated
        std::uint64_t cacheHits = 0; ///< served whole from the store
        std::uint64_t coalesced = 0; ///< single-flight subscribers
        std::uint64_t failed = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t queued = 0;  ///< currently waiting for a driver
        std::uint64_t running = 0; ///< currently simulating
    };

    explicit CampaignService(Config cfg);

    /** Drains all accepted work (equivalent to drain()), then joins
     *  the pool. */
    ~CampaignService();

    CampaignService(const CampaignService &) = delete;
    CampaignService &operator=(const CampaignService &) = delete;

    const Config &config() const { return cfg_; }

    /**
     * Submit one campaign.  Returns immediately with a ticket; the
     * campaign is served from the store (reuseCached), coalesced onto
     * an identical in-flight submission, or queued.  Returns null
     * once shutdown has begun.
     */
    TicketPtr submit(const CampaignSpec &spec,
                     const SubmitOptions &opts);

    /**
     * Attach a new ticket to the in-flight submission for @p key
     * (single-flight subscribe by content hash); null when nothing
     * with that key is queued or running.
     */
    TicketPtr subscribe(const std::string &key);

    /**
     * Cancel a submission that has not started running.  @return true
     * when the ticket was cancelled; false when it already ran (or is
     * running — campaigns are never killed mid-flight, so their
     * journals always close cleanly).
     */
    bool cancel(const TicketPtr &ticket);

    /** Start a paused service's drivers (see Config::startPaused). */
    void resume();

    /** Block until no submission is queued or running. */
    void drain();

    /**
     * Stop accepting submissions (submit() returns null from here
     * on).  With @p cancel_queued, submissions no driver has picked
     * up yet are cancelled — the graceful-SIGTERM policy: running
     * campaigns complete and persist (their journals close and are
     * removed once the store save lands), queued ones are handed
     * back to their clients as Cancelled.  Call drain() after.
     */
    void beginShutdown(bool cancel_queued);

    bool draining() const;

    /**
     * Run @p fn with exclusive access to the result store (the
     * daemon's key queries).  Must not call back into the service.
     */
    void withStore(const std::function<void(io::ResultStore &)> &fn);

    /** Where @p key currently is, for status queries: Queued/Running
     *  when in flight, Done when in the store, Cancelled never, and
     *  Failed never — failures are not remembered across tickets.
     *  @return true when the key is known at all. */
    bool keyState(const std::string &key, State &out);

    Stats stats() const;

  private:
    struct Job;
    struct WorkloadSlot;

    std::shared_ptr<const workloads::BuiltWorkload>
    workloadFor(const std::string &name);
    std::string journalPathFor(const CampaignSpec &spec) const;
    void maybeSpawnDriverLocked();
    void driverLoop();
    std::shared_ptr<Job> popNextLocked();
    void runJob(Job &job);
    void settleLocked(const std::shared_ptr<Job> &job, State state,
                      std::exception_ptr err);
    obs::ProgressSink *primaryProgress(const Job &job);

    const Config cfg_;
    /** `<storePath>.journal`; empty (journaling off) without a store
     *  file. */
    const std::string journalRoot_;
    base::ThreadPool pool_;

    io::ResultStore store_;
    mutable std::mutex storeMu_;

    mutable std::mutex mu_;
    std::condition_variable idleCv_;
    /** Per-client FIFO queues, picked round-robin for fairness. */
    std::map<std::string, std::deque<std::shared_ptr<Job>>> queues_;
    std::vector<std::string> clientOrder_; ///< first-seen rotation
    std::size_t rrNext_ = 0;
    /** Single-flight index: spec key -> queued/running job. */
    std::map<std::string, std::shared_ptr<Job>> inflight_;
    std::size_t activeDrivers_ = 0;
    std::size_t queuedJobs_ = 0;
    std::size_t runningJobs_ = 0;
    std::map<std::string, std::size_t> runningByClient_;
    bool paused_ = false;
    bool draining_ = false;
    Stats stats_;

    std::mutex wlMu_;
    std::map<std::string, std::unique_ptr<WorkloadSlot>> wlCache_;
};

} // namespace merlin::sched

#endif // MERLIN_SCHED_SERVICE_HH
